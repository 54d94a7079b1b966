"""Critical point detection and classification on the worked examples.

Eigenvalue oracles: the double cosine on the torus has Hessian diagonal
+-4*pi^2 at the four half-integer lattice points; the height function on
the unit sphere restricted to a tangent chart at a pole has intrinsic
Hessian -+I.
"""

import numpy as np
import pytest

from morseflow import critpoint, geometry
from morseflow.errors import NotCriticalError
from morseflow.funcexpr import ScalarField

FOUR_PI_SQ = 4.0 * np.pi ** 2


@pytest.fixture(scope="module")
def torus_setup():
    f = ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2)", 2)
    m = geometry.torus(2)
    return f, m, critpoint.find_critical_points(f, m)


def test_torus_four_points(torus_setup):
    f, m, pts = torus_setup
    assert len(pts) == 4
    got = {(round(p.location[0], 6), round(p.location[1], 6)): p.index for p in pts}
    assert got == {(0.0, 0.0): 2, (0.0, 0.5): 1, (0.5, 0.0): 1, (0.5, 0.5): 0}
    for p in pts:
        assert p.residual < 1e-10
        assert p.nondegenerate
        for ev in p.eigenvalues:
            assert abs(abs(ev) - FOUR_PI_SQ) < 1e-8


def test_ids_sorted_by_index_then_location(torus_setup):
    _, _, pts = torus_setup
    assert [p.id for p in pts] == [0, 1, 2, 3]
    assert [p.index for p in pts] == [0, 1, 1, 2]
    # ties broken by location, ascending
    assert pts[1].location < pts[2].location


def test_sphere_poles():
    f = ScalarField.from_text("x3", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    assert len(pts) == 2
    south, north = pts
    assert south.index == 0 and np.allclose(south.location, (0, 0, -1))
    assert north.index == 2 and np.allclose(north.location, (0, 0, 1))
    # intrinsic Hessian of the height function at the poles is -+ identity
    assert np.allclose(south.eigenvalues, (1.0, 1.0), atol=1e-9)
    assert np.allclose(north.eigenvalues, (-1.0, -1.0), atol=1e-9)


def test_projective_axes_have_index_j():
    for n in (1, 2, 3):
        num = " + ".join(f"{j}*x{j + 1}^2" for j in range(1, n + 1))
        den = " + ".join(f"x{j + 1}^2" for j in range(n + 1))
        f = ScalarField.from_text(f"({num}) / ({den})", n + 1)
        m = geometry.projective(n)
        pts = critpoint.find_critical_points(f, m)
        assert len(pts) == n + 1
        for j, p in enumerate(pts):
            assert p.index == j
            axis = np.zeros(n + 1)
            axis[j] = 1.0
            assert geometry.distance(m, p.location, axis) < 1e-8
            assert p.nondegenerate


def test_index_duality_under_negation(torus_setup):
    f, m, pts = torus_setup
    g = ScalarField.from_text("-(cos(2*pi*x1) + cos(2*pi*x2))", 2)
    neg = critpoint.find_critical_points(g, m)
    by_loc = {tuple(np.round(p.location, 8)): p.index for p in neg}
    for p in pts:
        assert by_loc[tuple(np.round(p.location, 8))] == m.n - p.index


def test_classify_rejects_regular_points(torus_setup):
    f, m, _ = torus_setup
    with pytest.raises(NotCriticalError):
        critpoint.classify(f, m, (0.2, 0.3))


def test_degenerate_field_detected():
    # cos(2*pi*x1) alone on the 2-torus: whole circles of critical points,
    # Hessian singular in the x2 direction
    f = ScalarField.from_text("cos(2*pi*x1)", 2)
    m = geometry.torus(2)
    p = critpoint.classify(f, m, (0.0, 0.37))
    assert not p.nondegenerate
    assert not critpoint.verify_morse([p])


def test_verify_morse_true_on_examples(torus_setup):
    _, _, pts = torus_setup
    assert critpoint.verify_morse(pts)


@pytest.mark.parametrize("manifold,function,grid,per_index", [
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2)", None, (1, 2, 1)),
    ("sphere2", "x3", None, (1, 0, 1)),
    ("rp1", "(x2^2) / (x1^2 + x2^2)", None, (1, 1)),
    ("rp2", "(x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", None, (1, 1, 1)),
    ("rp3", "(x2^2 + 2*x3^2 + 3*x4^2) / (x1^2 + x2^2 + x3^2 + x4^2)", None, (1, 1, 1, 1)),
    ("torusN:3", "cos(2*pi*x1) + cos(2*pi*x2) + cos(2*pi*x3)", None, (1, 3, 3, 1)),
    ("circle", "cos(2*pi*8*x1)", 64, (8, 8)),
])
def test_golden_point_tables(manifold, function, grid, per_index):
    m = geometry.parse_manifold(manifold)
    f = ScalarField.from_text(function, m.ambient_dim)
    pts = critpoint.find_critical_points(f, m, grid)
    assert tuple(sum(p.index == k for p in pts) for k in range(m.n + 1)) == per_index
    assert [p.id for p in pts] == list(range(len(pts)))
    assert critpoint.verify_morse(pts)


def test_singular_hessian_everywhere_falls_back_to_gradient(monkeypatch):
    # the x2 column of the Hessian of cos(2*pi*x1) vanishes: every Newton
    # solve is singular and every row steps along -g, down to the circle of
    # minima x1 = 1/2, where the 16 seed columns give 16 degenerate points
    steps = []
    solve = critpoint._solve_rows

    def spy(A, b, fallback):
        x = solve(A, b, fallback)
        steps.append(np.array_equal(x, fallback))
        return x

    monkeypatch.setattr(critpoint, "_solve_rows", spy)
    f = ScalarField.from_text("cos(2*pi*x1)", 2)
    pts = critpoint.find_critical_points(f, geometry.torus(2))
    assert steps and all(steps)
    assert len(pts) == 16
    assert not any(p.nondegenerate for p in pts)
    assert {round(p.location[0], 9) for p in pts} == {0.5}


def test_solve_rows_mixed_singular_and_regular():
    A = np.array([[[2.0, 0.0], [0.0, 4.0]],
                  [[1.0, 2.0], [2.0, 4.0]],      # singular
                  [[3.0, 1.0], [1.0, 2.0]],
                  [[0.0, 0.0], [0.0, 0.0]]])     # singular
    b = np.array([[2.0, 8.0], [1.0, 1.0], [5.0, 5.0], [3.0, -3.0]])
    fallback = -b
    x = critpoint._solve_rows(A, b, fallback)
    assert np.allclose(x[0], (1.0, 2.0)) and np.allclose(x[2], (1.0, 2.0))
    assert np.array_equal(x[[1, 3]], fallback[[1, 3]])
    # all regular: one stacked solve, the same answers row by row
    regular = critpoint._solve_rows(A[[0, 2]], b[[0, 2]], fallback[[0, 2]])
    assert np.array_equal(regular, x[[0, 2]])


def _solve_rows_per_row(A, b, fallback):
    """The row-by-row reference: one solve per row, fallback where it raises."""
    out = fallback.copy()
    for i in range(len(b)):
        try:
            out[i] = np.linalg.solve(A[i], b[i])
        except np.linalg.LinAlgError:
            pass
    return out


@pytest.mark.parametrize("manifold,function,grid", [
    ("torus2", "cos(2*pi*x1)", None),
    ("torusN:5", "cos(2*pi*x1) + cos(2*pi*x5)", 5),
    ("sphere2", "x3^2", None),
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2) + 0.05*cos(2*pi*(x1 + x2))", None),
    ("torus2", "cos(2*pi*x1)*cos(2*pi*x2)", None),   # Morse; 6 of 256 seeds singular
])
def test_masked_solve_matches_per_row_solves(monkeypatch, manifold, function, grid):
    # singular rows are masked by slogdet and the rest solved in one call;
    # the point lists equal those of solving every row alone
    m = geometry.parse_manifold(manifold)
    f = ScalarField.from_text(function, m.ambient_dim)
    masked = critpoint.find_critical_points(f, m, grid)
    monkeypatch.setattr(critpoint, "_solve_rows", _solve_rows_per_row)
    assert masked == critpoint.find_critical_points(f, m, grid)
