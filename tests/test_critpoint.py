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
        critpoint.classify(f, m, [(0.2, 0.3)])


def test_degenerate_field_detected():
    # cos(2*pi*x1) alone on the 2-torus: whole circles of critical points,
    # Hessian singular in the x2 direction
    f = ScalarField.from_text("cos(2*pi*x1)", 2)
    m = geometry.torus(2)
    [p] = critpoint.classify(f, m, [(0.0, 0.37)])
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


def _dedupe_restarting(m, xs, residuals):
    """The reference rule: distances for a block of rows against the found
    points, taken again from the next row after every found or replaced point."""
    rep = [0]
    i = 1
    while i < len(xs):
        near = geometry.distance(m, xs[i:i + critpoint.DEDUPE_BLOCK, None],
                                 xs[rep]) < critpoint.DEDUPE_RADIUS
        first = np.where(near.any(axis=1), near.argmax(axis=1), -1).tolist()
        for j, k in enumerate(first, start=i):
            if k < 0:
                rep.append(j)
                break
            if residuals[j] < residuals[rep[k]]:
                rep[k] = j
                break
        i = j + 1
    return xs[rep]


@pytest.mark.parametrize("manifold,function,grid", [
    ("torusN:5", "cos(2*pi*x1) + cos(2*pi*x5)", 6),     # 216 points
    ("torus2", "cos(2*pi*x1)", None),
    ("sphere2", "x3^2", None),
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2) + 0.061803*cos(2*pi*(x1 + x2))", None),
    ("rp2", "(0.912345*x2^2 + 2.234567*x3^2 - 0.031234*x2*x3)/(x1^2 + x2^2 + x3^2)", None),
    ("circle", "cos(2*pi*16*x1) + 0.2*sin(2*pi*x1)", 128),
])
def test_dedupe_column_updates_match_restarting_blocks(monkeypatch, manifold, function, grid):
    m = geometry.parse_manifold(manifold)
    f = ScalarField.from_text(function, m.ambient_dim)
    pts = critpoint.find_critical_points(f, m, grid)
    monkeypatch.setattr(critpoint, "_dedupe", _dedupe_restarting)
    assert pts == critpoint.find_critical_points(f, m, grid)


def test_dedupe_keeps_the_lowest_residual_row_even_when_it_comes_last():
    m = geometry.torus(2)
    xs = np.array([[0.3, 0.3], [0.3 + 1e-8, 0.3], [0.7, 0.1], [0.3 + 2e-8, 0.3]])
    kept = critpoint._dedupe(m, xs, np.array([3e-11, 2e-11, 5e-11, 1e-11]))
    assert kept.tolist() == [xs[3].tolist(), xs[2].tolist()]


def test_dedupe_keeps_the_earlier_of_equal_residuals():
    m = geometry.sphere(2)
    xs = np.array([[0.0, 0.0, 1.0], [1e-9, 0.0, 1.0], [0.0, 0.0, -1.0], [-1e-9, 0.0, 1.0]])
    kept = critpoint._dedupe(m, xs, np.array([2e-11, 1e-11, 1e-11, 1e-11]))
    assert kept.tolist() == [xs[1].tolist(), xs[2].tolist()]


def test_dedupe_takes_one_distance_call_per_block_and_per_further_point(monkeypatch):
    # 600 rows, jittered copies of 10 points: rows 1..599 are 3 blocks
    m = geometry.torus(2)
    centers = np.array([[0.05 + 0.1 * k, 0.37] for k in range(10)])
    xs = centers[np.arange(600) % 10] + np.arange(600)[:, None] * [1e-10, 0.0]
    residuals = np.random.default_rng(7).uniform(1e-13, 1e-11, 600)
    calls = []
    distance = geometry.distance

    def counting(*args):
        calls.append(args)
        return distance(*args)
    monkeypatch.setattr(geometry, "distance", counting)
    kept = critpoint._dedupe(m, xs, residuals)
    assert len(calls) == 3 + 10 - 1
    best = [min(range(k, 600, 10), key=lambda i: residuals[i]) for k in range(10)]
    assert sorted(kept.tolist()) == sorted(xs[best].tolist())


def _line_search_every_halving(field, m, rows, step, X, G, g, gsq):
    """The reference search: every pending row evaluates the gradient at all
    40 halvings of each direction, even where its candidate no longer moves."""
    pending = np.arange(len(rows))
    for direction in (step, -g[rows]):
        t = 1.0
        for _ in range(40):
            if not pending.size:
                break
            at = rows[pending]
            cand = X[at] + t * direction[pending]
            if m.kind != "torus":
                r = np.linalg.norm(cand, axis=1, keepdims=True)
                cand = cand / r
            Gc, gc = critpoint._gradients(field, m, cand)
            gcsq = np.sum(gc * gc, axis=1)
            ok = (gcsq < gsq[at] * (1.0 - 1e-4 * t)) | (gcsq <= 1e-24)
            if m.kind != "torus":
                ok &= r[:, 0] >= 1e-12
            X[at[ok]], G[at[ok]], g[at[ok]], gsq[at[ok]] = cand[ok], Gc[ok], gc[ok], gcsq[ok]
            pending = pending[~ok]
            t *= 0.5
    return rows[pending]


ROUNDING_FLOOR_CIRCLES = [
    ("circle", "1e4*cos(2*pi*x1)", None),
    ("circle", "cos(2*pi*16*x1) + 0.2*sin(2*pi*x1)", 128),
]


@pytest.mark.parametrize("manifold,function,grid", [
    ("torusN:5", "cos(2*pi*x1) + cos(2*pi*x5)", 6),
    ("torus2", "cos(2*pi*x1)", None),
    ("sphere2", "x3^2", None),
    ("torus2", "cos(2*pi*x1) + cos(2*pi*x2) + 0.061803*cos(2*pi*(x1 + x2))", None),
    ("rp2", "(0.912345*x2^2 + 2.234567*x3^2 - 0.031234*x2*x3)/(x1^2 + x2^2 + x3^2)", None),
    *ROUNDING_FLOOR_CIRCLES,
])
def test_line_search_leaving_still_rows_matches_every_halving(monkeypatch, manifold,
                                                              function, grid):
    m = geometry.parse_manifold(manifold)
    f = ScalarField.from_text(function, m.ambient_dim)
    batches = []
    gradients = critpoint._gradients

    def counting(*args):
        batches.append(len(args[2]))
        return gradients(*args)
    monkeypatch.setattr(critpoint, "_gradients", counting)
    pts = critpoint.find_critical_points(f, m, grid)
    fast = len(batches)
    monkeypatch.setattr(critpoint, "_line_search", _line_search_every_halving)
    assert pts == critpoint.find_critical_points(f, m, grid)
    assert fast <= len(batches) - fast
    if (manifold, function, grid) in ROUNDING_FLOOR_CIRCLES:
        assert 2 * fast <= len(batches) - fast


def test_degenerate_points_share_an_index():
    # the equator of x3^2 is a circle of minima: one zero eigenvalue, whose
    # sign is rounding noise, and one positive one
    f = ScalarField.from_text("x3^2", 3)
    pts = critpoint.find_critical_points(f, geometry.sphere(2))
    equator = [p for p in pts if not p.nondegenerate]
    assert len(equator) > 20
    assert {p.index for p in equator} == {0}
    assert all(p.nondegenerate and p.index == 2 for p in pts if p not in equator)


def test_points_converged_to_the_rounding_floor_are_kept():
    # Newton ends at the minimum of 1e4*cos(2*pi*x1) with |g|^2 near 6e-23:
    # above the batch exit 1e-24, below RESIDUAL_TOL^2, and no Armijo step
    # lowers it.  The row has converged; it leaves the batch and is kept.
    m = geometry.parse_manifold("circle")
    f = ScalarField.from_text("1e4*cos(2*pi*x1)", 1)
    pts = critpoint.find_critical_points(f, m)
    assert [(p.index, round(p.location[0], 9)) for p in pts] == [(0, 0.5), (1, 0.0)]
    assert all(p.residual < critpoint.RESIDUAL_TOL for p in pts)


@pytest.mark.parametrize("text, dim, name, grid", [
    ("cos(2*pi*x1) + cos(2*pi*x2) + 0.0731*cos(2*pi*(x1 + x2))", 2, "torus2", None),
    ("(0.800000*x2^2 + 1.920000*x3^2 - 0.016000*x2*x3)/(x1^2 + x2^2 + x3^2)", 3, "rp2", None),
    ("x3", 3, "sphere2", None),
    ("cos(2*pi*7*x1) + 0.2*sin(2*pi*x1)", 1, "circle", 56),
    ("cos(2*pi*x1) + 0.8*cos(2*pi*x2) + 0.6*cos(2*pi*x3)", 3, "torusN:3", 8),
])
def test_value_is_f_at_the_canonical_point(text, dim, name, grid):
    f = ScalarField.from_text(text, dim)
    m = geometry.parse_manifold(name)
    pts = critpoint.find_critical_points(f, m, grid)
    assert pts
    for p in pts:
        want = f.value(geometry.working_point(m, p.location))
        assert np.float64(p.value).view(np.int64) == np.float64(want).view(np.int64)


def _bits(p):
    """Every field of a record, with each float as its bit pattern."""
    floats = np.array([*p.location, *p.eigenvalues, p.residual, p.value])
    return p.index, p.nondegenerate, p.id, floats.view(np.int64).tolist()


@pytest.mark.parametrize("text, name, grid", [
    ("cos(2*pi*x1) + cos(2*pi*x2) + 0.05*sin(2*pi*(x1 + 2*x2))", "torus2", 16),
    ("x3 + 0.1*exp(x1)*x2", "sphere2", 6),
    ("(x1^2 + 2*x2^2 + 3*x3^2)/(x1^2 + x2^2 + x3^2)", "rp2", 6),
    ("log(2 + cos(2*pi*8*x1)) + 0.1*sin(2*pi*x1)", "circle", 64),
])
def test_classifying_rows_together_equals_classifying_each_alone(text, name, grid):
    # one batch of numpy evaluations and one stacked eigh per sweep: no row
    # may see its neighbours in its record's bits
    m = geometry.parse_manifold(name)
    f = ScalarField.from_text(text, m.ambient_dim)
    with np.errstate(all="ignore"):
        xs, residuals = critpoint._sweep(f, m, geometry.seed_points(m, grid))
    rows = critpoint._dedupe(m, xs, residuals)
    assert len(rows) == len(critpoint.find_critical_points(f, m, grid)) >= 2
    together = critpoint.classify(f, m, rows)
    alone = [p for k in range(len(rows)) for p in critpoint.classify(f, m, rows[k:k + 1])]
    assert [_bits(p) for p in together] == [_bits(p) for p in alone]


def test_one_stacked_eigh_classifies_every_point(monkeypatch):
    f = ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2) + 0.05*sin(2*pi*(x1 + 2*x2))", 2)
    eigh, shapes = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    pts = critpoint.find_critical_points(f, geometry.torus(2))
    assert shapes == [(len(pts), 2, 2)]
