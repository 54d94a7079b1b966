"""Floer complex built from Morse data through the cotangent correspondence.

The differential entry for a mod-2 odd pair must be T^(eps*(f(p)-f(q)));
setting T = 1 must reproduce the Morse boundary matrices bit for bit;
strip areas from quadrature must match the analytic action drop.
"""

import math
import warnings

import pytest

from morseflow import critpoint, floer, flow, geometry, novikov, pipeline
from morseflow.errors import DomainError, NotAComplexError, QuadratureFailureError
from morseflow.funcexpr import ScalarField
from morseflow.novikov import NovikovElement


@pytest.fixture(scope="module")
def torus_run():
    f = ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2)", 2)
    m = geometry.torus(2)
    return f, m, pipeline.run_morse(f, m)


@pytest.fixture(scope="module")
def circle_run():
    f = ScalarField.from_text("cos(2*pi*x1)", 1)
    m = geometry.parse_manifold("circle")
    return f, m, pipeline.run_morse(f, m)


def test_torus_hf_ranks(torus_run):
    f, m, run = torus_run
    fc = floer.build_floer_complex(f, m, run.counts, epsilon=0.05, points=run.points)
    assert floer.verify_floer_d_squared(fc)
    hf = floer.hf_ranks(fc)
    assert hf.by_degree == (1, 2, 1)
    assert hf.total == 4
    assert floer.arnold_bound(hf) == 4


def test_circle_hf_ranks(circle_run):
    f, m, run = circle_run
    fc = floer.build_floer_complex(f, m, run.counts, epsilon=0.05, points=run.points)
    hf = floer.hf_ranks(fc)
    assert hf.by_degree == (1, 1)
    assert hf.total == 2
    assert floer.arnold_bound(hf) == 2


def test_t_equal_one_reduction_bitwise(torus_run):
    f, m, run = torus_run
    fc = floer.build_floer_complex(f, m, run.counts, epsilon=0.05, points=run.points)
    reduced = fc.mod2_matrices()
    assert set(reduced) == set(run.complex.matrices)
    for k in reduced:
        assert reduced[k].bitstrings() == run.complex.matrices[k].bitstrings()


def test_entries_carry_action_exponent():
    # synthetic odd count so the Novikov entry is visible
    pts = [critpoint.CriticalPoint(location=(0.0,), index=0, eigenvalues=(1.0,),
                                   residual=0.0, nondegenerate=True, id=0),
           critpoint.CriticalPoint(location=(0.5,), index=1, eigenvalues=(-1.0,),
                                   residual=0.0, nondegenerate=True, id=1)]
    counts = [flow.ConnectionCount(source=1, sink=0, count_mod2=1, raw_count=1,
                                   representatives=[], flagged=False)]
    f = ScalarField.from_text("cos(2*pi*x1)", 1)
    m = geometry.parse_manifold("circle")
    fc = floer.build_floer_complex(f, m, counts, epsilon=0.25, points=pts)
    e = fc.matrices[1][0][0]
    drop = 0.25 * (f.value((0.5,)) - f.value((0.0,)))
    assert e.exponents == (drop,)


def test_hf_ranks_with_nonzero_differential():
    # hand-built acyclic pair: one generator each in degrees 0 and 1 with
    # differential T^0.3 kills both ranks
    fc = floer.FloerComplex(
        top_degree=1, generators={0: [0], 1: [1]},
        matrices={1: [[NovikovElement.term(0.3)]]},
        f_values={0: 0.0, 1: 6.0}, epsilon=0.05, cmax=32.0)
    hf = floer.hf_ranks(fc)
    assert hf.by_degree == (0, 0)
    assert hf.total == 0


def test_dsquared_violation_raises():
    one = NovikovElement.one()
    fc = floer.FloerComplex(
        top_degree=2, generators={0: [0], 1: [1], 2: [2]},
        matrices={1: [[one]], 2: [[one]]},
        f_values={0: 0.0, 1: 1.0, 2: 2.0}, epsilon=0.05, cmax=32.0)
    assert not floer.verify_floer_d_squared(fc)
    with pytest.raises(NotAComplexError):
        floer.hf_ranks(fc)


def test_strip_area_matches_action_drop(torus_run):
    f, m, run = torus_run
    for c in run.counts:
        for traj in c.representatives:
            w = floer.strip_area_check(f, m, traj, epsilon=0.05, points=run.points)
            assert w.agrees
            rel = abs(w.quadrature - w.analytic) / (1.0 + abs(w.analytic))
            assert rel < 1e-6
            assert w.analytic > 0  # flow goes downhill, the strip has area


def test_strip_area_scales_linearly_in_epsilon(torus_run):
    f, m, run = torus_run
    traj = run.counts[0].representatives[0]
    w1 = floer.strip_area_check(f, m, traj, epsilon=0.05, points=run.points)
    w2 = floer.strip_area_check(f, m, traj, epsilon=0.10, points=run.points)
    assert math.isclose(w2.analytic, 2.0 * w1.analytic, rel_tol=1e-12)
    assert math.isclose(w2.quadrature, 2.0 * w1.quadrature, rel_tol=1e-9)


def test_strip_area_constant_trajectory_is_zero(torus_run):
    f, m, run = torus_run
    mx = next(p for p in run.points if p.index == 2)
    traj = flow.integrate(f, m, mx.location, t_max=5.0, points=run.points)
    w = floer.strip_area_check(f, m, traj, epsilon=0.05, points=run.points)
    assert w.analytic == 0.0 and w.quadrature == 0.0 and w.agrees


def test_strip_area_rejects_unresolved(torus_run):
    f, m, run = torus_run
    traj = flow.Trajectory(times=(0.0, 1.0), points=((0.2, 0.2), (0.3, 0.3)),
                           f_values=(1.0, 0.5), source_label=None, sink_label=None,
                           energy=0.5)
    with pytest.raises(QuadratureFailureError):
        floer.strip_area_check(f, m, traj, epsilon=0.05, points=run.points)


def test_epsilon_must_scale_exponents(torus_run):
    f, m, run = torus_run
    fc1 = floer.build_floer_complex(f, m, run.counts, epsilon=0.05, points=run.points)
    fc2 = floer.build_floer_complex(f, m, run.counts, epsilon=0.10, points=run.points)
    assert fc1.epsilon == 0.05 and fc2.epsilon == 0.10
    # torus counts are all even, so both differentials vanish; the recorded
    # f values agree and the lift is determined by epsilon alone
    assert fc1.f_values == fc2.f_values


def test_arnold_bound_from_morse_ranks(torus_run):
    _, _, run = torus_run
    assert floer.arnold_bound(run.ranks) == 4


def test_strip_area_constant_partials_broadcast():
    # every partial of x3 is a float constant; the poles differ by f = 2
    f = ScalarField.from_text("x3", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    top = next(p for p in pts if p.index == 2)
    traj = flow.integrate(f, m, (0.01, 0.0, 1.0), points=pts, source_label=top.id)
    w = floer.strip_area_check(f, m, traj, epsilon=0.05, points=pts)
    assert w.analytic == pytest.approx(0.1, abs=1e-15)
    assert abs(w.quadrature - 0.1) <= 1e-12


def test_strip_gradient_fault_at_hermite_node_is_domain_error():
    # f is defined for x1 >= 0.1 only; the samples are inside, but the cubic
    # through them dips to x1 ~ 0.02 at the quarter node of the middle segment
    f = ScalarField.from_text("x1 + sqrt(x1 - 0.1)", 1)
    m = geometry.parse_manifold("circle")
    pts = [critpoint.CriticalPoint(location=(x,), index=i, eigenvalues=(), residual=0.0,
                                   nondegenerate=True, id=i)
           for i, x in enumerate((0.105, 0.3))]
    traj = flow.Trajectory(times=[0.0, 2.0], points=[(0.2,), (0.11,)], f_values=[0.0, 0.0],
                           source_label=1, sink_label=0, energy=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            floer.strip_area_check(f, m, traj, epsilon=0.05, points=pts)


def test_overflowing_action_drop_is_domain_error(circle_run):
    f, m, run = circle_run
    with pytest.raises(DomainError):
        floer.build_floer_complex(f, m, run.counts, epsilon=1.7e308, points=run.points)
    traj = run.counts[0].representatives[0]
    with pytest.raises(DomainError):
        floer.strip_area_check(f, m, traj, epsilon=1.7e308, points=run.points)


def test_strip_area_coarse_trajectory_fails_quadrature(torus_run):
    f, m, run = torus_run
    top = next(p for p in run.points if p.index == 2)
    bottom = next(p for p in run.points if p.index == 0)
    traj = flow.Trajectory(times=[0.0, 0.1, 0.2],
                           points=[(0.05, 0.05), (0.25, 0.25), (0.45, 0.45)],
                           f_values=[0.0, 0.0, 0.0], source_label=top.id,
                           sink_label=bottom.id, energy=0.0)
    with pytest.raises(QuadratureFailureError):
        floer.strip_area_check(f, m, traj, epsilon=0.05, points=run.points)
