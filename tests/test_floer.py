"""Floer complex built from Morse data through the cotangent correspondence.

The differential entry for a mod-2 odd pair must be T^(eps*(f(p)-f(q)));
setting T = 1 must reproduce the Morse boundary matrices bit for bit;
strip areas from quadrature must match the analytic action drop.
"""

import math
import warnings

import numpy as np
import pytest

from morseflow import critpoint, floer, flow, geometry, gf2chain, novikov, pipeline
from morseflow.errors import DomainError, NotAComplexError, QuadratureFailureError
from morseflow.funcexpr import ScalarField


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


def _synthetic_floer(text, name, cells, raw_counts, epsilon):
    """build_floer_complex on critical points at `cells` (location, index),
    id = position, and the raw counts {(source, sink): n} of every pair."""
    m = geometry.parse_manifold(name)
    f = ScalarField.from_text(text, m.ambient_dim)
    pts = [critpoint.CriticalPoint(location=loc, index=k, eigenvalues=(), residual=0.0,
                                   nondegenerate=True,
                                   value=f.value(geometry.working_point(m, loc)), id=i)
           for i, (loc, k) in enumerate(cells)]
    counts = [flow.ConnectionCount(source=p, sink=q, raw_count=n)
              for (p, q), n in raw_counts.items()]
    return floer.build_floer_complex(pts, counts, epsilon=epsilon)


def test_torus_hf_ranks():
    # the four critical points of cos + cos, every count even
    fc = _synthetic_floer("cos(2*pi*x1) + cos(2*pi*x2)", "torus2",
                          [((0.5, 0.5), 0), ((0.0, 0.5), 1), ((0.5, 0.0), 1), ((0.0, 0.0), 2)],
                          {(1, 0): 2, (2, 0): 2, (3, 1): 2, (3, 2): 2}, epsilon=0.05)
    assert gf2chain.verify_d_squared(fc.morse)
    hf = floer.hf_ranks(fc)
    assert isinstance(hf, gf2chain.HomologyRanks)
    assert hf.by_degree == (1, 2, 1)
    assert hf.total == 4
    assert floer.arnold_bound(hf) == 4


def test_circle_hf_ranks(circle_run):
    _, _, run = circle_run
    fc = floer.build_floer_complex(run.points, run.counts, epsilon=0.05)
    hf = floer.hf_ranks(fc)
    assert hf.by_degree == (1, 1)
    assert hf.total == 2
    assert floer.arnold_bound(hf) == 2


def test_t_equal_one_reduction_bitwise(torus_run):
    _, _, run = torus_run
    fc = floer.build_floer_complex(run.points, run.counts, epsilon=0.05)
    reduced = fc.mod2_matrices()
    assert set(reduced) == set(run.complex.matrices)
    for k in reduced:
        assert reduced[k].bitstrings() == run.complex.matrices[k].bitstrings()


def test_entries_carry_action_exponent():
    # synthetic odd count so the Novikov entry is visible
    f = ScalarField.from_text("cos(2*pi*x1)", 1)
    pts = [critpoint.CriticalPoint(location=(0.0,), index=0, eigenvalues=(1.0,),
                                   residual=0.0, nondegenerate=True,
                                   value=f.value((0.0,)), id=0),
           critpoint.CriticalPoint(location=(0.5,), index=1, eigenvalues=(-1.0,),
                                   residual=0.0, nondegenerate=True,
                                   value=f.value((0.5,)), id=1)]
    counts = [flow.ConnectionCount(source=1, sink=0, raw_count=1,
                                   representatives=[], flagged=False)]
    fc = floer.build_floer_complex(pts, counts, epsilon=0.25)
    e = fc.matrices[1][0][0]
    drop = 0.25 * (f.value((0.5,)) - f.value((0.0,)))
    assert e.exponents == (drop,)


def test_hf_ranks_with_nonzero_differential():
    # acyclic pair: one generator each in degrees 0 and 1 with differential
    # T^0.3 (f = 0 and 6, epsilon 0.05) kills both ranks
    fc = _synthetic_floer("12*x1", "circle", [((0.0,), 0), ((0.5,), 1)], {(1, 0): 1},
                          epsilon=0.05)
    assert fc.matrices[1][0][0].exponents == (0.05 * 6.0,)
    hf = floer.hf_ranks(fc)
    assert hf.by_degree == (0, 0)
    assert hf.total == 0


def test_dsquared_violation_raises():
    fc = _synthetic_floer("x1", "torus2", [((0.0, 0.0), 0), ((0.5, 0.0), 1), ((0.9, 0.0), 2)],
                          {(1, 0): 1, (2, 1): 1}, epsilon=0.05)
    assert not gf2chain.verify_d_squared(fc.morse)
    with pytest.raises(NotAComplexError):
        floer.hf_ranks(fc)


def test_dsquared_violation_beyond_truncation_raises():
    # the path 2 -> 1 -> 0 carries T^20 * T^25 = T^45, at or above C_max = 32,
    # so the truncated Novikov product is zero; d^2 = 1 mod 2 all the same
    fc = _synthetic_floer("1000*x1", "torus2",
                          [((0.0, 0.0), 0), ((0.5, 0.0), 1), ((0.9, 0.0), 2)],
                          {(1, 0): 1, (2, 1): 1}, epsilon=0.05)
    assert [e.exponents for k in (1, 2) for e in fc.matrices[k][0]] == [(25.0,), (20.0,)]
    assert novikov.mul(fc.matrices[1][0][0], fc.matrices[2][0][0]).is_zero
    with pytest.raises(NotAComplexError):
        floer.hf_ranks(fc)


def test_strip_area_matches_action_drop(torus_run):
    f, m, run = torus_run
    for c in run.counts:
        for traj in c.representatives:
            [w] = floer.strip_area_check(f, m, [traj], epsilon=0.05, points=run.points)
            assert w.agrees
            rel = abs(w.quadrature - w.analytic) / (1.0 + abs(w.analytic))
            assert rel < 1e-6
            assert w.analytic > 0  # flow goes downhill, the strip has area


def test_strip_area_scales_linearly_in_epsilon(torus_run):
    f, m, run = torus_run
    traj = run.counts[0].representatives[0]
    [w1] = floer.strip_area_check(f, m, [traj], epsilon=0.05, points=run.points)
    [w2] = floer.strip_area_check(f, m, [traj], epsilon=0.10, points=run.points)
    assert math.isclose(w2.analytic, 2.0 * w1.analytic, rel_tol=1e-12)
    assert math.isclose(w2.quadrature, 2.0 * w1.quadrature, rel_tol=1e-9)


def test_strip_area_constant_trajectory_is_zero(torus_run):
    f, m, run = torus_run
    mx = next(p for p in run.points if p.index == 2)
    traj = flow.integrate(f, m, mx.location, flow.capture_lookup(m, run.points), t_max=5.0)
    [w] = floer.strip_area_check(f, m, [traj], epsilon=0.05, points=run.points)
    assert w.analytic == 0.0 and w.quadrature == 0.0 and w.agrees


def test_strip_area_rejects_unresolved(torus_run):
    f, m, run = torus_run
    traj = flow.Trajectory(times=(0.0, 1.0), points=((0.2, 0.2), (0.3, 0.3)),
                           source_label=None, sink_label=None, energy=0.5)
    with pytest.raises(QuadratureFailureError):
        floer.strip_area_check(f, m, [traj], epsilon=0.05, points=run.points)


def test_epsilon_must_scale_exponents(torus_run):
    _, _, run = torus_run
    fc1 = floer.build_floer_complex(run.points, run.counts, epsilon=0.05)
    fc2 = floer.build_floer_complex(run.points, run.counts, epsilon=0.10)
    assert fc1.epsilon == 0.05 and fc2.epsilon == 0.10
    # torus counts are all even, so both differentials vanish and the lift
    # is determined by epsilon alone
    assert all(e.is_zero for fc in (fc1, fc2) for rows in fc.matrices.values()
               for row in rows for e in row)


def test_arnold_bound_from_morse_ranks(torus_run):
    _, _, run = torus_run
    assert floer.arnold_bound(run.ranks) == 4


def test_strip_area_constant_partials_broadcast():
    # every partial of x3 is a float constant; the poles differ by f = 2
    f = ScalarField.from_text("x3", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    top = next(p for p in pts if p.index == 2)
    traj = flow.integrate(f, m, (0.01, 0.0, 1.0), flow.capture_lookup(m, pts), source_label=top.id)
    [w] = floer.strip_area_check(f, m, [traj], epsilon=0.05, points=pts)
    assert w.analytic == pytest.approx(0.1, abs=1e-15)
    assert abs(w.quadrature - 0.1) <= 1e-12


def test_strip_gradient_fault_at_hermite_node_is_domain_error():
    # f is defined for x1 >= 0.1 only; the samples are inside, but the cubic
    # through them dips to x1 ~ 0.02 at the quarter node of the middle segment
    f = ScalarField.from_text("x1 + sqrt(x1 - 0.1)", 1)
    m = geometry.parse_manifold("circle")
    pts = [critpoint.CriticalPoint(location=(x,), index=i, eigenvalues=(), residual=0.0,
                                   nondegenerate=True, value=f.value((x,)), id=i)
           for i, x in enumerate((0.105, 0.3))]
    traj = flow.Trajectory(times=[0.0, 2.0], points=[(0.2,), (0.11,)],
                           source_label=1, sink_label=0, energy=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            floer.strip_area_check(f, m, [traj], epsilon=0.05, points=pts)


def test_overflowing_action_drop_is_domain_error(circle_run):
    f, m, run = circle_run
    with pytest.raises(DomainError):
        floer.build_floer_complex(run.points, run.counts, epsilon=1.7e308)
    traj = run.counts[0].representatives[0]
    with pytest.raises(DomainError):
        floer.strip_area_check(f, m, [traj], epsilon=1.7e308, points=run.points)


def test_strip_area_coarse_trajectory_fails_quadrature(torus_run):
    f, m, run = torus_run
    top = next(p for p in run.points if p.index == 2)
    bottom = next(p for p in run.points if p.index == 0)
    traj = flow.Trajectory(times=[0.0, 0.1, 0.2],
                           points=[(0.05, 0.05), (0.25, 0.25), (0.45, 0.45)],
                           source_label=top.id, sink_label=bottom.id, energy=0.0)
    with pytest.raises(QuadratureFailureError):
        floer.strip_area_check(f, m, [traj], epsilon=0.05, points=run.points)


# --- one pass over every representative ---------------------------------------

def _reference_nearest_lift(m, cp, anchor):
    if m.kind == "torus":
        c = np.asarray(cp.location)
        return c + np.round(np.asarray(anchor) - c)
    u = geometry.working_point(m, cp.location)
    if m.kind == "projective" and float(np.dot(np.asarray(anchor), u)) < 0.0:
        return -u
    return u


def _reference_value(f, m, cp):
    if m.kind == "torus":
        return f.value(cp.location)
    return f.value(geometry.working_point(m, cp.location))


def _reference_strip(f, m, traj, epsilon, points):
    """One trajectory's strip check on its own: the routine the one-pass
    strip_area_check must equal bit for bit."""
    src, snk = points[traj.source_label], points[traj.sink_label]
    analytic = float(epsilon * (_reference_value(f, m, src) - _reference_value(f, m, snk)))
    if len(traj.points) == 1:
        return floer.ActionWeight(src.id, snk.id, analytic, 0.0, epsilon)
    samples = np.array(traj.points, dtype=float)
    h = np.diff(traj.times)[:, None]
    head = _reference_nearest_lift(m, src, samples[0])
    tail = _reference_nearest_lift(m, snk, samples[-1])
    d0, d1 = samples[0] - head, tail - samples[-1]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        derivs = flow.array_rhs(f, m)(samples.T).T
        ends = np.stack([np.vstack([head, samples[:-1], samples[-1]]),
                         np.vstack([d0, h * derivs[:-1], d1]),
                         np.vstack([samples[0], samples[1:], tail]),
                         np.vstack([d0, h * derivs[1:], d1])])
        u = np.tensordot(floer._HERMITE, ends, axes=1)
        du = np.tensordot(floer._HERMITE_D, ends, axes=1)
        grad = f.array_gradient(*u.T)
        v0, v1, v2, v3, v4 = sum(g * d for g, d in zip(grad, du.T)).T
    fine = np.sum((v0 + 4.0 * v1 + 2.0 * v2 + 4.0 * v3 + v4) / 12.0)
    return floer.ActionWeight(src.id, snk.id, analytic, -epsilon * float(fine), epsilon)


def _assert_equals_reference(f, m, trajs, points):
    got = floer.strip_area_check(f, m, trajs, epsilon=0.05, points=points)
    want = [_reference_strip(f, m, traj, 0.05, points) for traj in trajs]
    assert len(got) == len(want)
    for w, r in zip(got, want):
        assert (w.source, w.sink) == (r.source, r.sink)
        assert w.analytic == r.analytic
        assert w.quadrature == r.quadrature
        assert w.agrees


@pytest.mark.parametrize("text, dim, name, grid", [
    ("cos(2*pi*x1) + cos(2*pi*x2) + 0.0731*cos(2*pi*(x1 + x2))", 2, "torus2", None),
    ("(0.800000*x2^2 + 1.920000*x3^2 - 0.016000*x2*x3)/(x1^2 + x2^2 + x3^2)", 3, "rp2", None),
    *[(f"cos(2*pi*{k}*x1) + 0.2*sin(2*pi*x1)", 1, "circle", 8 * k) for k in (1, 7, 16)],
])
def test_strip_pass_equals_reference_on_every_representative(text, dim, name, grid):
    f = ScalarField.from_text(text, dim)
    m = geometry.parse_manifold(name)
    run = pipeline.run_morse(f, m, grid=grid)
    trajs = [traj for c in run.counts for traj in c.representatives]
    assert trajs
    _assert_equals_reference(f, m, trajs, run.points)


def test_strip_pass_equals_reference_on_sphere_x3():
    # x3 has no index-1 point, so its strips come from flows off the top pole,
    # one of them the constant trajectory at the pole itself
    f = ScalarField.from_text("x3", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    top = next(p for p in pts if p.index == 2)
    trajs = [flow.integrate(f, m, start, flow.capture_lookup(m, pts), source_label=top.id)
             for start in ((0.01, 0.0, 1.0), top.location, (-0.02, 0.03, 1.0))]
    assert [len(t.points) == 1 for t in trajs] == [False, True, False]
    _assert_equals_reference(f, m, trajs, pts)


def test_strip_pass_refuses_an_unresolved_second_trajectory(torus_run):
    f, m, run = torus_run
    good = run.counts[0].representatives[0]
    loose = flow.Trajectory(times=[0.0, 1.0], points=[(0.2, 0.2), (0.3, 0.3)],
                            source_label=good.source_label, sink_label=None, energy=0.5)
    with pytest.raises(QuadratureFailureError):
        floer.strip_area_check(f, m, [good, loose], epsilon=0.05, points=run.points)


def test_strip_pass_of_no_trajectories_is_empty(torus_run):
    f, m, run = torus_run
    assert floer.strip_area_check(f, m, [], epsilon=0.05, points=run.points) == []


@pytest.mark.parametrize("run_name", ["torus_run", "circle_run"])
def test_lift_and_strips_read_no_value_of_f(request, monkeypatch, run_name):
    # the critical values live on the points: with f's value unavailable the
    # lift and every strip check come out the same
    f, m, run = request.getfixturevalue(run_name)
    reps = [traj for c in run.counts for traj in c.representatives]
    assert reps
    fc = floer.build_floer_complex(run.points, run.counts, epsilon=0.05)
    weights = floer.strip_area_check(f, m, reps, epsilon=0.05, points=run.points)

    def no_value(point):
        raise AssertionError("f was evaluated")
    monkeypatch.setattr(f, "value", no_value)
    assert floer.build_floer_complex(run.points, run.counts, epsilon=0.05) == fc
    assert floer.strip_area_check(f, m, reps, epsilon=0.05, points=run.points) == weights
