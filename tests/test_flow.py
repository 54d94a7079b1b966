"""Gradient flow integration and mod-2 trajectory counting.

Golden values: on the double-cosine torus every index gap equals one and
each of the four source/sink pairs is joined by exactly two flow lines;
on the height-function sphere the poles differ by index two and counting
must refuse.  Counts must not depend on a constant rescaling of the flat
metric.  Pairs of index (2, 1) are counted from the saddle under -f, and
their representatives are -f trajectories run backwards.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow import critpoint, floer, flow, geometry, pipeline
from morseflow.errors import (
    DomainError,
    IndexGapError,
    NoConvergenceError,
    ResolutionWarning,
    SourceIndexError,
    StepCollapseError,
)
from morseflow.funcexpr import ScalarField


@pytest.fixture(scope="module")
def torus():
    f = ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2)", 2)
    m = geometry.torus(2)
    pts = critpoint.find_critical_points(f, m)
    return f, m, pts


@pytest.fixture(scope="module")
def sphere():
    f = ScalarField.from_text("x3", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    return f, m, pts


def test_integrate_torus_segment(torus):
    f, m, pts = torus
    traj = flow.integrate(f, m, (0.25, 0.5), t_max=200.0, points=pts)
    minimum = next(p for p in pts if p.index == 0)
    assert traj.sink_label == minimum.id
    assert geometry.distance(m, traj.points[-1], (0.5, 0.5)) < 1e-3


def test_f_monotone_and_energy_positive(torus):
    f, m, pts = torus
    traj = flow.integrate(f, m, (0.23, 0.41), t_max=200.0, points=pts)
    vals = np.array(traj.f_values)
    assert np.all(np.diff(vals) <= 1e-9)
    assert traj.energy > 0
    assert abs(traj.energy - (vals[0] - vals[-1])) < 1e-9


def test_start_at_critical_point_is_constant(torus):
    f, m, pts = torus
    mx = next(p for p in pts if p.index == 2)
    traj = flow.integrate(f, m, mx.location, t_max=10.0, points=pts)
    assert traj.sink_label == mx.id
    assert len(traj.points) == 1
    assert traj.energy == 0.0


def test_integrate_sphere_equator_to_south(sphere):
    f, m, pts = sphere
    traj = flow.integrate(f, m, (1.0, 0.0, 0.0), t_max=200.0, points=pts)
    south = next(p for p in pts if p.index == 0)
    assert traj.sink_label == south.id
    for y in traj.points:  # stays on the sphere
        assert abs(np.linalg.norm(y) - 1.0) < 1e-8


def scan(f, m, p, pts):
    return flow._scan(f, m, p, pts, flow.T_MAX_DEFAULT)


def test_basin_scan_index1_two_seeds(torus):
    f, m, pts = torus
    saddle = next(p for p in pts if p.index == 1)
    minimum = next(p for p in pts if p.index == 0)
    out = scan(f, m, saddle, pts)
    assert len(out) == 2
    assert all(traj.sink_label == minimum.id for traj in out)


def test_basin_scan_index2_all_reach_minimum(torus):
    # a 64-seed circle around the maximum, flowed one seed at a time
    f, m, pts = torus
    mx = next(p for p in pts if p.index == 2)
    minimum = next(p for p in pts if p.index == 0)
    sinks = []
    for k in range(32):
        v = np.array([np.cos(np.pi * k / 32), np.sin(np.pi * k / 32)])
        for start in flow._seed_states(m, mx, v):
            sinks.append(flow.integrate(f, m, start, points=pts).sink_label)
    assert len(sinks) == 64
    # almost every seed drains to the minimum; a seed landing exactly on a
    # separatrix is captured by the saddle it runs into
    saddle_ids = {p.id for p in pts if p.index == 1}
    assert sinks.count(minimum.id) >= 60
    assert set(sinks) <= {minimum.id} | saddle_ids


def test_basin_scan_rejects_index0(torus):
    f, m, pts = torus
    minimum = next(p for p in pts if p.index == 0)
    with pytest.raises(SourceIndexError):
        scan(f, m, minimum, pts)


def test_count_golden_values(torus):
    f, m, pts = torus
    by_index = {}
    for p in pts:
        by_index.setdefault(p.index, []).append(p)
    mx = by_index[2][0]
    minimum = by_index[0][0]
    for saddle in by_index[1]:
        c = flow.count_connecting(f, m, saddle, minimum, points=pts)
        assert (c.raw_count, c.count_mod2) == (2, 0)
        c2 = flow.count_connecting(f, m, mx, saddle, points=pts)
        assert (c2.raw_count, c2.count_mod2) == (2, 0)
        assert not c.flagged and not c2.flagged


def test_representatives_end_at_counted_sink(torus):
    f, m, pts = torus
    counts = flow.connection_counts(f, m, pts)
    assert len(counts) == 4
    for c in counts:
        assert len(c.representatives) == c.raw_count
        for t in c.representatives:
            assert t.source_label == c.source
            assert t.sink_label == c.sink
            assert pts[c.source].index - pts[c.sink].index == 1
            assert t.energy > 0


def test_count_connecting_matches_connection_counts(torus):
    # both entry points share one per-source counting path
    f, m, pts = torus
    table = {(c.source, c.sink): c for c in flow.connection_counts(f, m, pts)}
    saddle = next(p for p in pts if p.index == 1)
    mx = next(p for p in pts if p.index == 2)
    for p, q in ((saddle, pts[0]), (mx, saddle)):
        single = flow.count_connecting(f, m, p, q, points=pts)
        full = table[(p.id, q.id)]
        assert (single.raw_count, single.count_mod2, single.flagged) == \
            (full.raw_count, full.count_mod2, full.flagged)
        assert [t.points for t in single.representatives] == \
            [t.points for t in full.representatives]


def test_index_gap_two_refused(sphere):
    f, m, pts = sphere
    south, north = pts
    with pytest.raises(IndexGapError):
        flow.count_connecting(f, m, north, south, points=pts)


def test_counts_deterministic(torus):
    f, m, pts = torus
    a = flow.connection_counts(f, m, pts)
    b = flow.connection_counts(f, m, pts)
    for ca, cb in zip(a, b):
        assert (ca.source, ca.sink, ca.raw_count) == (cb.source, cb.sink, cb.raw_count)
        assert ca.representatives[0].points == cb.representatives[0].points


def test_ranks_independent_of_metric_scale():
    # same field, flat metric stretched in x2: flow lines bend but the
    # counts and homology must agree with the round case
    f = ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2)", 2)
    m = geometry.torus(2, metric_diag=(1.0, 1.3))
    run = pipeline.run_morse(f, m)
    assert run.ranks.by_degree == (1, 2, 1)
    assert all(c.raw_count == 2 for c in run.counts)


def test_rp2_counts(torus):
    f = ScalarField.from_text("(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", 3)
    m = geometry.projective(2)
    pts = critpoint.find_critical_points(f, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = flow.connection_counts(f, m, pts)
    table = {(c.source, c.sink): c.raw_count for c in counts}
    assert table == {(1, 0): 2, (2, 1): 2}


def _counts_by_location(text):
    f = ScalarField.from_text(text, 2)
    m = geometry.torus(2)
    pts = critpoint.find_critical_points(f, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        counts = flow.connection_counts(f, m, pts)
    return {(pts[c.source].location, pts[c.sink].location): c for c in counts}


def test_double_frequency_torus_counts():
    # each maximum reaches the saddle half a period away along x2 twice (once
    # each way round), the saddles a quarter period away along x1 once each,
    # and the fourth saddle not at all
    table = _counts_by_location("cos(2*pi*2*x1) + cos(2*pi*x2)")
    assert len(table) == 16
    assert not any(c.flagged for c in table.values())
    for mx, above, far in (((0.0, 0.0), (0.0, 0.5), (0.5, 0.5)),
                           ((0.5, 0.0), (0.5, 0.5), (0.0, 0.5))):
        raw = {q: table[mx, q].raw_count for q in (above, (0.25, 0.0), (0.75, 0.0), far)}
        assert raw == {above: 2, (0.25, 0.0): 1, (0.75, 0.0): 1, far: 0}


def test_skewed_torus_counts_not_flagged():
    table = _counts_by_location("cos(2*pi*x1) + 0.5*cos(2*pi*x2) + 0.2*cos(2*pi*(x1+x2))")
    assert len(table) == 4
    assert all(c.raw_count == 2 and not c.flagged for c in table.values())


@pytest.mark.parametrize("text,dim,m", [
    ("cos(2*pi*x1) + cos(2*pi*x2) + 0.061803*cos(2*pi*(x1 + x2))", 2, geometry.torus(2)),
    ("(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", 3, geometry.projective(2)),
])
def test_reversed_representatives_run_from_p_to_q(text, dim, m):
    f = ScalarField.from_text(text, dim)
    pts = critpoint.find_critical_points(f, m)
    top = [c for c in flow.connection_counts(f, m, pts) if pts[c.source].index == m.n]
    assert top and all(c.raw_count == 2 for c in top)
    for c in top:
        for traj in c.representatives:
            assert (traj.source_label, traj.sink_label) == (c.source, c.sink)
            assert traj.times[0] == 0.0 and np.all(np.diff(traj.times) > 0)
            assert np.all(np.diff(traj.f_values) <= 1e-9)
            assert floer.strip_area_check(f, m, traj, points=pts).agrees


def test_middle_pair_refused_before_any_flow(monkeypatch):
    f = ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2) + cos(2*pi*x3)", 3)
    m = geometry.parse_manifold("torusN:3")
    pts = critpoint.find_critical_points(f, m)

    def no_flow(*args, **kwargs):
        raise AssertionError("integrate called before the refusal")
    monkeypatch.setattr(flow, "integrate", no_flow)
    with pytest.raises(SourceIndexError):
        flow.connection_counts(f, m, pts)


def test_classify_division_by_zero_is_domain_error():
    # integrate classifies a start by its sink; a gradient that divides by
    # zero on the way is a DomainError, not a warning or a NaN sink
    f = ScalarField.from_text("x3 + 0.1*sqrt(x1^2)", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            flow.integrate(f, m, (0.0, 0.6, 0.8), points=pts)  # on x1 = 0


def test_flow_along_a_kink_collapses_within_the_step_budget():
    # from x1 = 0.3 the flow reaches the kink x1 = 0 near t = 3.3; across it
    # the error control holds the step near 1e-11, far above the underflow
    # floor, and t = 5 would take some 1e11 steps
    f = ScalarField.from_text("x3 + 0.1*sqrt(x1^2)", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    with pytest.raises(StepCollapseError, match=r"at t=3\.2.* after 10000 steps"):
        flow.integrate(f, m, (0.3, 0.5, 0.8), t_max=5.0, points=pts)


def _points(locations):
    return [critpoint.CriticalPoint(location=tuple(loc), index=0, eigenvalues=(),
                                    residual=0.0, nondegenerate=True, id=i)
            for i, loc in enumerate(locations)]


# balls across the torus seam, overlapping balls (list order decides), and
# projective points whose two lifts share a first coordinate near 0
_LOOKUP_CASES = [
    (geometry.torus(2), _points([(0.0, 0.3), (0.99995, 0.7), (0.5, 0.5), (0.50012, 0.50005),
                                 (0.99993, 0.30002), (0.25, 0.99999), (0.99999, 0.9),
                                 (1e-5, 0.1)])),
    (geometry.projective(2), _points([(0.0, 0.6, 0.8), (3e-5, 0.8, -0.6), (0.6, 0.8, 0.0),
                                      (0.60008, 0.79994, 0.0), (1.0, 0.0, 0.0)])),
]


@settings(max_examples=1000, deadline=None)
@given(case=st.sampled_from(_LOOKUP_CASES), data=st.data())
def test_capture_lookup_matches_every_target_in_turn(case, data):
    m, pts = case
    targets = flow._capture_targets(m, pts)
    _, reps = targets[data.draw(st.integers(0, len(targets) - 1))]
    c = np.asarray(reps[data.draw(st.integers(0, len(reps) - 1))])
    scale = data.draw(st.sampled_from([flow.CAPTURE_RADIUS, 2 * flow.CAPTURE_RADIUS, 0.3]))
    y = c + np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=len(c),
                                        max_size=len(c))))
    if m.kind == "torus":
        y = y + np.array(data.draw(st.lists(st.integers(-3, 3), min_size=len(c),
                                            max_size=len(c))))
    y = tuple(float(v) for v in y)
    expected = next((cid for cid, rs in targets
                     if flow._target_distance(m, y, rs) < flow.CAPTURE_RADIUS), None)
    assert flow._capture_lookup(m, pts)(y) == expected


def _reference_rhs(grad, m):
    """-metric^{-1} grad f, tangent-projected off the torus, as a plain loop."""
    if m.kind == "torus":
        neg_inv = [-1.0 / d for d in (m.metric_diag or (1.0,) * m.n)]
        return lambda y: tuple(c * g for c, g in zip(neg_inv, grad(*y)))

    def rhs(y):
        g = grad(*y)
        dot = 0.0
        for gi, yi in zip(g, y):
            dot = dot + gi * yi
        return tuple(-(gi - dot * yi) for gi, yi in zip(g, y))
    return rhs


def _reference_integrate(field, m, y, points, t_max=flow.T_MAX_DEFAULT):
    """The textbook Dormand-Prince stage loop (times, points, f values), with
    integrate's step control, renormalisation off the torus and capture dwell."""
    rhs, capture = _reference_rhs(field._grad, m), flow._capture_lookup(m, points)
    times, ys, fs = [0.0], [y], [field.value(y)]
    t, h, k1, dwell_id, dwell = 0.0, 1e-3, rhs(y), None, 0
    while t < t_max and dwell < flow.CAPTURE_DWELL:
        h = min(h, flow.H_MAX, t_max - t)
        ks = [k1]
        for s in range(1, 7):
            yy = list(y)
            for j, aj in enumerate(flow._A[s]):
                if aj != 0.0:
                    for i in range(len(y)):
                        yy[i] += h * aj * ks[j][i]
            ks.append(rhs(tuple(yy)))
        y_new, err = tuple(yy), 0.0
        for i in range(len(y)):
            e = 0.0
            for j, ej in enumerate(flow._E):
                if ej != 0.0:
                    e += ej * ks[j][i]
            e *= h
            r = e / (flow.ATOL + flow.RTOL * max(abs(y[i]), abs(y_new[i])))
            err += r * r
        err = math.sqrt(err / len(y))
        if err <= 1.0:
            t += h
            if m.kind != "torus":
                r = math.sqrt(sum(v * v for v in y_new))
                y_new = tuple(v / r for v in y_new)
            y, k1 = y_new, (ks[6] if m.kind == "torus" else rhs(y_new))
            times.append(t)
            ys.append(y)
            fs.append(field.value(y))
            hit = capture(y)
            if hit is None:
                dwell_id, dwell = None, 0
            else:
                dwell_id, dwell = hit, dwell + 1 if hit == dwell_id else 1
        fac = 0.9 * err ** -0.2 if err > 1e-30 else 5.0
        h *= min(5.0, max(0.2, fac))
    return times, ys, fs


_TORUS2 = "cos(2*pi*x1) + cos(2*pi*x2)"


@pytest.mark.parametrize("m,text,start,grid", [
    (geometry.torus(2), _TORUS2, (0.23, 0.41), None),
    (geometry.torus(2, metric_diag=(1.0, 1.3)), _TORUS2, (0.23, 0.41), None),
    (geometry.sphere(2), "x3 + 0.3*x1*x2", (0.6, 0.0, 0.8), None),
    (geometry.projective(2), "(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", (0.6, 0.6, 0.5), None),
    (geometry.torus(1), "cos(2*pi*3*x1) + 0.2*sin(2*pi*x1)", (0.1,), 24),
    (geometry.parse_manifold("torusN:3"), _TORUS2 + " + cos(2*pi*x3)", (0.1, 0.2, 0.3), 8),
])
def test_compiled_step_is_bitwise_the_stage_loop(m, text, start, grid):
    f = ScalarField.from_text(text, m.ambient_dim)
    pts = critpoint.find_critical_points(f, m, grid)
    traj = flow.integrate(f, m, start, points=pts)
    y = tuple(float(v) for v in (start if m.kind == "torus" else geometry.unit_lift(m, start)))
    assert traj.sink_label is not None and len(traj.times) > 20
    assert (traj.times, traj.points, traj.f_values) == \
        _reference_integrate(f, m, y, pts)


@pytest.mark.parametrize("text,dim,m,start,calls,accepted", [
    (_TORUS2, 2, geometry.torus(2), (0.25, 0.5), 403, 65),
    (_TORUS2, 2, geometry.torus(2), (0.23, 0.41), 409, 68),
    ("x3", 3, geometry.sphere(2), (1.0, 0.0, 0.0), 1106, 157),
])
def test_every_stage_goes_through_make_rhs(monkeypatch, text, dim, m, start, calls, accepted):
    # a benchmark tracer counts RHS evaluations by wrapping what make_rhs
    # returns and derives rejected steps from the count: 1 + 6 per attempted
    # step, plus 1 per accepted step off the torus
    f = ScalarField.from_text(text, dim)
    pts = critpoint.find_critical_points(f, m)
    make_rhs, n = flow.make_rhs, [0]

    def counting_make_rhs(fld, mm):
        rhs = make_rhs(fld, mm)

        def counted(y):
            n[0] += 1
            return rhs(y)
        return counted
    monkeypatch.setattr(flow, "make_rhs", counting_make_rhs)
    traj = flow.integrate(f, m, start, points=pts)
    assert (n[0], len(traj.times) - 1) == (calls, accepted)


def test_stalled_seed_retired_long_before_t_max():
    # the 4-point grid misses 4 of the 12 critical points; a seed draining
    # towards a missed minimum is retired after STALL_STEPS slow steps
    f = ScalarField.from_text("cos(2*pi*3*x1) + cos(2*pi*x2)", 2)
    m = geometry.torus(2)
    pts = critpoint.find_critical_points(f, m, 4)
    stalled = []
    for p in pts:
        if p.index == 1:
            for start in flow._seed_states(m, p, flow._unstable_direction(f, m, p)):
                try:
                    flow.integrate(f, m, start, points=pts)
                except NoConvergenceError as exc:
                    stalled.append(exc)
    assert stalled and all("stalled" in str(exc) for exc in stalled)
    for exc in stalled:
        assert flow.STALL_STEPS < len(exc.trajectory.times) < 2 * flow.STALL_STEPS
        assert exc.trajectory.times[-1] < 20.0
