"""Gradient flow integration and mod-2 trajectory counting.

Golden values: on the double-cosine torus every index gap equals one and
each of the four source/sink pairs is joined by exactly two flow lines;
on the height-function sphere the poles differ by index two and counting
must refuse.  Counts must not depend on the scan resolution or on a
constant rescaling of the flat metric.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow import critpoint, flow, geometry, pipeline
from morseflow.errors import DomainError, IndexGapError, NoConvergenceError, SourceIndexError
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
    return flow._scan(f, m, p, flow._unstable_basis(f, m, p), 64, pts, flow.T_MAX_DEFAULT)


def test_basin_scan_index1_two_seeds(torus):
    f, m, pts = torus
    saddle = next(p for p in pts if p.index == 1)
    minimum = next(p for p in pts if p.index == 0)
    out = scan(f, m, saddle, pts)
    assert [prm for prm, _, _ in out] == [0.0, 0.5]
    assert all(key[0] == minimum.id for _, key, _ in out)


def test_basin_scan_index2_all_reach_minimum(torus):
    f, m, pts = torus
    mx = next(p for p in pts if p.index == 2)
    minimum = next(p for p in pts if p.index == 0)
    out = scan(f, m, mx, pts)
    assert len(out) == 64
    # almost every seed drains to the minimum; a seed landing exactly on a
    # separatrix is captured by the saddle it runs into
    saddle_ids = {p.id for p in pts if p.index == 1}
    for _, key, _ in out:
        assert key[0] == minimum.id or key[0] in saddle_ids


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


@pytest.mark.parametrize("res", [64, 128, 256, 512])
def test_counts_stable_across_scan_resolution(torus, res):
    f, m, pts = torus
    counts = flow.connection_counts(f, m, pts, scan_resolution=res)
    table = {(c.source, c.sink): (c.raw_count, c.count_mod2) for c in counts}
    assert set(table.values()) == {(2, 0)}
    assert len(table) == 4


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


@pytest.mark.parametrize("text,dim,m", [
    ("cos(2*pi*x1) + cos(2*pi*x2) + 0.061803*cos(2*pi*(x1 + x2))", 2, geometry.torus(2)),
    ("(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", 3, geometry.projective(2)),
])
def test_classify_matches_integrate(text, dim, m):
    # the batch steps every row as integrate steps it alone
    f = ScalarField.from_text(text, dim)
    pts = critpoint.find_critical_points(f, m)
    p = next(q for q in pts if q.index == 2)
    basis = flow._unstable_basis(f, m, p)
    starts = flow._seed_states(m, p, basis, [k / 64 for k in range(64)])
    sinks, ends = flow.classify(f, m, starts, pts)
    for start, sid, end in zip(starts, sinks, ends):
        try:
            traj = flow.integrate(f, m, start, points=pts)
        except NoConvergenceError as exc:
            traj = exc.trajectory
        assert flow._deck_key(m, sid, end, pts) == \
            flow._deck_key(m, traj.sink_label, traj.points[-1], pts)
        assert np.max(np.abs(end - np.asarray(traj.points[-1]))) <= 1e-12


def test_classify_division_by_zero_is_domain_error():
    f = ScalarField.from_text("x3 + 0.1*sqrt(x1^2)", 3)
    m = geometry.sphere(2)
    pts = critpoint.find_critical_points(f, m)
    starts = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])  # second row on x1 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            flow.classify(f, m, starts, pts)


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
