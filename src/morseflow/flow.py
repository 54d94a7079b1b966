"""Negative gradient flow and mod-2 counting of connecting trajectories.

Integration runs an embedded Dormand-Prince 4/5 pair at relative
tolerance 1e-9 on dx/dt = -metric^{-1} df.  Torus trajectories are kept
unwrapped (raw chart coordinates, reduced mod 1 only for distance tests)
and sphere / projective trajectories live on the unit sphere in ambient
coordinates with a tangent re-projection and renormalization each step;
for RP^n the unit sphere is the double cover, a local isometry of the
round quotient, so flow lines downstairs are exactly the projected ones.

A trajectory acquires its sink label when it enters the capture ball
(radius 1e-4) of a critical point and stays there for 10 consecutive
accepted steps; the dwell requirement prevents false capture during a
slow pass near a saddle.

Counting M(f; p, q) for index difference one: the unstable sphere of an
index-1 point is two antipodal seeds, and each seed trajectory is itself
a candidate connecting orbit, so from an index-1 source the raw count is
the number of seeds sinking at q.  M(f; p, q) is M(-f; q, p) run
backwards, and under -f a point of index k has index n - k (Milnor,
Lectures on the h-cobordism theorem, 1965), so a pair of index (n, n-1)
is counted from q under -f and its representatives are reversed.  On
n <= 2 every pair has such an index-1 end; a pair of index (k, k-1) with
2 <= k <= n-1 has none and is refused.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import geometry
from .critpoint import CriticalPoint, find_critical_points, hessian_in_frame
from .errors import (
    DomainError,
    IndexGapError,
    NoConvergenceError,
    ResolutionWarning,
    SourceIndexError,
    StepCollapseError,
)
from .funcexpr import EVAL_ERRORS, Neg, ScalarField

RTOL = 1e-9
ATOL = 1e-12
CAPTURE_RADIUS = 1e-4
CAPTURE_DWELL = 10
SEED_EPS = 1e-3
T_MAX_DEFAULT = 200.0
H_MAX = 1.0
# step budget per unit of t_max (at least 10 units); the slowest trajectories
# in the tests take 110, a step chattering across a kink of the field 1e11
STEPS_PER_TIME = 1000


@dataclass
class Trajectory:
    times: list
    points: list             # raw working coordinates (tuples)
    f_values: list
    source_label: int | None
    sink_label: int | None
    energy: float


@dataclass
class ConnectionCount:
    source: int
    sink: int
    count_mod2: int
    raw_count: int
    representatives: list = dataclass_field(default_factory=list)
    flagged: bool = False


# --- right-hand side ---------------------------------------------------------

def make_rhs(field: ScalarField, m: geometry.ManifoldModel):
    """Compiled callable y -> dy/dt = -metric^{-1} grad f as a tuple.

    Calls field._grad directly; evaluation failures become DomainError."""
    rhs = _rhs(field._grad, m)

    def checked(y):
        try:
            return rhs(y)
        except EVAL_ERRORS as exc:
            raise DomainError(f"gradient evaluation failed: {exc}", y) from exc
    return checked


def _rhs(grad, m: geometry.ManifoldModel):
    """y -> -metric^{-1} grad(*y) as a tuple; y holds floats or numpy rows."""
    if m.kind == "torus":
        neg_inv = tuple(-1.0 / d for d in (m.metric_diag or (1.0,) * m.n))
        return lambda y: tuple(c * g for c, g in zip(neg_inv, grad(*y)))

    def rhs(y):
        g = grad(*y)
        dot = 0.0
        for gi, yi in zip(g, y):
            dot = dot + gi * yi
        return tuple(-(gi - dot * yi) for gi, yi in zip(g, y))
    return rhs


def array_rhs(field: ScalarField, m: geometry.ManifoldModel):
    """Y -> dY/dt as an array, by the `_rhs` formula on each column of Y.

    Uses the numpy gradient; constant partials broadcast over the columns.
    Callers set the np.errstate under which faults raise."""
    rhs = _rhs(field.array_gradient, m)

    def f(Y):
        K = np.empty_like(Y)
        for i, k in enumerate(rhs(Y)):
            K[i] = k
        return K
    return f


# --- capture targets ----------------------------------------------------------

def _capture_targets(m: geometry.ManifoldModel, points: list[CriticalPoint]):
    targets = []
    for cp in points:
        if m.kind == "projective":
            u = geometry.unit_lift(m, cp.location)
            targets.append((cp.id, (tuple(u), tuple(-u))))
        else:
            targets.append((cp.id, (tuple(cp.location),)))
    return targets


def _target_distance(m: geometry.ManifoldModel, y, reps) -> float:
    torus = m.kind == "torus"
    best = math.inf
    for c in reps:
        s = 0.0
        for yi, ci in zip(y, c):
            d = yi - ci
            if torus:
                d = abs(d) % 1.0
                if d > 0.5:
                    d = 1.0 - d
            s += d * d
        if s < best:
            best = s
    return math.sqrt(best)


def _capture_lookup(m: geometry.ManifoldModel, points: list[CriticalPoint]):
    """y -> id of the first point (in list order) whose capture ball holds y.

    Gives what testing every point in turn gives, but measures only the
    representatives whose first coordinate (mod 1 on the torus) lies within
    2 * CAPTURE_RADIUS of y's: no point of a ball is farther than its radius
    from the centre in any one coordinate."""
    torus = m.kind == "torus"
    targets = _capture_targets(m, points)
    reps = sorted((c[0] % 1.0 if torus else c[0], k, c)
                  for k, (_, cs) in enumerate(targets) for c in cs)
    keys = [key for key, _, _ in reps]
    w = 2.0 * CAPTURE_RADIUS

    def lookup(y):
        y0 = y[0] % 1.0 if torus else y[0]
        windows = [y0]
        if torus and y0 < w:        # balls across the 0 / 1 seam
            windows.append(y0 + 1.0)
        if torus and y0 > 1.0 - w:
            windows.append(y0 - 1.0)
        first = None
        for x in windows:
            for _, k, c in reps[bisect_left(keys, x - w):bisect_right(keys, x + w)]:
                if (first is None or k < first) and \
                        _target_distance(m, y, (c,)) < CAPTURE_RADIUS:
                    first = k
        return None if first is None else targets[first][0]
    return lookup


# --- Dormand-Prince 5(4) -------------------------------------------------------

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate(field: ScalarField, m: geometry.ManifoldModel, start,
              t_max: float = T_MAX_DEFAULT, points: list[CriticalPoint] | None = None,
              source_label: int | None = None) -> Trajectory:
    """Flow `start` down the negative gradient until capture.

    Raises NoConvergenceError (with the partial trajectory attached) when
    t_max elapses before any capture ball claims the endpoint, and
    StepCollapseError when the adaptive step underflows or when
    STEPS_PER_TIME * max(t_max, 10) steps do not reach t_max.
    """
    if points is None:
        points = find_critical_points(field, m)
    if m.kind == "torus":
        y = tuple(float(v) for v in np.atleast_1d(np.asarray(start, dtype=float)))
    else:
        y = tuple(float(v) for v in geometry.unit_lift(m, start))
    rhs = make_rhs(field, m)
    capture = _capture_lookup(m, points)
    dim = len(y)
    rng = tuple(range(dim))

    fval = field.value
    traj = Trajectory([0.0], [y], [fval(y)], source_label, None, 0.0)

    # immediate capture: constant trajectory, sink = source
    cid = capture(y)
    if cid is not None:
        traj.sink_label = cid
        if traj.source_label is None:
            traj.source_label = cid
        return traj

    t = 0.0
    h = 1e-3
    k1 = rhs(y)
    dwell_id, dwell = None, 0
    steps, max_steps = 0, STEPS_PER_TIME * max(t_max, 10.0)
    while t < t_max:
        h = min(h, H_MAX, t_max - t)
        steps += 1
        if h < 1e-14 * max(1.0, abs(t)) or steps > max_steps:
            raise StepCollapseError(f"step size collapsed at t={t} after {steps - 1} steps")
        ks = [k1]
        for s in range(1, 7):
            a = _A[s]
            yy = list(y)
            for j in range(s):
                aj = a[j]
                if aj != 0.0:
                    kj = ks[j]
                    for i in rng:
                        yy[i] += h * aj * kj[i]
            ks.append(rhs(tuple(yy)))
        y_new = tuple(yy)  # stage 7 state is the 5th order solution (FSAL)
        k7 = ks[6]

        err = 0.0
        for i in rng:
            e = 0.0
            for j in range(7):
                ej = _E[j]
                if ej != 0.0:
                    e += ej * ks[j][i]
            e *= h
            sc = ATOL + RTOL * max(abs(y[i]), abs(y_new[i]))
            r = e / sc
            err += r * r
        err = math.sqrt(err / dim)

        if err <= 1.0:
            t += h
            if m.kind != "torus":
                r = math.sqrt(sum(v * v for v in y_new))
                y_new = tuple(v / r for v in y_new)
                k1 = rhs(y_new)
            else:
                k1 = k7
            y = y_new
            traj.times.append(t)
            traj.points.append(y)
            traj.f_values.append(fval(y))

            hit = capture(y)
            if hit is None:
                dwell_id, dwell = None, 0
            elif hit == dwell_id:
                dwell += 1
            else:
                dwell_id, dwell = hit, 1
            if dwell >= CAPTURE_DWELL:
                traj.sink_label = dwell_id
                traj.energy = traj.f_values[0] - traj.f_values[-1]
                return traj

        fac = 0.9 * err ** -0.2 if err > 1e-30 else 5.0
        h *= min(5.0, max(0.2, fac))

    traj.energy = traj.f_values[0] - traj.f_values[-1]
    raise NoConvergenceError(f"no capture within t_max={t_max}", trajectory=traj)


# --- seeds of an index-1 point --------------------------------------------------

def _unstable_direction(field: ScalarField, m: geometry.ManifoldModel,
                        p: CriticalPoint) -> np.ndarray:
    """Eigenvector of the one negative Hessian eigenvalue of p, sign fixed."""
    if p.index != 1:
        raise SourceIndexError(f"point {p.id} has index {p.index}: seed scans need index 1")
    w, V = np.linalg.eigh(hessian_in_frame(field, m, p.location))
    if np.count_nonzero(w < 0.0) != 1:
        raise SourceIndexError(
            f"negative eigenspace dimension {np.count_nonzero(w < 0.0)} != index 1")
    v = V[:, 0].copy()  # eigh sorts ascending
    for x in v:  # deterministic sign fix
        if abs(x) > 1e-8:
            return -v if x < 0 else v
    return v


def _seed_states(m: geometry.ManifoldModel, p: CriticalPoint, v: np.ndarray) -> np.ndarray:
    """Working coordinates SEED_EPS from p towards v and towards -v, one row each."""
    dirs = np.array([v, -v])
    if m.kind == "torus":
        return np.asarray(p.location) + SEED_EPS * dirs
    u = geometry.unit_lift(m, p.location)
    w = u + SEED_EPS * (dirs @ geometry.tangent_frame(m, u).T)
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _scan(field, m, p, points, t_max):
    """The two seed trajectories of index-1 p's unstable sphere.

    A seed that t_max stops before capture keeps its partial trajectory,
    sink None."""
    trajs = []
    for start in _seed_states(m, p, _unstable_direction(field, m, p)):
        try:
            trajs.append(integrate(field, m, start, t_max=t_max, points=points,
                                   source_label=p.id))
        except NoConvergenceError as exc:
            trajs.append(exc.trajectory)
    return trajs


def _source_counts(field, m, p, sinks, points, t_max):
    """ConnectionCount from index-1 p to each of `sinks`: p's seeds sinking there."""
    trajs = _scan(field, m, p, points, t_max)
    flagged = False
    for traj in trajs:
        if traj.sink_label is None:
            flagged = True
            warnings.warn(f"seed trajectory from index-1 point {p.id} unresolved",
                          ResolutionWarning)
    out = []
    for q in sinks:
        reps = [traj for traj in trajs if traj.sink_label == q.id]
        out.append(ConnectionCount(source=p.id, sink=q.id, count_mod2=len(reps) % 2,
                                   raw_count=len(reps), representatives=reps,
                                   flagged=flagged))
    return out


# --- counting from the index-1 end -------------------------------------------------

def _reversed(traj: Trajectory) -> Trajectory:
    """A -f trajectory as the f trajectory it runs backwards."""
    end = traj.times[-1]
    return Trajectory(times=[end - t for t in reversed(traj.times)],
                      points=traj.points[::-1],
                      f_values=[-v for v in reversed(traj.f_values)],
                      source_label=traj.sink_label, sink_label=traj.source_label,
                      energy=traj.energy)


def _count_pairs(field, m, pairs, points, t_max):
    """ConnectionCount of each (p, q) in `pairs`, counted from an index-1 end.

    Pairs of index (1, 0) are counted from p under f, pairs of index (n, n-1)
    from q under -f; any other pair has no index-1 end and is refused before
    anything flows."""
    for p, q in pairs:
        if p.index not in (1, m.n):
            raise SourceIndexError(
                f"pair {p.id} -> {q.id} on {m.name} has source index {p.index} under f "
                f"and {m.n - q.index} under -f; counting needs an index-1 source")
    if points is None:
        points = find_critical_points(field, m)
    direct, dual = {}, {}  # index-1 end -> the other ends
    for p, q in pairs:
        if p.index == 1:
            direct.setdefault(p.id, (p, []))[1].append(q)
        else:
            dual.setdefault(q.id, (q, []))[1].append(p)
    found = {}
    for p, sinks in direct.values():
        for c in _source_counts(field, m, p, sinks, points, t_max):
            found[c.source, c.sink] = c
    if dual:
        neg = ScalarField(Neg(field.expr), field.dim)
        flip = {p.id: replace(p, index=m.n - p.index) for p in points}
        for q, sources in dual.values():
            for c in _source_counts(neg, m, flip[q.id], [flip[p.id] for p in sources],
                                    list(flip.values()), t_max):
                found[c.sink, c.source] = ConnectionCount(
                    source=c.sink, sink=c.source, count_mod2=c.count_mod2,
                    raw_count=c.raw_count, flagged=c.flagged,
                    representatives=[_reversed(traj) for traj in c.representatives])
    return [found[p.id, q.id] for p, q in pairs]


def count_connecting(field: ScalarField, m: geometry.ManifoldModel,
                     p: CriticalPoint, q: CriticalPoint,
                     points: list[CriticalPoint] | None = None,
                     t_max: float = T_MAX_DEFAULT) -> ConnectionCount:
    """Mod-2 count of negative gradient trajectories from p down to q."""
    if p.index - q.index != 1:
        raise IndexGapError(
            f"index gap {p.index}-{q.index} != 1: moduli space is not rigid")
    return _count_pairs(field, m, [(p, q)], points, t_max)[0]


def connection_counts(field: ScalarField, m: geometry.ManifoldModel,
                      points: list[CriticalPoint],
                      t_max: float = T_MAX_DEFAULT) -> list[ConnectionCount]:
    """Connection counts for every ordered pair with index difference one,
    by source, then by sink, in point order."""
    pairs = [(p, q) for p in points for q in points if p.index - q.index == 1]
    return _count_pairs(field, m, pairs, points, t_max)
