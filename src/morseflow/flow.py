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

Counting M(f; p, q) for index difference one:

* index(p) = 1: the unstable sphere is two antipodal seeds and each seed
  trajectory is itself a candidate connecting orbit, so the raw count is
  the number of seeds sinking at q.
* index(p) = 2: seeds sweep a circle of directions in the negative
  eigenspace.  Connections to q appear as boundaries between basin arcs.
  Because distinct arcs can share a sink (the four arcs around the torus
  maximum all drain to the same minimum, reached through different
  covering translates), arcs are distinguished by sink id plus a deck
  label: the integer winding offset of the unwrapped endpoint on the
  torus, the sign of the covering lift on RP^n.  Boundaries are refined
  by bisection to parameter tolerance 1e-10 (in turns) and attributed to
  the index-(lambda-1) point the limiting trajectory passes closest to.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field

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
from .funcexpr import EVAL_ERRORS, ScalarField

RTOL = 1e-9
ATOL = 1e-12
CAPTURE_RADIUS = 1e-4
CAPTURE_DWELL = 10
SEED_EPS = 1e-3
T_MAX_DEFAULT = 200.0
PARAM_TOL = 1e-10        # bisection tolerance on the seed parameter, in turns
SADDLE_ASSIGN_RADIUS = 1e-2
H_MAX = 1.0


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
    grad = field._grad
    if m.kind == "torus":
        inv = tuple(1.0 / d for d in (m.metric_diag or (1.0,) * m.n))
        rng = tuple(range(m.n))

        def rhs(y):
            try:
                g = grad(*y)
            except EVAL_ERRORS as exc:
                raise DomainError(f"gradient evaluation failed: {exc}", y) from exc
            return tuple(-inv[i] * g[i] for i in rng)
        return rhs

    rng = tuple(range(m.n + 1))

    def rhs(y):
        try:
            g = grad(*y)
        except EVAL_ERRORS as exc:
            raise DomainError(f"gradient evaluation failed: {exc}", y) from exc
        dot = 0.0
        for i in rng:
            dot += g[i] * y[i]
        return tuple(-(g[i] - dot * y[i]) for i in rng)
    return rhs


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
    if m.kind == "torus":
        best = None
        for c in reps:
            s = 0.0
            for yi, ci in zip(y, c):
                d = abs(yi - ci) % 1.0
                if d > 0.5:
                    d = 1.0 - d
                s += d * d
            best = s if best is None else min(best, s)
        return math.sqrt(best)
    best = None
    for c in reps:
        s = 0.0
        for yi, ci in zip(y, c):
            d = yi - ci
            s += d * d
        best = s if best is None else min(best, s)
    return math.sqrt(best)


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
    StepCollapseError when the adaptive step underflows.
    """
    if points is None:
        points = find_critical_points(field, m)
    if m.kind == "torus":
        y = tuple(float(v) for v in np.atleast_1d(np.asarray(start, dtype=float)))
    else:
        y = tuple(float(v) for v in geometry.unit_lift(m, start))
    rhs = make_rhs(field, m)
    targets = _capture_targets(m, points)
    dim = len(y)
    rng = tuple(range(dim))

    def fval(p):
        return field.value(p)

    traj = Trajectory([0.0], [y], [fval(y)], source_label, None, 0.0)

    # immediate capture: constant trajectory, sink = source
    for cid, reps in targets:
        if _target_distance(m, y, reps) < CAPTURE_RADIUS:
            traj.sink_label = cid
            if traj.source_label is None:
                traj.source_label = cid
            return traj

    t = 0.0
    h = 1e-3
    k1 = rhs(y)
    dwell_id, dwell = None, 0
    while t < t_max:
        h = min(h, H_MAX, t_max - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepCollapseError(f"step size underflow at t={t}")
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

            hit = None
            for cid, reps in targets:
                if _target_distance(m, y, reps) < CAPTURE_RADIUS:
                    hit = cid
                    break
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


# --- seed spheres ---------------------------------------------------------------

def _unstable_basis(field: ScalarField, m: geometry.ManifoldModel,
                    p: CriticalPoint) -> np.ndarray:
    """Columns: eigenvectors of the negative Hessian eigenvalues, ascending."""
    if p.index == 0:
        raise SourceIndexError(f"point {p.id} has index 0: no unstable directions")
    if p.index > 2:
        raise SourceIndexError(
            f"seed scans support source index 1 or 2, got {p.index}")
    H = hessian_in_frame(field, m, p.location)
    w, V = np.linalg.eigh(H)
    cols = []
    for i in range(len(w)):
        if w[i] < 0.0:
            v = V[:, i].copy()
            for x in v:  # deterministic sign fix
                if abs(x) > 1e-8:
                    if x < 0:
                        v = -v
                    break
            cols.append(v)
    if len(cols) != p.index:
        raise SourceIndexError(
            f"negative eigenspace dimension {len(cols)} != index {p.index}")
    return np.column_stack(cols)


def _seed_state(m: geometry.ManifoldModel, p: CriticalPoint, direction: np.ndarray):
    if m.kind == "torus":
        return tuple(np.asarray(p.location) + SEED_EPS * direction)
    u = geometry.unit_lift(m, p.location)
    P = geometry.tangent_frame(m, u)
    v = u + SEED_EPS * (P @ direction)
    return tuple(v / np.linalg.norm(v))


def _direction(basis: np.ndarray, index: int, param: float) -> np.ndarray:
    if index == 1:
        return basis[:, 0] if param < 0.25 else -basis[:, 0]
    a = 2.0 * math.pi * param
    return math.cos(a) * basis[:, 0] + math.sin(a) * basis[:, 1]


def _deck_key(m: geometry.ManifoldModel, traj: Trajectory,
              points: list[CriticalPoint]):
    """Sink id refined by the covering translate the trajectory landed in."""
    sid = traj.sink_label
    if sid is None:
        return ("unresolved",)
    end = traj.points[-1]
    if m.kind == "torus":
        c = points[sid].location
        off = tuple(int(round(e - ci)) for e, ci in zip(end, c))
        return (sid, off)
    if m.kind == "sphere":
        return (sid,)
    u = geometry.unit_lift(m, points[sid].location)
    s = 1 if sum(e * ui for e, ui in zip(end, u)) >= 0 else -1
    return (sid, s)


def _flow_seed(field, m, p, basis, param, points, t_max):
    start = _seed_state(m, p, _direction(basis, p.index, param))
    try:
        traj = integrate(field, m, start, t_max=t_max, points=points,
                         source_label=p.id)
    except NoConvergenceError as exc:
        traj = exc.trajectory
    return traj


def basin_scan(field: ScalarField, m: geometry.ManifoldModel, p: CriticalPoint,
               resolution: int, points: list[CriticalPoint] | None = None,
               t_max: float = T_MAX_DEFAULT) -> list[tuple]:
    """Seed the unstable sphere of p and report (parameter, sink label) pairs.

    Parameters are in turns: two antipodal seeds {0, 1/2} for index 1, a
    circle k/resolution for index 2.  Unresolved seeds carry label None.
    """
    if points is None:
        points = find_critical_points(field, m)
    basis = _unstable_basis(field, m, p)
    entries = _scan(field, m, p, basis, resolution, points, t_max)
    return [(param, traj.sink_label) for param, _, traj in entries]


def _scan(field, m, p, basis, resolution, points, t_max):
    """(parameter, deck key, trajectory) for each seed of p's unstable sphere."""
    if p.index == 1:
        params = [0.0, 0.5]
    else:
        params = [k / resolution for k in range(resolution)]
    trajs = [_flow_seed(field, m, p, basis, prm, points, t_max) for prm in params]
    return [(prm, _deck_key(m, traj, points), traj) for prm, traj in zip(params, trajs)]


# --- boundary refinement -----------------------------------------------------------

def _refine_boundaries(field, m, p, basis, points, t_max, a, ka, b, kb):
    """Boundary triples (parameter, left key, right key) inside (a, b)."""
    out = []
    stack = [(a, ka, b, kb)]
    while stack:
        a, ka, b, kb = stack.pop()
        if ka == kb:
            continue
        if b - a <= PARAM_TOL:
            out.append((0.5 * (a + b), ka, kb))
            continue
        mid = 0.5 * (a + b)
        traj = _flow_seed(field, m, p, basis, mid, points, t_max)
        km = _deck_key(m, traj, points)
        if km == ka:
            stack.append((mid, km, b, kb))
        elif km == kb:
            stack.append((a, ka, mid, km))
        else:
            stack.append((a, ka, mid, km))
            stack.append((mid, km, b, kb))
    return out


def _nearest_saddle(m, traj, candidates):
    """Index-(lambda-1) point the trajectory passes closest to, or None."""
    best_id, best_d = None, math.inf
    targets = _capture_targets(m, candidates)
    for cid, reps in targets:
        d = min(_target_distance(m, y, reps) for y in traj.points)
        if d < best_d:
            best_id, best_d = cid, d
    if best_d < SADDLE_ASSIGN_RADIUS:
        return best_id
    return None


def _source_analysis(field, m, p, scan_resolution, points, t_max):
    """raw counts, representatives and warnings for every sink one index below p."""
    raw: dict[int, int] = {}
    reps: dict[int, list] = {}
    flagged = False
    basis = _unstable_basis(field, m, p)
    entries = _scan(field, m, p, basis, scan_resolution, points, t_max)
    if p.index == 1:
        for _, _, traj in entries:
            sid = traj.sink_label
            if sid is None:
                flagged = True
                warnings.warn("unresolved seed trajectory from an index-1 source",
                              ResolutionWarning)
                continue
            raw[sid] = raw.get(sid, 0) + 1
            reps.setdefault(sid, []).append(traj)
        return raw, reps, flagged

    bounds = []
    for k in range(len(entries)):
        pa, ka, _ = entries[k]
        pb, kb, _ = entries[(k + 1) % len(entries)]
        if ka == kb:
            continue
        if (k + 1) % len(entries) == 0:
            pb += 1.0
        bounds.extend(_refine_boundaries(field, m, p, basis, points, t_max,
                                         pa, ka, pb, kb))
    bounds.sort(key=lambda t: t[0] % 1.0)
    nb = len(bounds)
    if nb == 0:
        return raw, reps, flagged

    def is_saddle_key(key):
        return (key is not None and key[0] is not None
                and points[key[0]].index == p.index - 1)

    # The boundaries cut the seed circle into arcs.  An arc whose trajecto-
    # ries are captured by an index-(lambda-1) point is the numerical trace
    # of a single connecting orbit (the separatrix plus the capture ball
    # around the lower point); it is counted once, never per edge.
    features = []  # (position, target id or None, reflow parameter)
    saddle_edge = [False] * nb
    for i in range(nb):
        a = bounds[i][0] % 1.0
        b = bounds[(i + 1) % nb][0] % 1.0
        if nb == 1 or b <= a:
            b += 1.0
        key = bounds[i][2]
        if nb > 1 and key != bounds[(i + 1) % nb][1]:
            flagged = True
            warnings.warn("inconsistent basin keys across an arc; counts may "
                          "be unreliable, rescan finer", ResolutionWarning)
        if is_saddle_key(key):
            mid = (0.5 * (a + b)) % 1.0
            features.append((mid, key[0], mid))
            saddle_edge[i] = saddle_edge[(i + 1) % nb] = True
    for i in range(nb):
        if not saddle_edge[i]:
            prm = bounds[i][0] % 1.0
            features.append((prm, None, prm))
    features.sort()

    for i in range(len(features)):
        gap = ((features[(i + 1) % len(features)][0] - features[i][0]) % 1.0
               if len(features) > 1 else 1.0)
        if gap < 4.0 / scan_resolution:
            flagged = True
            warnings.warn(
                f"boundary points {gap:.2e} apart at scan resolution {scan_resolution}; "
                "rescan finer", ResolutionWarning)

    candidates = [cp for cp in points if cp.index == p.index - 1]
    for _, target, prm in features:
        traj = _flow_seed(field, m, p, basis, prm, points, t_max)
        if target is None:
            sid = traj.sink_label
            if sid is not None and points[sid].index == p.index - 1:
                target = sid
            else:
                target = _nearest_saddle(m, traj, candidates)
        if target is None:
            flagged = True
            warnings.warn(f"boundary at parameter {prm} could not be attributed",
                          ResolutionWarning)
            continue
        raw[target] = raw.get(target, 0) + 1
        reps.setdefault(target, []).append(traj)
    return raw, reps, flagged


def _source_counts(field, m, p, sinks, scan_resolution, points, t_max):
    """ConnectionCount from p to each of `sinks`, all one index below p."""
    raw, reps, flagged = _source_analysis(field, m, p, scan_resolution, points, t_max)
    return [ConnectionCount(source=p.id, sink=q.id, count_mod2=raw.get(q.id, 0) % 2,
                            raw_count=raw.get(q.id, 0), representatives=reps.get(q.id, []),
                            flagged=flagged) for q in sinks]


def count_connecting(field: ScalarField, m: geometry.ManifoldModel,
                     p: CriticalPoint, q: CriticalPoint,
                     scan_resolution: int = 64,
                     points: list[CriticalPoint] | None = None,
                     t_max: float = T_MAX_DEFAULT) -> ConnectionCount:
    """Mod-2 count of negative gradient trajectories from p down to q."""
    if p.index - q.index != 1:
        raise IndexGapError(
            f"index gap {p.index}-{q.index} != 1: moduli space is not rigid")
    if points is None:
        points = find_critical_points(field, m)
    return _source_counts(field, m, p, [q], scan_resolution, points, t_max)[0]


def connection_counts(field: ScalarField, m: geometry.ManifoldModel,
                      points: list[CriticalPoint], scan_resolution: int = 64,
                      t_max: float = T_MAX_DEFAULT) -> list[ConnectionCount]:
    """Connection counts for every ordered pair with index difference one."""
    out = []
    for p in points:
        sinks = [q for q in points if q.index == p.index - 1]
        if sinks:
            out.extend(_source_counts(field, m, p, sinks, scan_resolution,
                                      points, t_max))
    return out
