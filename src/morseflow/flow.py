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
  to parameter tolerance 1e-10 (in turns) by rounds of 64-section that
  replay bisection on batched probes, and attributed to the
  index-(lambda-1) point the limiting trajectory passes closest to.

The index-2 scan and refinement need only each seed's deck label, so
`classify` flows their seeds in one vectorised pass; trajectories that
are kept (index-1 seeds, representatives) come from scalar `integrate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from itertools import islice

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
PARAM_TOL = 1e-10        # boundary bracket width on the seed parameter, in turns
K_SECTION = 64           # sub-brackets per refinement round
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

    fval = field.value
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


# --- batched classification ------------------------------------------------------

def _first_hit(m: geometry.ManifoldModel, Y, centres, ids):
    """Id of the first point whose capture ball holds each column of Y, else -1."""
    s = 0.0
    for yi, ci in zip(Y, centres):
        d = np.abs(yi - ci[:, None])
        if m.kind == "torus":
            d = d - np.floor(d)
            d = np.minimum(d, 1.0 - d)
        s = s + d * d
    inside = np.sqrt(s) < CAPTURE_RADIUS
    return np.where(inside.any(axis=0), ids[inside.argmax(axis=0)], -1)


def classify(field: ScalarField, m: geometry.ManifoldModel, starts,
             points: list[CriticalPoint], t_max: float = T_MAX_DEFAULT):
    """Sink id (None once t_max elapses) and endpoint of every row of `starts`.

    Rows are working coordinates (unwrapped torus chart, unit-sphere lift)
    and flow together in one numpy Dormand-Prince pass, each with its own
    step size, accept/reject decision, capture dwell and t_max, as
    `integrate` would flow it alone.  Raises StepCollapseError like
    `integrate`, and DomainError when the gradient fails on any row.
    """
    rhs = _rhs(field.array_gradient, m)

    def f(Y):
        K = np.empty_like(Y)
        for i, k in enumerate(rhs(Y)):
            K[i] = k
        return K

    targets = _capture_targets(m, points)
    centres = np.array([c for _, reps in targets for c in reps]).T
    ids = np.array([cid for cid, reps in targets for _ in reps])
    y = np.array(starts, dtype=float).T
    ends, sinks, live = y.T.copy(), [None] * y.shape[1], np.arange(y.shape[1])
    t, h = np.zeros(len(live)), np.full(len(live), 1e-3)
    dwell_id = _first_hit(m, y, centres, ids)
    dwell = np.where(dwell_id < 0, 0, CAPTURE_DWELL)  # a start in a ball stays put
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            k1 = f(y)
            while True:
                captured = dwell >= CAPTURE_DWELL
                done = captured | (t >= t_max)
                if done.any():
                    for j in np.flatnonzero(done):
                        sinks[live[j]] = int(dwell_id[j]) if captured[j] else None
                        ends[live[j]] = y[:, j]
                    keep = ~done
                    live, y, t, h, k1 = live[keep], y[:, keep], t[keep], h[keep], k1[:, keep]
                    dwell_id, dwell = dwell_id[keep], dwell[keep]
                if not len(live):
                    return sinks, ends
                h = np.minimum(np.minimum(h, H_MAX), t_max - t)
                collapsed = h < 1e-14 * np.maximum(1.0, np.abs(t))
                if collapsed.any():
                    raise StepCollapseError(f"step size underflow at t={t[collapsed][0]}")
                ks = [k1]
                for s in range(1, 7):
                    yy = y.copy()
                    for aj, kj in zip(_A[s], ks):
                        if aj != 0.0:
                            yy += (h * aj) * kj
                    ks.append(f(yy))
                e = sum(ej * kj for ej, kj in zip(_E, ks) if ej != 0.0) * h
                r = e / (ATOL + RTOL * np.maximum(np.abs(y), np.abs(yy)))
                err = np.sqrt(sum(ri * ri for ri in r) / len(r))

                ok = err <= 1.0
                t = np.where(ok, t + h, t)
                if m.kind == "torus":
                    y, k1 = np.where(ok, yy, y), np.where(ok, ks[6], k1)
                else:
                    y = np.where(ok, yy / np.sqrt(sum(yi * yi for yi in yy)), y)
                    k1 = f(y)
                hit = _first_hit(m, y, centres, ids)
                dwell = np.where(ok, np.where(hit == dwell_id, dwell + 1, 1) * (hit >= 0), dwell)
                dwell_id = np.where(ok, hit, dwell_id)
                fac = np.where(err > 1e-30, 0.9 * np.maximum(err, 1e-30) ** -0.2, 5.0)
                h = h * np.minimum(5.0, np.maximum(0.2, fac))
    except EVAL_ERRORS as exc:
        raise DomainError(f"gradient evaluation failed: {exc}") from exc


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


def _seed_states(m: geometry.ManifoldModel, p: CriticalPoint, basis: np.ndarray,
                 params) -> np.ndarray:
    """Working coordinates SEED_EPS from p towards each parameter, one row each."""
    dirs = np.array([_direction(basis, p.index, prm) for prm in params])
    if m.kind == "torus":
        return np.asarray(p.location) + SEED_EPS * dirs
    u = geometry.unit_lift(m, p.location)
    v = u + SEED_EPS * (dirs @ geometry.tangent_frame(m, u).T)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _direction(basis: np.ndarray, index: int, param: float) -> np.ndarray:
    if index == 1:
        return basis[:, 0] if param < 0.25 else -basis[:, 0]
    a = 2.0 * math.pi * param
    return math.cos(a) * basis[:, 0] + math.sin(a) * basis[:, 1]


def _deck_key(m: geometry.ManifoldModel, sid, end, points: list[CriticalPoint]):
    """Sink id refined by the covering translate the endpoint `end` lies in."""
    if sid is None:
        return (None,)
    if m.kind == "torus":
        c = points[sid].location
        return (sid, tuple(int(round(e - ci)) for e, ci in zip(end, c)))
    if m.kind == "sphere":
        return (sid,)
    u = geometry.unit_lift(m, points[sid].location)
    return (sid, 1 if sum(e * ui for e, ui in zip(end, u)) >= 0 else -1)


def _flow_seed(field, m, p, basis, param, points, t_max):
    start = _seed_states(m, p, basis, [param])[0]
    try:
        traj = integrate(field, m, start, t_max=t_max, points=points,
                         source_label=p.id)
    except NoConvergenceError as exc:
        traj = exc.trajectory
    return traj


def _keys(field, m, p, basis, params, points, t_max):
    """Deck key of the seed at each parameter, classified in one batch."""
    sinks, ends = classify(field, m, _seed_states(m, p, basis, params), points, t_max)
    return [_deck_key(m, sid, end, points) for sid, end in zip(sinks, ends)]


def _scan(field, m, p, basis, resolution, points, t_max):
    """(parameter, key, trajectory) for each seed of p's unstable sphere.

    Index-1 seeds are integrated and kept, keyed by sink id; the index-2
    circle is only classified, keyed by deck key, trajectory None."""
    if p.index == 1:
        trajs = [_flow_seed(field, m, p, basis, prm, points, t_max) for prm in (0.0, 0.5)]
        return [(prm, (traj.sink_label,), traj) for prm, traj in zip((0.0, 0.5), trajs)]
    params = [k / resolution for k in range(resolution)]
    keys = _keys(field, m, p, basis, params, points, t_max)
    return [(prm, key, None) for prm, key in zip(params, keys)]


# --- boundary refinement -----------------------------------------------------------

def _refine(field, m, p, basis, points, t_max, brackets):
    """Boundary triples (parameter, left key, right key) inside the brackets.

    A bracket is (a, key at a, b, key at b) with differing keys.  Each round
    classifies the K_SECTION - 1 inner cut points of every bracket in one
    batch, then bisects each bracket on these samples, probing what
    sequential bisection would probe, down to width PARAM_TOL (a boundary)
    or to adjacent cut points (a bracket for the next round).
    """
    out = []
    while brackets:
        # the last round needs only the cuts bisection reaches before PARAM_TOL
        sections = [min(K_SECTION, 2 ** math.ceil(math.log2((b - a) / PARAM_TOL)))
                    for a, _, b, _ in brackets]
        params = [a + (b - a) * j / k
                  for (a, _, b, _), k in zip(brackets, sections) for j in range(1, k)]
        samples = zip(params, _keys(field, m, p, basis, params, points, t_max))
        narrowed = []
        for (a, ka, b, kb), k in zip(brackets, sections):
            ps, ks = zip((a, ka), *islice(samples, k - 1), (b, kb))
            halves = [(0, k)]
            while halves:
                i, j = halves.pop()
                if ks[i] == ks[j]:
                    continue
                if ps[j] - ps[i] <= PARAM_TOL:
                    out.append((0.5 * (ps[i] + ps[j]), ks[i], ks[j]))
                elif j - i == 1:
                    narrowed.append((ps[i], ks[i], ps[j], ks[j]))
                else:
                    halves += [(i, (i + j) // 2), ((i + j) // 2, j)]
        brackets = narrowed
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

    brackets = []
    for k in range(len(entries)):
        pa, ka, _ = entries[k]
        pb, kb, _ = entries[(k + 1) % len(entries)]
        if ka == kb:
            continue
        if (k + 1) % len(entries) == 0:
            pb += 1.0
        brackets.append((pa, ka, pb, kb))
    bounds = _refine(field, m, p, basis, points, t_max, brackets)
    bounds.sort(key=lambda t: t[0] % 1.0)
    nb = len(bounds)
    if nb == 0:
        return raw, reps, flagged

    def is_saddle_key(key):
        return key[0] is not None and points[key[0]].index == p.index - 1

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
