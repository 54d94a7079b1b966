"""Negative gradient flow and mod-2 counting of connecting trajectories.

Integration runs an embedded Dormand-Prince 4/5 pair on dx/dt =
-metric^{-1} df and measures each step's local error against one absolute
tolerance, 1e-9 in torus chart or unit-sphere coordinates (Hairer, Norsett
& Wanner, Solving ODEs I, 1993, II.4; the torus has period 1 and the
sphere radius 1), so step control is the same under torus translations
and sphere rotations.  Each step, and the right-hand
side it evaluates, is straight-line Python compiled once per manifold
model; it does the floating-point operations of the textbook stage loop
in the same order, so trajectories are bitwise that loop's.  Torus
trajectories are kept unwrapped (raw chart coordinates, reduced mod 1
only for distance tests) and sphere / projective trajectories live on
the unit sphere in ambient coordinates with a tangent re-projection and
renormalization each step; for RP^n the unit sphere is the double cover,
a local isometry of the round quotient, so flow lines downstairs are
exactly the projected ones.  A trajectory keeps its times and points;
f is evaluated only at its two ends, since its energy is f(start) - f(end)
(Banyaga & Hurtubise, Lectures on Morse Homology, 2004).

A trajectory acquires its sink label when it enters the capture ball
(radius 1e-4) of a critical point, as `capture_lookup` files it, and
stays there for 10 consecutive accepted steps; the dwell requirement
prevents false capture during a slow pass near a saddle.  A trajectory
that crawls outside every ball for STALL_STEPS accepted steps drains
towards a critical point the sweep missed and is retired unresolved.

Counting M(f; p, q) for index difference one: the unstable sphere of an
index-1 point is two antipodal seeds, and each seed trajectory is itself
a candidate connecting orbit, so from an index-1 source the raw count is
the number of seeds sinking at q.  A seed captured at a point of index
other than 0 ran along a saddle connection, and the run is refused as not
Morse-Smale.  M(f; p, q) is M(-f; q, p) run
backwards, and under -f a point of index k has index n - k (Milnor,
Lectures on the h-cobordism theorem, 1965), so a pair of index (n, n-1)
is counted by flowing f backwards in time from the two seeds of q's
stable sphere (f's step with h negated; IEEE negation is exact, so this is
bitwise the flow of -f up to the sign of zeros), and its representatives
are reversed.  On n <= 2 every pair has such an index-1 end; a pair of
index (k, k-1) with 2 <= k <= n-1 has none and is refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import geometry
from .critpoint import CriticalPoint, frame_hessians
from .errors import (
    DomainError,
    IndexGapError,
    NoConvergenceError,
    ResolutionWarning,
    SourceIndexError,
    StepCollapseError,
)
from .funcexpr import EVAL_ERRORS, ScalarField

TOL = 1e-9                          # absolute local error per step, in chart units
CAPTURE_RADIUS = 1e-4
CELLS = int(0.5 / CAPTURE_RADIUS)   # capture cells per unit length, of side >= 2 radii
KEY_DIMS = 3                        # coordinates that key a capture cell
CAPTURE_DWELL = 10
SEED_EPS = 1e-3
T_MAX_DEFAULT = 200.0
H_MAX = 1.0
# step budget per unit of t_max (at least 10 units); the slowest trajectories
# in the tests take 90 (fuzzed --tmax below 10), a step chattering across a
# kink of the field 1e11
STEPS_PER_TIME = 1000
# accepted steps outside every capture ball, slower than CAPTURE_RADIUS per unit
# time, after which a seed is retired: it drains towards a critical point the
# sweep missed.  No captured trajectory of the tests or benchmark takes more
# than one such step in a row.
STALL_STEPS = 1000


@dataclass
class Trajectory:
    times: list
    points: list             # raw working coordinates (tuples)
    source_label: int | None
    sink_label: int | None
    energy: float


@dataclass
class ConnectionCount:
    source: int
    sink: int
    raw_count: int
    representatives: list = dataclass_field(default_factory=list)
    flagged: bool = False

    @property
    def count_mod2(self) -> int:
        return self.raw_count % 2


# --- Dormand-Prince 5(4), compiled per manifold model ------------------------------

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


def _source(m: geometry.ManifoldModel) -> str:
    """Python source of `_rhs(grad)` and `_step(rhs)` on manifold model m.

    `_rhs(grad)` gives y -> -metric^{-1} grad(*y) (tangent-projected off the
    torus) as a tuple, with gradient faults raised as DomainError; y holds
    floats or numpy rows.  `_step(rhs)` gives the Dormand-Prince step
    (y, k1, h) -> (y_new, k7, err), every stage through `rhs`.  Both do the
    floating-point operations of the textbook stage loop in its order, so
    results are bitwise the loop's."""
    dim = m.ambient_dim
    x = [f"x{i}" for i in range(dim)]
    g = [f"g{i}" for i in range(dim)]
    if m.kind == "torus":
        out = [f"{-1.0 / d!r} * {gi}" for d, gi in zip(m.metric_diag or (1.0,) * dim, g)]
        project = []
    else:
        out = [f"-({gi} - dot * {xi})" for gi, xi in zip(g, x)]
        project = [f"        {', '.join(x)}, = y",
                   f"        dot = 0.0 + {' + '.join(f'{gi} * {xi}' for gi, xi in zip(g, x))}"]
    k = [[f"k{s + 1}_{i}" for i in range(dim)] for s in range(7)]
    lines = ["def _rhs(grad):", "    def rhs(y):", "        try:",
             f"            {', '.join(g)}, = grad(*y)",
             "        except EVAL_ERRORS as exc:",
             '            raise DomainError(f"gradient evaluation failed: {exc}", y) from exc',
             *project, f"        return ({', '.join(out)},)", "    return rhs",
             "def _step(rhs):", "    def step(y, k1, h):",
             f"        {', '.join(f'y{i}' for i in range(dim))}, = y",
             f"        {', '.join(k[0])}, = k1"]
    for s in range(1, 7):
        terms = [(j, f"a{s}_{j}") for j, a in enumerate(_A[s]) if a != 0.0]
        lines += [f"        {c} = h * {_A[s][j]!r}" for j, c in terms]
        stage = [f"y{i}" + "".join(f" + {c} * {k[j][i]}" for j, c in terms)
                 for i in range(dim)]
        if s < 6:
            lines.append(f"        {', '.join(k[s])}, = rhs(({', '.join(stage)},))")
    # the stage-7 state is the 5th order solution (FSAL)
    lines += [f"        n{i} = {z}" for i, z in enumerate(stage)]
    lines += [f"        y_new = ({', '.join(f'n{i}' for i in range(dim))},)",
              "        k7 = rhs(y_new)", f"        {', '.join(k[6])}, = k7"]
    for i in range(dim):
        e = "".join(f" + {ej!r} * {k[j][i]}" for j, ej in enumerate(_E) if ej != 0.0)
        lines.append(f"        r{i} = (0.0{e}) * h / {TOL!r}")
    squares = "".join(f" + r{i} * r{i}" for i in range(dim))
    lines += [f"        return y_new, k7, sqrt((0.0{squares}) / {dim})", "    return step"]
    return "\n".join(lines)


@functools.cache
def _compiled(m: geometry.ManifoldModel):
    """The _rhs and _step factories of one manifold model, compiled once;
    each caller binds its own gradient or RHS, so no field is cached."""
    namespace = {"EVAL_ERRORS": EVAL_ERRORS, "DomainError": DomainError, "sqrt": math.sqrt}
    exec(_source(m), namespace)
    return namespace["_rhs"], namespace["_step"]


def make_rhs(field: ScalarField, m: geometry.ManifoldModel):
    """Compiled callable y -> dy/dt = -metric^{-1} grad f as a tuple.

    Calls field._grad directly; evaluation failures become DomainError."""
    return _compiled(m)[0](field._grad)


def array_rhs(field: ScalarField, m: geometry.ManifoldModel):
    """Y -> dY/dt as an array, by the `make_rhs` formula on each column of Y.

    Uses the numpy gradient; constant partials broadcast over the columns.
    Callers set the np.errstate under which faults raise."""
    rhs = _compiled(m)[0](field.array_gradient)

    def f(Y):
        K = np.empty_like(Y)
        for i, k in enumerate(rhs(Y)):
            K[i] = k
        return K
    return f


# --- capture lookup ----------------------------------------------------------------

def _distance(m: geometry.ManifoldModel, y, c) -> float:
    """Distance from y to the representative c, mod 1 per coordinate on the torus."""
    torus = m.kind == "torus"
    s = 0.0
    for yi, ci in zip(y, c):
        d = yi - ci
        if torus:
            d = abs(d) % 1.0
            if d > 0.5:
                d = 1.0 - d
        s += d * d
    return math.sqrt(s)


def capture_lookup(m: geometry.ManifoldModel, points: list[CriticalPoint]):
    """y -> id of the first point (in list order) whose capture ball holds y.

    Each point is filed once per representative: its location on the torus
    and the sphere, on RP^n its unit lift u, then -u.  The lookup gives what
    testing every representative in turn gives, but measures only those
    filed under y's cell: floor(CELLS * y_i) in each of the first KEY_DIMS
    coordinates, mod CELLS on the torus.  Each representative c is filed
    under every cell from floor(CELLS * (c_i - 1.5 r)) to floor(CELLS *
    (c_i + 1.5 r)) in those coordinates: a point of the ball lies within r
    of c_i in every coordinate, flooring is monotone, and the extra half
    radius absorbs rounding.  Keying on at most three coordinates files at
    most 27 cells per representative in any dimension; the distance test
    decides the rest.  A non-finite y lies in no ball."""
    torus = m.kind == "torus"
    key_dims = min(m.ambient_dim, KEY_DIMS)
    reach = 1.5 * CAPTURE_RADIUS
    cells: dict = {}
    for cp in points:
        reps = (tuple(cp.location),)
        if m.kind == "projective":
            u = geometry.working_point(m, cp.location)
            reps = (tuple(u), tuple(-u))
        for c in reps:
            spans = [range(math.floor((v - reach) * CELLS), math.floor((v + reach) * CELLS) + 1)
                     for v in c[:key_dims]]
            for key in itertools.product(*spans):
                if torus:
                    key = tuple(j % CELLS for j in key)
                cells.setdefault(key, []).append((cp.id, c))

    def cell(y):
        # y_i % 1.0 is 1.0 for a tiny negative y_i: the outer mod makes that cell 0
        if torus:
            return tuple([math.floor(v % 1.0 * CELLS) % CELLS for v in y[:key_dims]])
        return tuple([math.floor(v * CELLS) for v in y[:key_dims]])

    def lookup(y):
        try:
            key = cell(y)
        except (ValueError, OverflowError):   # floor of a NaN or an infinity
            return None
        for cid, c in cells.get(key, ()):
            if _distance(m, y, c) < CAPTURE_RADIUS:
                return cid
        return None
    return lookup


# --- integration ------------------------------------------------------------------

def integrate(field: ScalarField, m: geometry.ManifoldModel, start, capture,
              t_max: float = T_MAX_DEFAULT, source_label: int | None = None,
              backward: bool = False) -> Trajectory:
    """Flow `start` down the negative gradient until capture, or up it when
    `backward`: f's step with h negated, the flow of -f.  Times count up
    from 0 either way, and the energy is the drop of f (forward) or its
    rise (backward).  f is evaluated only at the two ends; a start where
    f is undefined raises DomainError before anything flows.  `capture` is
    the `capture_lookup` of the field's critical points; callers that flow
    many starts against one point list build it once.

    Raises NoConvergenceError (with the partial trajectory attached) when
    t_max elapses before any capture ball claims the endpoint, or when the
    flow stays slower than CAPTURE_RADIUS outside every ball for STALL_STEPS
    accepted steps, and
    StepCollapseError when the adaptive step underflows short of t_max or
    when STEPS_PER_TIME * max(t_max, 10) steps do not reach t_max.
    """
    if m.kind == "torus":
        # a far start is reduced mod 1 (twice: a tiny negative v % 1.0 is 1.0);
        # seeds lie within SEED_EPS of [0, 1) and keep their bits
        y = tuple(v if -1.0 <= v < 2.0 else v % 1.0 % 1.0
                  for v in np.atleast_1d(np.asarray(start, dtype=float)).tolist())
    else:
        y = tuple(float(v) for v in geometry.working_point(m, start))
    rhs = make_rhs(field, m)
    step = _compiled(m)[1](rhs)
    sign = -1.0 if backward else 1.0

    f_start = field.value(y)
    traj = Trajectory([0.0], [y], source_label, None, 0.0)

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
    dwell_id, dwell, stalled = None, 0, 0
    steps, max_steps = 0, STEPS_PER_TIME * max(t_max, 10.0)
    while t < t_max and dwell < CAPTURE_DWELL and stalled < STALL_STEPS:
        h = min(h, H_MAX, t_max - t)
        steps += 1
        if (h < 1e-14 * max(1.0, abs(t)) and h < t_max - t) or steps > max_steps:
            raise StepCollapseError(f"step size collapsed at t={t} after {steps - 1} steps")
        y_new, k7, err = step(y, k1, sign * h)
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

            hit = capture(y)
            stalled = stalled + 1 if hit is None and math.hypot(*k1) < CAPTURE_RADIUS else 0
            if hit is None:
                dwell_id, dwell = None, 0
            elif hit == dwell_id:
                dwell += 1
            else:
                dwell_id, dwell = hit, 1

        fac = 0.9 * err ** -0.2 if err > 1e-30 else 5.0
        h *= min(5.0, max(0.2, fac))

    traj.energy = sign * (f_start - field.value(y))
    if dwell >= CAPTURE_DWELL:
        traj.sink_label = dwell_id
        return traj
    if stalled >= STALL_STEPS:
        raise NoConvergenceError(f"stalled outside every capture ball at t={t}",
                                 trajectory=traj)
    raise NoConvergenceError(f"no capture within t_max={t_max}", trajectory=traj)


# --- seeds of an index-1 point --------------------------------------------------

def _unstable_direction(m: geometry.ManifoldModel, p: CriticalPoint, H: np.ndarray,
                        backward: bool = False) -> np.ndarray:
    """Eigenvector of the one negative eigenvalue of p's frame Hessian H, sign
    fixed; when `backward`, of -f's Hessian, the negated H."""
    index = m.n - p.index if backward else p.index
    if index != 1:
        raise SourceIndexError(f"point {p.id} has index {index}: seed scans need index 1")
    w, V = np.linalg.eigh(-H if backward else H)
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
    u = geometry.working_point(m, p.location)
    w = u + SEED_EPS * (dirs @ geometry.tangent_frame(m, u).T)
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _scan(field, m, p, H, capture, t_max, backward=False):
    """The two seed trajectories of index-1 p's unstable sphere, or when
    `backward` of its stable sphere, p being of index n - 1, flowed backward,
    each captured by the lookup `capture`; H is p's frame Hessian.

    A seed that t_max stops before capture keeps its partial trajectory,
    sink None."""
    trajs = []
    for start in _seed_states(m, p, _unstable_direction(m, p, H, backward)):
        try:
            trajs.append(integrate(field, m, start, capture, t_max=t_max, source_label=p.id,
                                   backward=backward))
        except NoConvergenceError as exc:
            trajs.append(exc.trajectory)
    return trajs


# --- counting from the index-1 end -------------------------------------------------

def _reversed(traj: Trajectory) -> Trajectory:
    """A backward trajectory as the f trajectory it runs backwards."""
    end = traj.times[-1]
    return Trajectory(times=[end - t for t in reversed(traj.times)],
                      points=traj.points[::-1],
                      source_label=traj.sink_label, sink_label=traj.source_label,
                      energy=traj.energy)


def _count_pairs(field, m, pairs, points, t_max):
    """ConnectionCount of each (p, q) in `pairs`, counted from an index-1 end.

    Pairs of index (1, 0) are counted from p flowing f forwards, pairs of
    index (n, n-1) from q flowing f backwards; any other pair has no index-1
    end and is refused before anything flows.  Each end is scanned once, the
    forward ends first, and each seed trajectory is filed under its (source,
    sink) pair.  A count is flagged when a seed of its end is unresolved.  A
    seed captured at a point whose index is not its end's minus one (plus
    one backwards) ran along a saddle connection, so the flow is not
    Morse-Smale and its counts mean nothing: DomainError."""
    for p, q in pairs:
        if p.index not in (1, m.n):
            raise SourceIndexError(
                f"pair {p.id} -> {q.id} on {m.name} has source index {p.index} under f "
                f"and {m.n - q.index} under -f; counting needs an index-1 source")
    capture = capture_lookup(m, points)

    def end(p, q):              # a pair's index-1 end, and whether it flows backward
        return (p, False) if p.index == 1 else (q, True)
    ends = dict.fromkeys(sorted((end(p, q) for p, q in pairs), key=lambda e: e[1]))
    X = np.array([geometry.working_point(m, e.location) for e, _ in ends])
    hessians = frame_hessians(field, m, X.reshape(-1, m.ambient_dim))[1]   # 2-D with no end
    filed, flagged = {}, set()
    for (e, backward), H in zip(ends, hessians):
        want = e.index + 1 if backward else e.index - 1
        for traj in _scan(field, m, e, H, capture, t_max, backward):
            if traj.sink_label is None:
                flagged.add((e, backward))
                warnings.warn(f"seed trajectory from index-1 point {e.id} unresolved",
                              ResolutionWarning)
                continue
            q = points[traj.sink_label]
            if q.index != want:
                raise DomainError(
                    f"saddle connection: a seed of index-{e.index} point {e.id} is captured "
                    f"at index-{q.index} point {q.id}, so the flow is not Morse-Smale; "
                    "perturb the function by a small generic term")
            if backward:
                traj = _reversed(traj)
            filed.setdefault((traj.source_label, traj.sink_label), []).append(traj)
    out = []
    for p, q in pairs:
        reps = filed.get((p.id, q.id), [])
        out.append(ConnectionCount(source=p.id, sink=q.id, raw_count=len(reps),
                                   representatives=reps, flagged=end(p, q) in flagged))
    return out


def count_connecting(field: ScalarField, m: geometry.ManifoldModel,
                     p: CriticalPoint, q: CriticalPoint, points: list[CriticalPoint],
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
