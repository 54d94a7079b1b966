"""Critical point location and Morse classification.

Newton's method on the gradient, damped by a backtracking line search on
|grad f|^2, is run from a deterministic seed grid; converged rows are
taken in order of residual, each point keeps its first lowest-residual
row, and the points are classified by the Hessian's spectrum and keep
f at their canonical location.  Batched, every live seed takes its
Newton step in one stacked solve, then its own Armijo line search, and
the kept points are classified together: one numpy evaluation of the
gradient and of the Hessian at all of them, one stacked eigh.

On the sphere (and on the RP^n double cover) the relevant operator is the
intrinsic Hessian of the restriction: in an orthonormal tangent frame P at
a unit point p it is  P^T (Hess F - (grad F . p) I) P,  the ambient Hessian
plus the shape-operator correction of the unit-sphere constraint.  For a
scale-invariant projective field grad F . p = 0, so the correction term
vanishes identically there.  The sweep takes the same tangent step from
the bordered system [[Hess F - (grad F . p) I, p], [p^T, 0]], frame-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .errors import DomainError, EmptyResultError, NotCriticalError
from .funcexpr import EVAL_ERRORS, ScalarField

RESIDUAL_TOL = 1e-10     # a point counts as critical only below this
DEDUPE_RADIUS = 1e-6
DEGENERACY_REL = 1e-8    # |eigenvalue| below this times the spectral radius
MAX_NEWTON_ITERS = 100
DEDUPE_BLOCK = 256       # rows whose distances to the kept rows are taken at once


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple          # canonical representative
    index: int               # Hessian eigenvalues below -DEGENERACY_REL * scale
    eigenvalues: tuple       # ascending
    residual: float          # gradient norm (tangent-projected off the torus)
    nondegenerate: bool
    value: float             # f at working_point(m, location)
    id: int = -1             # position in the sorted list, set by the sweep


def classify(field: ScalarField, m: geometry.ManifoldModel, rows) -> list[CriticalPoint]:
    """A CriticalPoint record for each of `rows`, in order, classified at its
    working point.  Each gradient must already be < 1e-10 and f defined at
    the point (the derivative of log u is finite where u < 0, so Newton
    converges there too); f is read at the canonical point."""
    X = np.array([geometry.working_point(m, row) for row in rows])
    G, H = frame_hessians(field, m, X)
    points = []
    for row, x, g, eig in zip(rows, X, G, np.linalg.eigh(H)[0]):
        if m.kind != "torus":
            g = g - np.dot(g, x) * x
        res = float(np.linalg.norm(g))
        if res > RESIDUAL_TOL:
            raise NotCriticalError(
                f"gradient residual {res:.3e} exceeds {RESIDUAL_TOL:.0e} at {tuple(row)}")
        loc = tuple(float(v) for v in geometry.canonicalize(m, row))
        try:
            value = field.value(geometry.working_point(m, loc))
        except DomainError as exc:
            raise DomainError(f"f is undefined at the critical point {loc}: {exc}", loc) from exc
        scale = max(float(np.max(np.abs(eig))), 1e-30)
        low = float(np.min(np.abs(eig)))
        nondeg = bool(low > DEGENERACY_REL * scale)
        # the residual leaves a nondegenerate point about res / low from its row
        if nondeg and res > DEDUPE_RADIUS / 2 * low:
            raise DomainError(f"critical point {loc} is located only to within {res / low:.1e}, "
                              f"above {DEDUPE_RADIUS / 2:.0e}: f is too flat, scale it up", loc)
        # within the degeneracy threshold the sign of an eigenvalue is rounding noise
        points.append(CriticalPoint(
            location=loc, index=int(np.sum(eig < -DEGENERACY_REL * scale)),
            eigenvalues=tuple(float(v) for v in eig), residual=res, nondegenerate=nondeg,
            value=value))
    return points


def _evaluate(fn, X: np.ndarray, width: int) -> np.ndarray:
    """The outputs of a compiled array evaluator at the rows of X, as columns."""
    out = np.empty((len(X), width))
    for i, v in enumerate(fn(*X.T)):
        out[:, i] = v          # a constant output broadcasts
    return out


def frame_hessians(field: ScalarField, m: geometry.ManifoldModel, X: np.ndarray):
    """The ambient gradients at the rows of X, in working coordinates, and the
    symmetric Hessians there in chart / orthonormal tangent frame coordinates,
    stacked; evaluation faults become DomainError."""
    k, d = X.shape
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            G = _evaluate(field.array_gradient, X, d)
            H = _evaluate(field.array_hessian, X, d * d).reshape(k, d, d)
    except EVAL_ERRORS as exc:
        raise DomainError(f"derivative evaluation failed at a critical point: {exc}") from exc
    H = 0.5 * (H + H.transpose(0, 2, 1))
    if m.kind == "torus":
        return G, H
    frames = [geometry.tangent_frame(m, x) for x in X]
    return G, np.array([P.T @ (h - np.dot(g, x) * np.eye(d)) @ P
                        for x, g, h, P in zip(X, G, H, frames)]).reshape(k, m.n, m.n)


def _gradients(field: ScalarField, m: geometry.ManifoldModel, X: np.ndarray):
    """Ambient gradients at the rows of X, and the sweep's: projected off the torus."""
    G = _evaluate(field.array_gradient, X, X.shape[1])
    if m.kind == "torus":
        return G, G
    return G, G - np.sum(G * X, axis=1, keepdims=True) * X


def _solve_rows(A: np.ndarray, b: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """x[i] with A[i] x[i] = b[i] for every row; a singular A[i] gives fallback[i].

    A row is singular when its LU factor, the one `solve` raises on, has a
    zero pivot: there `slogdet` gives sign 0."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = fallback.copy()
        ok = np.linalg.slogdet(A)[0] != 0
        out[ok] = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
        return out


def _newton_steps(field: ScalarField, m: geometry.ManifoldModel, X, G, g) -> np.ndarray:
    """The Newton step at every row, bordered off the torus; -g where singular."""
    k, d = X.shape
    H = _evaluate(field.array_hessian, X, d * d).reshape(k, d, d)
    bad = ~np.isfinite(H).all(axis=(1, 2))
    if bad.any():
        at = tuple(X[np.argmax(bad)].tolist())
        raise DomainError(f"hessian evaluation failed: not finite at {at}", at)
    if m.kind == "torus":
        return _solve_rows(H, -g, -g)
    B = np.zeros((k, d + 1, d + 1))
    B[:, :d, :d] = H - np.sum(G * X, axis=1)[:, None, None] * np.eye(d)
    B[:, :d, d] = B[:, d, :d] = X
    rhs = np.hstack([-g, np.zeros((k, 1))])
    return _solve_rows(B, rhs, rhs)[:, :d]


def _line_search(field, m, rows, step, X, G, g, gsq) -> np.ndarray:
    """Armijo backtracking on |g|^2 from each of `rows`, in lockstep: 40 halvings
    of t along its Newton step, then 40 along -g.  Off the torus a candidate
    that nearly vanishes fails.  A row whose trial point and candidate are its
    own row of X bitwise leaves the direction's halvings at once: every smaller
    t gives that point again, whose |g|^2 is gsq and passes no test.  An
    accepted candidate replaces the row of X, G, g and gsq in place; returns
    the rows that found none."""
    pending = np.arange(len(rows))       # positions in rows still searching
    for direction in (step, -g[rows]):
        t = 1.0
        stuck = []                       # positions that cannot move along direction
        for _ in range(40):
            if not pending.size:
                break
            at = rows[pending]
            x = X[at]
            cand = x + t * direction[pending]
            bits = x.view(np.int64)          # float == would equate -0.0 and 0.0
            still = (cand.view(np.int64) == bits).all(axis=1)
            if m.kind != "torus":
                r = np.linalg.norm(cand, axis=1)
                cand = cand / r[:, None]
                still &= (cand.view(np.int64) == bits).all(axis=1)
            stuck.append(pending[still])
            pending, at, cand = pending[~still], at[~still], cand[~still]
            if not pending.size:
                break
            Gc, gc = _gradients(field, m, cand)
            gcsq = np.sum(gc * gc, axis=1)
            # a non-finite gradient fails both comparisons
            ok = (gcsq < gsq[at] * (1.0 - 1e-4 * t)) | (gcsq <= 1e-24)
            if m.kind != "torus":
                ok &= r[~still] >= 1e-12
            X[at[ok]], G[at[ok]], g[at[ok]], gsq[at[ok]] = cand[ok], Gc[ok], gc[ok], gcsq[ok]
            pending = pending[~ok]
            t *= 0.5
        pending = np.sort(np.concatenate([pending, *stuck]))
    return rows[pending]


def _sweep(field: ScalarField, m: geometry.ManifoldModel, X: np.ndarray):
    """Damped Newton from every row of X at once, in place; returns the rows
    whose sweep gradient converged, and their residuals."""
    G, g = _gradients(field, m, X)
    bad = ~np.isfinite(g).all(axis=1)
    if bad.any():
        at = tuple(X[np.argmax(bad)].tolist())
        raise DomainError(f"gradient evaluation failed: not finite at seed {at}", at)
    gsq = np.sum(g * g, axis=1)
    searching = np.ones(len(X), dtype=bool)
    live = np.arange(len(X))
    for _ in range(MAX_NEWTON_ITERS):
        live = live[searching[live] & (gsq[live] > 1e-24)]
        if not live.size:
            break
        step = _newton_steps(field, m, X[live], G[live], g[live])
        # a seed whose line search fails leaves the batch: converged when it
        # stopped at the rounding floor below RESIDUAL_TOL, else silently discarded
        searching[_line_search(field, m, live, step, X, G, g, gsq)] = False
    kept = gsq <= RESIDUAL_TOL ** 2
    return X[kept], np.sqrt(gsq[kept])


def _dedupe(m: geometry.ManifoldModel, xs: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """The first lowest-residual row of each point.  Rows are taken by
    ascending residual, ties in row order, and a row within DEDUPE_RADIUS of
    a kept row is dropped.  A block of rows at a time takes its distances to
    the kept rows; then each row the block keeps drops the rest of the block
    within DEDUPE_RADIUS of it."""
    xs = xs[np.argsort(residuals, kind="stable")]
    kept = [0]
    for start in range(1, len(xs), DEDUPE_BLOCK):
        rows = xs[start:start + DEDUPE_BLOCK]
        near = geometry.distance(m, rows[:, None], xs[kept]) < DEDUPE_RADIUS
        left = np.flatnonzero(~near.any(axis=1))
        while left.size:
            kept.append(start + left[0])
            # the kept row is at distance 0 from itself
            left = left[~(geometry.distance(m, rows[left], rows[left[0]]) < DEDUPE_RADIUS)]
    return xs[kept]


def find_critical_points(field: ScalarField, m: geometry.ManifoldModel,
                         grid_resolution: int | None = None) -> list[CriticalPoint]:
    """Newton sweep over a seed grid; returns classified points.

    The list is sorted by ascending index, then lexicographically by
    canonical location, and each point receives its list position as id.
    """
    if grid_resolution is None:
        grid_resolution = 16 if m.kind == "torus" else 6
    X = geometry.seed_points(m, grid_resolution)
    with np.errstate(all="ignore"):
        xs, residuals = _sweep(field, m, X)
    if not len(xs):
        raise EmptyResultError("no critical point converged from the seed grid")

    points = classify(field, m, _dedupe(m, xs, residuals))
    points.sort(key=lambda p: (p.index, tuple(round(v, 9) for v in p.location)))
    return [replace(p, id=k) for k, p in enumerate(points)]


def verify_morse(points: list[CriticalPoint]) -> bool:
    """True when every critical point is nondegenerate."""
    return all(p.nondegenerate for p in points)
