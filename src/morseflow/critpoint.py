"""Critical point location and Morse classification.

Newton's method on the gradient, damped by a backtracking line search on
|grad f|^2, is run from a deterministic seed grid; converged points are
deduplicated and classified by the spectrum of the Hessian.  The sweep
is batched: every live seed takes its Newton step in one stacked solve
over numpy evaluations, then runs its own Armijo line search.

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
from .funcexpr import ScalarField

RESIDUAL_TOL = 1e-10     # a point counts as critical only below this
DEDUPE_RADIUS = 1e-6
DEGENERACY_REL = 1e-8    # |eigenvalue| below this times the spectral radius
MAX_NEWTON_ITERS = 100
DEDUPE_BLOCK = 256       # rows whose distances to the found points are taken at once


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple          # canonical representative
    index: int               # number of negative Hessian eigenvalues
    eigenvalues: tuple       # ascending
    residual: float          # gradient norm (tangent-projected off the torus)
    nondegenerate: bool
    id: int = -1             # position in the sorted list, set by the sweep


def _ambient_state(m: geometry.ManifoldModel, point) -> np.ndarray:
    """Working coordinates: torus chart vector, else unit-sphere lift."""
    if m.kind == "torus":
        return np.asarray(point, dtype=float)
    return geometry.unit_lift(m, point)


def gradient_residual(field: ScalarField, m: geometry.ManifoldModel, point) -> float:
    x = _ambient_state(m, point)
    g = np.asarray(field.gradient(x))
    if m.kind != "torus":
        g = g - np.dot(g, x) * x
    return float(np.linalg.norm(g))


def hessian_in_frame(field: ScalarField, m: geometry.ManifoldModel, point) -> np.ndarray:
    """Symmetric Hessian matrix in chart / orthonormal tangent frame coordinates."""
    x = _ambient_state(m, point)
    H = np.asarray(field.hessian(x), dtype=float)
    H = 0.5 * (H + H.T)
    if m.kind == "torus":
        return H
    g = np.asarray(field.gradient(x))
    P = geometry.tangent_frame(m, x)
    return P.T @ (H - np.dot(g, x) * np.eye(len(x))) @ P


def classify(field: ScalarField, m: geometry.ManifoldModel, point) -> CriticalPoint:
    """Build a CriticalPoint record; the gradient must already be < 1e-10."""
    res = gradient_residual(field, m, point)
    if res > RESIDUAL_TOL:
        raise NotCriticalError(
            f"gradient residual {res:.3e} exceeds {RESIDUAL_TOL:.0e} at {tuple(point)}")
    H = hessian_in_frame(field, m, point)
    eig = np.linalg.eigh(H)[0]
    scale = max(float(np.max(np.abs(eig))), 1e-30)
    nondeg = bool(np.min(np.abs(eig)) > DEGENERACY_REL * scale)
    index = int(np.sum(eig < 0.0))
    loc = geometry.canonicalize(m, point)
    return CriticalPoint(
        location=tuple(float(v) for v in loc),
        index=index,
        eigenvalues=tuple(float(v) for v in eig),
        residual=res,
        nondegenerate=nondeg,
    )


def _evaluate(fn, X: np.ndarray, width: int) -> np.ndarray:
    """The outputs of a compiled array evaluator at the rows of X, as columns."""
    out = np.empty((len(X), width))
    for i, v in enumerate(fn(*X.T)):
        out[:, i] = v          # a constant output broadcasts
    return out


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
    that nearly vanishes fails.  An accepted candidate replaces the row of X,
    G, g and gsq in place; returns the rows that found none."""
    pending = np.arange(len(rows))       # positions in rows still searching
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
            Gc, gc = _gradients(field, m, cand)
            gcsq = np.sum(gc * gc, axis=1)
            # a non-finite gradient fails both comparisons
            ok = (gcsq < gsq[at] * (1.0 - 1e-4 * t)) | (gcsq <= 1e-24)
            if m.kind != "torus":
                ok &= r[:, 0] >= 1e-12
            X[at[ok]], G[at[ok]], g[at[ok]], gsq[at[ok]] = cand[ok], Gc[ok], gc[ok], gcsq[ok]
            pending = pending[~ok]
            t *= 0.5
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
    kept = np.ones(len(X), dtype=bool)
    live = np.arange(len(X))
    for _ in range(MAX_NEWTON_ITERS):
        live = live[kept[live] & (gsq[live] > 1e-24)]
        if not live.size:
            break
        step = _newton_steps(field, m, X[live], G[live], g[live])
        # NewtonDivergence: a seed whose line search fails is silently discarded
        kept[_line_search(field, m, live, step, X, G, g, gsq)] = False
    kept &= gsq <= RESIDUAL_TOL ** 2
    return X[kept], np.sqrt(gsq[kept])


def _dedupe(m: geometry.ManifoldModel, xs: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """In row order, a point joins the first found point within DEDUPE_RADIUS
    and the lower residual wins; distances are taken a block of rows at a
    time, and again from the next row whenever the found points change."""
    rep = [0]                    # row of each found point
    i = 1
    while i < len(xs):
        near = geometry.distance(m, xs[i:i + DEDUPE_BLOCK, None], xs[rep]) < DEDUPE_RADIUS
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

    points = [classify(field, m, x) for x in _dedupe(m, xs, residuals)]
    points.sort(key=lambda p: (p.index, tuple(round(v, 9) for v in p.location)))
    return [replace(p, id=k) for k, p in enumerate(points)]


def verify_morse(points: list[CriticalPoint]) -> bool:
    """True when every critical point is nondegenerate."""
    return all(p.nondegenerate for p in points)
