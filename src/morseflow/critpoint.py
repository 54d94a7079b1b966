"""Critical point location and Morse classification.

Newton's method on the gradient, damped by a backtracking line search on
|grad f|^2, is run from a deterministic seed grid; converged points are
deduplicated and classified by the spectrum of the Hessian.

On the sphere (and on the RP^n double cover) the relevant operator is the
intrinsic Hessian of the restriction: in an orthonormal tangent frame P at
a unit point p it is  P^T (Hess F - (grad F . p) I) P,  the ambient Hessian
plus the shape-operator correction of the unit-sphere constraint.  For a
scale-invariant projective field grad F . p = 0, so the correction term
vanishes identically there.
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


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple          # canonical representative
    index: int               # number of negative Hessian eigenvalues
    eigenvalues: tuple       # ascending
    residual: float          # gradient norm (tangent-projected off the torus)
    nondegenerate: bool
    id: int = -1             # position in the sorted list, set by the sweep

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.location)


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


def _newton_from_seed(field, m, seed):
    """Damped Newton iteration; returns a converged location or None."""
    x = _ambient_state(m, seed)
    on_sphere = m.kind != "torus"

    def grad_sq(y):
        g = np.asarray(field.gradient(y))
        if on_sphere:
            g = g - np.dot(g, y) * y
        return g, float(np.dot(g, g))

    g, gsq = grad_sq(x)
    for _ in range(MAX_NEWTON_ITERS):
        if gsq <= 1e-24:
            break
        if on_sphere:
            P = geometry.tangent_frame(m, x)
            H = np.asarray(field.hessian(x), dtype=float)
            Ht = P.T @ (H - np.dot(np.asarray(field.gradient(x)), x) * np.eye(len(x))) @ P
            gt = P.T @ g
            try:
                dt = np.linalg.solve(Ht, -gt)
            except np.linalg.LinAlgError:
                dt = -gt
            step = P @ dt
        else:
            H = np.asarray(field.hessian(x), dtype=float)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step = -g

        # backtracking on |grad f|^2; fall back to steepest descent once
        improved = False
        for direction in (step, -g):
            t = 1.0
            for _ in range(40):
                cand = x + t * direction
                if on_sphere:
                    r = np.linalg.norm(cand)
                    if r < 1e-12:
                        t *= 0.5
                        continue
                    cand = cand / r
                try:
                    gc, gcsq = grad_sq(cand)
                except DomainError:
                    t *= 0.5
                    continue
                if gcsq < gsq * (1.0 - 1e-4 * t) or gcsq <= 1e-24:
                    x, g, gsq = cand, gc, gcsq
                    improved = True
                    break
                t *= 0.5
            if improved:
                break
        if not improved:
            return None  # NewtonDivergence: seed silently discarded
    if gsq <= RESIDUAL_TOL ** 2:
        return x
    return None


def find_critical_points(field: ScalarField, m: geometry.ManifoldModel,
                         grid_resolution: int | None = None) -> list[CriticalPoint]:
    """Newton sweep over a seed grid; returns classified points.

    The list is sorted by ascending index, then lexicographically by
    canonical location, and each point receives its list position as id.
    """
    if grid_resolution is None:
        grid_resolution = 16 if m.kind == "torus" else 6
    seeds = geometry.seed_points(m, grid_resolution)
    found: list[np.ndarray] = []
    residuals: list[float] = []
    for seed in seeds:
        x = _newton_from_seed(field, m, seed)
        if x is None:
            continue
        res = gradient_residual(field, m, x)
        if res > RESIDUAL_TOL:
            continue
        for k, y in enumerate(found):
            if geometry.distance(m, x, y) < DEDUPE_RADIUS:
                if res < residuals[k]:
                    found[k], residuals[k] = x, res
                break
        else:
            found.append(x)
            residuals.append(res)
    if not found:
        raise EmptyResultError("no critical point converged from the seed grid")

    points = [classify(field, m, x) for x in found]
    points.sort(key=lambda p: (p.index, tuple(round(v, 9) for v in p.location)))
    return [replace(p, id=k) for k, p in enumerate(points)]


def verify_morse(points: list[CriticalPoint]) -> bool:
    """True when every critical point is nondegenerate."""
    return all(p.nondegenerate for p in points)
