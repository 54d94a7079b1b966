"""Model manifolds: flat n-torus, round n-sphere, real projective n-space.

Point conventions
-----------------
* TorusN(n): chart coordinates in [0,1)^n, opposite faces identified.
* SphereN(n): unit vectors in R^(n+1); scalar fields are ambient
  expressions in n+1 variables restricted to |x| = 1.
* ProjectiveN(n): homogeneous vectors in R^(n+1); the canonical
  representative is scaled so the coordinate of largest magnitude
  (the pivot) equals exactly 1.  Fields must be scale-invariant
  expressions in the n+1 homogeneous variables.

Gradient flow on RP^n is run upstairs on the unit-sphere double cover
(a local isometry for the round quotient metric), so this module also
exposes the unit lift and a deterministic orthonormal tangent frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError, DimensionError, UnknownManifoldError

_WRAP_SNAP = 1e-9
MANIFOLD_NAMES = "torus2, torusN:k, circle, sphere2, rp1, rp2, rp3"


@dataclass(frozen=True)
class ManifoldModel:
    kind: str                      # "torus" | "sphere" | "projective"
    n: int                         # intrinsic dimension
    metric_diag: tuple | None = None  # torus only: constant diagonal metric

    @property
    def ambient_dim(self) -> int:
        """Number of variables a scalar field on this model may use."""
        return self.n if self.kind == "torus" else self.n + 1

    @property
    def euler(self) -> int:
        """Euler characteristic: 0 for T^n, 1 + (-1)^n for S^n, 1 - n mod 2 for RP^n."""
        if self.kind == "torus":
            return 0
        return 1 + (-1) ** self.n if self.kind == "sphere" else 1 - self.n % 2

    @property
    def name(self) -> str:
        if self.kind == "torus":
            return f"torus{self.n}" if self.n == 2 else f"torusN:{self.n}"
        if self.kind == "sphere":
            return f"sphere{self.n}"
        return f"rp{self.n}"


def torus(n: int, metric_diag=None) -> ManifoldModel:
    if n < 1:
        raise DimensionError(f"torus dimension must be >= 1, got {n}")
    diag = None if metric_diag is None else tuple(float(d) for d in metric_diag)
    if diag is not None and (len(diag) != n or any(d <= 0 for d in diag)):
        raise DimensionError(f"metric diagonal must be {n} positive entries")
    return ManifoldModel("torus", n, diag)


def sphere(n: int) -> ManifoldModel:
    if not 1 <= n <= 3:
        raise DimensionError(f"sphere supported for 1 <= n <= 3, got {n}")
    return ManifoldModel("sphere", n)


def projective(n: int) -> ManifoldModel:
    if not 1 <= n <= 3:
        raise DimensionError(f"RP^n supported for 1 <= n <= 3, got {n}")
    return ManifoldModel("projective", n)


def parse_manifold(name: str) -> ManifoldModel:
    """Resolve a command-line manifold name."""
    name = name.strip().lower()
    if name == "torus2":
        return torus(2)
    if name.startswith("torusn:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise UnknownManifoldError(f"bad torus dimension in '{name}'")
        return torus(k)
    if name == "circle":
        return torus(1)
    if name == "sphere2":
        return sphere(2)
    if name in ("rp1", "rp2", "rp3"):
        return projective(int(name[2:]))
    raise UnknownManifoldError(
        f"unknown manifold '{name}' (expected {MANIFOLD_NAMES})")


# --- canonical representatives ------------------------------------------------

def canonicalize(m: ManifoldModel, point) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    if p.shape != (m.ambient_dim,):
        raise DimensionError(
            f"{m.name} expects {m.ambient_dim} coordinates, got {p.shape}")
    if m.kind == "torus":
        q = np.mod(p, 1.0)
        # values within 1e-9 of 1 fold to 0 so representatives sort stably
        q[q > 1.0 - _WRAP_SNAP] = 0.0
        q[np.abs(q) < _WRAP_SNAP] = 0.0
        return q
    if m.kind == "sphere":
        r = np.linalg.norm(p)
        if r < 1e-12:
            raise DegeneratePointError("cannot normalize a vanishing vector")
        return p / r
    # projective: scale so the first coordinate of largest magnitude equals 1
    pivot = int(np.argmax(np.abs(p)))
    if abs(p[pivot]) < 1e-12:
        raise DegeneratePointError("cannot canonicalize the zero vector")
    return p / p[pivot]


def unit_lift(m: ManifoldModel, point) -> np.ndarray:
    """Unit-sphere representative of a sphere or projective point."""
    p = canonicalize(m, point)
    if m.kind == "torus":
        raise DimensionError("unit_lift applies to sphere and projective models")
    if m.kind == "sphere":
        return p
    return p / np.linalg.norm(p)


def distance(m: ManifoldModel, a, b) -> float:
    """Distance between canonical representatives, respecting identifications."""
    if m.kind == "torus":
        d = np.abs(canonicalize(m, a) - canonicalize(m, b))
        d = np.minimum(d, 1.0 - d)
        return float(np.linalg.norm(d))
    if m.kind == "sphere":
        return float(np.linalg.norm(canonicalize(m, a) - canonicalize(m, b)))
    ua, ub = unit_lift(m, a), unit_lift(m, b)
    return float(min(np.linalg.norm(ua - ub), np.linalg.norm(ua + ub)))


# --- frames and seed grids ------------------------------------------------------

def tangent_frame(m: ManifoldModel, point) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space, as columns.

    For the torus this is the identity chart frame.  For sphere/projective
    models the frame spans the orthogonal complement of the unit lift.
    """
    if m.kind == "torus":
        return np.eye(m.n)
    p = unit_lift(m, point)
    cols = []
    for k in range(m.n + 1):
        v = np.zeros(m.n + 1)
        v[k] = 1.0
        v = v - np.dot(v, p) * p
        for c in cols:
            v = v - np.dot(v, c) * c
        r = np.linalg.norm(v)
        if r > 1e-8:
            cols.append(v / r)
        if len(cols) == m.n:
            break
    return np.column_stack(cols)


def seed_points(m: ManifoldModel, resolution: int) -> list[np.ndarray]:
    """Deterministic seed grid for the critical point sweep."""
    if resolution < 2:
        raise DimensionError(f"grid resolution must be >= 2, got {resolution}")
    if m.kind == "torus":
        axes = [np.arange(resolution) / resolution + 0.5 / resolution] * m.n
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([ax.ravel() for ax in mesh], axis=1)
        return [pts[i] for i in range(pts.shape[0])]
    # sphere / projective: normalized cube grid in the ambient space
    d = m.n + 1
    axes = [np.linspace(-1.0, 1.0, resolution)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([ax.ravel() for ax in mesh], axis=1)
    out = []
    for i in range(pts.shape[0]):
        r = np.linalg.norm(pts[i])
        if r >= 0.5:
            out.append(pts[i] / r)
    return out
