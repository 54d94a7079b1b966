"""Lagrangian Floer lift of the Morse complex over the Novikov field.

For a zero section L and its Hamiltonian pushoff graph(eps df) in T*L,
Floer generators correspond to Crit(f) and pseudo-holomorphic strips
project to negative gradient trajectories, so the differential entry
from p down to q is T^{eps (f(p) - f(q))} exactly when the mod-2 count
of connecting trajectories is 1.  No Cauchy-Riemann equation is solved:
the correspondence supplies the strip geometry.

strip_area_check validates the exponents: the strip swept by applying
the fiber-translation Hamiltonian flow phi_t(x, y) = (x, y + t eps df_x)
to a connecting trajectory has canonical symplectic area equal to the
action drop eps (f(p) - f(q)).  On the strip psi(s, t) = (u(s), t eps df)
the 2-form's integrand does not depend on the fiber coordinate t, so the
area is eps times a line integral along the trajectory, computed by
Hermite-resampled composite Simpson with straight cap segments joining
the sampled ends to the exact critical points; since the integrand pairs
an exact form with the path, only quadrature error - not trajectory
error - separates the two values.  A trajectory is one numpy pass: two
weight matrices give every segment's cubic and its derivative at the
quarter points, and the numpy gradient is evaluated on all nodes at once.

Setting T = 1 collapses every entry to its coefficient and reproduces
the Morse boundary matrix bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, novikov
from .critpoint import CriticalPoint, find_critical_points
from .errors import DomainError, NotAComplexError, QuadratureFailureError
from .flow import ConnectionCount, Trajectory, array_rhs
from .gf2chain import GF2Matrix, build_complex
from .funcexpr import EVAL_ERRORS, ScalarField

EPSILON_DEFAULT = 0.05
AREA_RTOL = 1e-6


@dataclass(frozen=True)
class FloerComplex:
    top_degree: int
    generators: dict        # degree -> ordered critical point ids
    matrices: dict          # degree k -> list of rows of NovikovElement
    f_values: dict          # id -> f at the critical point
    epsilon: float
    cmax: float

    def dim(self, k: int) -> int:
        return len(self.generators.get(k, []))

    def mod2_matrices(self) -> dict:
        """T = 1 reduction: every nonzero entry becomes a set bit."""
        out = {}
        for k, rows in self.matrices.items():
            nrows = len(rows)
            ncols = len(rows[0]) if rows else self.dim(k)
            columns = []
            for j in range(ncols):
                col = 0
                for i in range(nrows):
                    if not rows[i][j].is_zero:
                        col |= 1 << i
                columns.append(col)
            out[k] = GF2Matrix(rows=nrows, cols=ncols, columns=tuple(columns))
        return out


@dataclass(frozen=True)
class HFRanks:
    by_degree: tuple

    @property
    def total(self) -> int:
        return sum(self.by_degree)


@dataclass(frozen=True)
class ActionWeight:
    source: int
    sink: int
    analytic: float
    quadrature: float
    epsilon: float

    @property
    def agrees(self) -> bool:
        return abs(self.analytic - self.quadrature) <= AREA_RTOL * (1.0 + abs(self.analytic))


def _field_value_at(field: ScalarField, m: geometry.ManifoldModel, cp: CriticalPoint) -> float:
    if m.kind == "torus":
        return field.value(cp.location)
    return field.value(geometry.unit_lift(m, cp.location))


def build_floer_complex(field: ScalarField, m: geometry.ManifoldModel,
                        counts: list[ConnectionCount], epsilon: float = EPSILON_DEFAULT,
                        cmax: float = novikov.CMAX_DEFAULT,
                        points: list[CriticalPoint] | None = None) -> FloerComplex:
    """Assemble the Floer differential from mod-2 counts and action drops.

    Raises DomainError when epsilon * (max f - min f) over the critical
    points is not finite: some action drop would overflow."""
    if points is None:
        points = find_critical_points(field, m)
    cx = build_complex(points, counts)  # validates coverage and grading
    fvals = {p.id: _field_value_at(field, m, p) for p in points}
    spread = epsilon * (max(fvals.values()) - min(fvals.values()))
    if not math.isfinite(spread):
        raise DomainError(f"action drops overflow: epsilon * (max f - min f) = {spread}")
    mod2 = {(c.source, c.sink): c.count_mod2 % 2 for c in counts}

    matrices = {}
    for k in range(1, cx.top_degree + 1):
        rows_ids = cx.generators[k - 1]
        cols_ids = cx.generators[k]
        rows = []
        for qid in rows_ids:
            row = []
            for pid in cols_ids:
                if mod2.get((pid, qid), 0):
                    drop = epsilon * (fvals[pid] - fvals[qid])
                    row.append(novikov.NovikovElement.term(drop, cmax))
                else:
                    row.append(novikov.NovikovElement.zero(cmax))
            rows.append(row)
        matrices[k] = rows
    return FloerComplex(top_degree=cx.top_degree, generators=cx.generators,
                        matrices=matrices, f_values=fvals, epsilon=epsilon, cmax=cmax)


def verify_floer_d_squared(fc: FloerComplex) -> bool:
    """Check the Novikov-coefficient boundary squares to zero."""
    for k in range(2, fc.top_degree + 1):
        lower = fc.matrices.get(k - 1)
        upper = fc.matrices.get(k)
        if not lower or not upper:
            continue
        nr = len(lower)
        nm = len(upper)
        nc = len(upper[0]) if upper else 0
        for i in range(nr):
            for j in range(nc):
                acc = novikov.NovikovElement.zero(fc.cmax)
                for s in range(nm):
                    a = lower[i][s]
                    b = upper[s][j]
                    if not a.is_zero and not b.is_zero:
                        acc = novikov.add(acc, novikov.mul(a, b))
                if not acc.is_zero:
                    return False
    return True


def hf_ranks(fc: FloerComplex) -> HFRanks:
    """Per-degree ranks of HF over the Novikov field via lambda_rank."""
    if not verify_floer_d_squared(fc):
        raise NotAComplexError("Floer differential does not square to zero")
    ranks = {k: novikov.lambda_rank(rows) if rows and rows[0] else 0
             for k, rows in fc.matrices.items()}
    out = []
    for k in range(fc.top_degree + 1):
        nk = fc.dim(k)
        out.append(nk - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return HFRanks(by_degree=tuple(out))


def arnold_bound(ranks) -> int:
    """Sum of homology ranks: the lower bound for Hamiltonian fixed points."""
    if hasattr(ranks, "by_degree"):
        return int(sum(ranks.by_degree))
    return int(sum(ranks))


# --- strip area quadrature -----------------------------------------------------

def _nearest_lift(m: geometry.ManifoldModel, cp: CriticalPoint, anchor) -> np.ndarray:
    """Representative of cp in the covering chart of the raw sample `anchor`."""
    if m.kind == "torus":
        c = np.asarray(cp.location)
        a = np.asarray(anchor)
        return c + np.round(a - c)
    u = geometry.unit_lift(m, cp.location)
    a = np.asarray(anchor)
    if m.kind == "projective" and float(np.dot(a, u)) < 0.0:
        return -u
    return u


# Hermite cubic on the segment data (ya, da, yb, db): its basis functions
# and their sigma-derivatives at the nodes sigma = 0, 1/4, 1/2, 3/4, 1 (exact)
_S = (0.0, 0.25, 0.5, 0.75, 1.0)
_HERMITE = np.array([(2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s, 3 * s**2 - 2 * s**3,
                      s**3 - s**2) for s in _S])
_HERMITE_D = np.array([(6 * s**2 - 6 * s, 3 * s**2 - 4 * s + 1, 6 * s - 6 * s**2,
                        3 * s**2 - 2 * s) for s in _S])


def strip_area_check(field: ScalarField, m: geometry.ManifoldModel,
                     traj: Trajectory, epsilon: float = EPSILON_DEFAULT,
                     points: list[CriticalPoint] | None = None) -> ActionWeight:
    """Compare quadrature strip area against the analytic action drop.

    The head cap, every sampled segment and the tail cap are Hermite cubics
    on their end values and velocities; Simpson's rule on their quarter and
    half nodes gives the fine and coarse areas.  Returns an ActionWeight
    with both numbers; raises QuadratureFailureError when the Richardson
    estimate from the two cannot certify the tolerance, and DomainError
    when the gradient fails at a node or the action drop or area is not
    finite.
    """
    if traj.source_label is None or traj.sink_label is None:
        raise QuadratureFailureError("trajectory endpoints are unresolved")
    if points is None:
        points = find_critical_points(field, m)
    src = points[traj.source_label]
    snk = points[traj.sink_label]
    analytic = float(epsilon * (_field_value_at(field, m, src)
                                - _field_value_at(field, m, snk)))
    if not math.isfinite(analytic):
        raise DomainError(f"action drop epsilon * (f(p) - f(q)) = {analytic} is not finite")

    if len(traj.points) == 1:  # constant trajectory: empty strip
        return ActionWeight(source=src.id, sink=snk.id, analytic=analytic,
                            quadrature=0.0, epsilon=epsilon)

    samples = np.array(traj.points, dtype=float)
    h = np.diff(traj.times)[:, None]
    # cap segments join the exact critical points to the sampled ends
    head = _nearest_lift(m, src, samples[0])
    tail = _nearest_lift(m, snk, samples[-1])
    d0, d1 = samples[0] - head, tail - samples[-1]
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            derivs = array_rhs(field, m)(samples.T).T
            # (ya, da, yb, db) of the head cap, every sampled segment, the tail cap
            ends = np.stack([np.vstack([head, samples[:-1], samples[-1]]),
                             np.vstack([d0, h * derivs[:-1], d1]),
                             np.vstack([samples[0], samples[1:], tail]),
                             np.vstack([d0, h * derivs[1:], d1])])
            u = np.tensordot(_HERMITE, ends, axes=1)     # (node, segment, coordinate)
            du = np.tensordot(_HERMITE_D, ends, axes=1)
            grad = field.array_gradient(*u.T)
            v0, v1, v2, v3, v4 = sum(g * d for g, d in zip(grad, du.T)).T
    except EVAL_ERRORS as exc:
        raise DomainError(f"gradient evaluation failed: {exc}") from exc
    coarse = np.sum((v0 + 4.0 * v2 + v4) / 6.0)
    fine = np.sum((v0 + 4.0 * v1 + 2.0 * v2 + 4.0 * v3 + v4) / 12.0)
    area_coarse = -epsilon * float(coarse)
    area_fine = -epsilon * float(fine)
    if not math.isfinite(area_fine):
        raise DomainError(f"strip area {area_fine} is not finite")
    est_err = abs(area_fine - area_coarse) / 15.0
    tol = AREA_RTOL * (1.0 + abs(analytic))
    if est_err > 0.5 * tol:
        raise QuadratureFailureError(
            f"strip quadrature error estimate {est_err:.3e} exceeds budget {0.5 * tol:.3e}")
    return ActionWeight(source=src.id, sink=snk.id, analytic=analytic,
                        quadrature=area_fine, epsilon=epsilon)
