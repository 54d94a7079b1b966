"""Lagrangian Floer lift of the Morse complex over the Novikov field.

For a zero section L and its Hamiltonian pushoff graph(eps df) in T*L,
Floer generators correspond to Crit(f) and pseudo-holomorphic strips
project to negative gradient trajectories, so the differential entry
from p down to q is T^{eps (f(p) - f(q))} exactly when the mod-2 count
of connecting trajectories is 1.  No Cauchy-Riemann equation is solved:
the correspondence supplies the strip geometry.  build_floer_complex
therefore lifts the GF(2) Morse complex from Morse data alone: the
generators and degrees are its, and each set bit gets its action
exponent from the points' critical values.  Every path from p down to
r carries T^{eps (f(p) - f(r))}, so the lift squares to zero exactly
when the Morse complex does, and hf_ranks checks d^2 = 0 mod 2 before
it takes the ranks over the field with lambda_rank.

strip_area_check validates the exponents: the strip swept by applying
the fiber-translation Hamiltonian flow phi_t(x, y) = (x, y + t eps df_x)
to a connecting trajectory has canonical symplectic area equal to the
action drop eps (f(p) - f(q)).  On the strip psi(s, t) = (u(s), t eps df)
the 2-form's integrand does not depend on the fiber coordinate t, so the
area is eps times a line integral along the trajectory, computed by
Hermite-resampled composite Simpson with straight cap segments joining
the sampled ends to the exact critical points; since the integrand pairs
an exact form with the path, only quadrature error - not trajectory
error - separates the two values.  The strips of a request are one numpy
pass: the segments of all its trajectories are laid end to end, two weight
matrices give every segment's cubic and its derivative at the quarter
points, and the numpy gradient is evaluated on all nodes at once.

Setting T = 1 collapses every entry to its coefficient and reproduces
the Morse boundary matrix bit for bit, unless truncation at C_max dropped
an entry (mod2_matrices then differs from the Morse matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, novikov
from .critpoint import CriticalPoint
from .errors import DomainError, NotAComplexError, QuadratureFailureError
from .flow import ConnectionCount, Trajectory, array_rhs
from .gf2chain import (ChainComplexGF2, GF2Matrix, HomologyRanks, betti_numbers,
                       build_complex, verify_d_squared)
from .funcexpr import EVAL_ERRORS, ScalarField

EPSILON_DEFAULT = 0.05
AREA_RTOL = 1e-6


@dataclass(frozen=True)
class FloerComplex:
    morse: ChainComplexGF2  # the Morse complex it lifts: generators, degrees, bits
    matrices: dict          # degree k -> list of rows of NovikovElement
    epsilon: float
    cmax: float

    def mod2_matrices(self) -> dict:
        """T = 1 reduction: every nonzero entry becomes a set bit."""
        return {k: GF2Matrix.from_rows([[not e.is_zero for e in row] for row in rows],
                                       len(self.morse.generators[k]))
                for k, rows in self.matrices.items()}


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


def build_floer_complex(points: list[CriticalPoint], counts: list[ConnectionCount],
                        epsilon: float = EPSILON_DEFAULT,
                        cmax: float = novikov.CMAX_DEFAULT) -> FloerComplex:
    """Lift the Morse complex of `points` and `counts` (the ids of both index
    `points`): each set bit from p down to q becomes T^{epsilon (p.value - q.value)}.

    Raises DomainError when epsilon * (max f - min f) over the critical
    points is not finite: some action drop would overflow."""
    morse = build_complex(points, counts)  # validates coverage and grading
    value = {p.id: p.value for p in points}
    spread = epsilon * (max(value.values()) - min(value.values()))
    if not math.isfinite(spread):
        raise DomainError(f"action drops overflow: epsilon * (max f - min f) = {spread}")
    gens = morse.generators
    matrices = {k: [[novikov.NovikovElement.term(epsilon * (value[p] - value[q]), cmax)
                     if d.entry(i, j) else novikov.NovikovElement.zero(cmax)
                     for j, p in enumerate(gens[k])]
                    for i, q in enumerate(gens[k - 1])]
                for k, d in morse.matrices.items()}
    return FloerComplex(morse=morse, matrices=matrices, epsilon=epsilon, cmax=cmax)


def hf_ranks(fc: FloerComplex) -> HomologyRanks:
    """Per-degree ranks of HF over the Novikov field via lambda_rank.

    Every path from p down to r has exponent epsilon (f(p) - f(r)), so the
    differential squares to zero over the field exactly when the Morse
    complex it lifts does mod 2; refuses (NotAComplexError) when it does not."""
    if not verify_d_squared(fc.morse):
        raise NotAComplexError("Floer differential does not square to zero")
    return betti_numbers(fc.morse, {k: novikov.lambda_rank(rows)
                                    for k, rows in fc.matrices.items()})


def arnold_bound(ranks: HomologyRanks) -> int:
    """Sum of homology ranks: the lower bound for Hamiltonian fixed points."""
    return ranks.total


# --- strip area quadrature -----------------------------------------------------

def _nearest_lifts(m: geometry.ManifoldModel, reps: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Each row of reps (a critical point's lift) moved to the covering chart
    of the raw sample in the same row of anchors."""
    if m.kind == "torus":
        return reps + np.round(anchors - reps)
    if m.kind == "projective":
        return np.where(np.sum(anchors * reps, axis=1, keepdims=True) < 0.0, -reps, reps)
    return reps


# Hermite cubic on the segment data (ya, da, yb, db): its basis functions
# and their sigma-derivatives at the nodes sigma = 0, 1/4, 1/2, 3/4, 1 (exact)
_S = (0.0, 0.25, 0.5, 0.75, 1.0)
_HERMITE = np.array([(2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s, 3 * s**2 - 2 * s**3,
                      s**3 - s**2) for s in _S])
_HERMITE_D = np.array([(6 * s**2 - 6 * s, 3 * s**2 - 4 * s + 1, 6 * s - 6 * s**2,
                        3 * s**2 - 2 * s) for s in _S])


def _simpson_sums(field: ScalarField, m: geometry.ManifoldModel,
                  trajs: list[Trajectory], lifts: dict) -> tuple[list, list]:
    """Coarse and fine Simpson sums of the line integral of df along each of
    `trajs` (at least two samples each), all trajectories in one numpy pass.

    Trajectory i owns the run of segments head cap, its sampled segments,
    tail cap; the caps join lifts[label] of its ends to its first and last
    samples.  Each trajectory's sums are np.sum over its own run, so they do
    not depend on the other trajectories of the list."""
    size = np.array([len(t.points) for t in trajs])
    last = np.cumsum(size) - 1                 # each trajectory's last sample
    first = last - size + 1
    head = first + np.arange(len(trajs))       # segment of each head cap
    tail = head + size                         # segment of each tail cap
    samples = np.array([y for t in trajs for y in t.points], dtype=float)
    times = np.array([s for t in trajs for s in t.times], dtype=float)
    starts = np.delete(np.arange(len(samples)), last)  # first sample of each sampled segment
    h = (times[starts + 1] - times[starts])[:, None]
    heads = _nearest_lifts(m, np.array([lifts[t.source_label] for t in trajs]), samples[first])
    tails = _nearest_lifts(m, np.array([lifts[t.sink_label] for t in trajs]), samples[last])
    d0, d1 = samples[first] - heads, tails - samples[last]
    not_head = np.ones(len(samples) + len(trajs), dtype=bool)
    not_head[head] = False
    not_tail = np.ones_like(not_head)
    not_tail[tail] = False
    body = not_head & not_tail
    # (ya, da, yb, db) of every segment
    ends = np.empty((4, len(not_head), samples.shape[1]))
    ends[0, head], ends[0, not_head] = heads, samples
    ends[2, tail], ends[2, not_tail] = tails, samples
    ends[1, head] = ends[3, head] = d0
    ends[1, tail] = ends[3, tail] = d1
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            derivs = array_rhs(field, m)(samples.T).T
            ends[1, body] = h * derivs[starts]
            ends[3, body] = h * derivs[starts + 1]
            u = np.tensordot(_HERMITE, ends, axes=1)     # (node, segment, coordinate)
            du = np.tensordot(_HERMITE_D, ends, axes=1)
            grad = field.array_gradient(*u.T)
            v0, v1, v2, v3, v4 = sum(g * d for g, d in zip(grad, du.T)).T
    except EVAL_ERRORS as exc:
        raise DomainError(f"gradient evaluation failed: {exc}") from exc
    coarse = (v0 + 4.0 * v2 + v4) / 6.0
    fine = (v0 + 4.0 * v1 + 2.0 * v2 + 4.0 * v3 + v4) / 12.0
    runs = list(zip(head.tolist(), (tail + 1).tolist()))
    return [np.sum(coarse[a:b]) for a, b in runs], [np.sum(fine[a:b]) for a, b in runs]


def strip_area_check(field: ScalarField, m: geometry.ManifoldModel,
                     trajs: list[Trajectory], epsilon: float = EPSILON_DEFAULT, *,
                     points: list[CriticalPoint]) -> list[ActionWeight]:
    """Compare quadrature strip area against the analytic action drop for
    every trajectory of `trajs`; one ActionWeight per trajectory, in order.

    The head cap, every sampled segment and the tail cap are Hermite cubics
    on their end values and velocities; Simpson's rule on their quarter and
    half nodes gives the fine and coarse areas, for the whole list in one
    numpy pass.  A constant trajectory sweeps an empty strip.  Raises
    QuadratureFailureError when a trajectory has an unresolved end, and
    DomainError when an action drop is not finite, both before any
    quadrature; DomainError when the gradient fails at a node; then, one
    trajectory at a time, DomainError when the area is not finite and
    QuadratureFailureError when the Richardson estimate from the two areas
    cannot certify the tolerance.  The trajectories' labels index `points`,
    the sweep's point list, whose values give the action drops.
    """
    if any(t.source_label is None or t.sink_label is None for t in trajs):
        raise QuadratureFailureError("trajectory endpoints are unresolved")
    if not trajs:
        return []
    lifts = {i: geometry.working_point(m, points[i].location)
             for t in trajs for i in (t.source_label, t.sink_label)}
    analytic = [float(epsilon * (points[t.source_label].value - points[t.sink_label].value))
                for t in trajs]
    for a in analytic:
        if not math.isfinite(a):
            raise DomainError(f"action drop epsilon * (f(p) - f(q)) = {a} is not finite")

    quadrature = [0.0] * len(trajs)
    moving = [i for i, t in enumerate(trajs) if len(t.points) > 1]
    if moving:
        sums = _simpson_sums(field, m, [trajs[i] for i in moving], lifts)
        for i, coarse, fine in zip(moving, *sums):
            area_coarse = -epsilon * float(coarse)
            area_fine = -epsilon * float(fine)
            if not math.isfinite(area_fine):
                raise DomainError(f"strip area {area_fine} is not finite")
            est_err = abs(area_fine - area_coarse) / 15.0
            tol = AREA_RTOL * (1.0 + abs(analytic[i]))
            if est_err > 0.5 * tol:
                raise QuadratureFailureError(
                    f"strip quadrature error estimate {est_err:.3e} exceeds budget {0.5 * tol:.3e}")
            quadrature[i] = area_fine
    return [ActionWeight(source=points[t.source_label].id, sink=points[t.sink_label].id,
                         analytic=a, quadrature=q, epsilon=epsilon)
            for t, a, q in zip(trajs, analytic, quadrature)]
