"""End-to-end Morse pipeline shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, geometry, gf2chain
from .critpoint import find_critical_points, verify_morse
from .errors import DimensionError, DomainError
from .funcexpr import ScalarField

_PROBES = (0.1234567, 0.6543219, 0.3141592, 0.8765432)


def validate_field(field: ScalarField, m: geometry.ManifoldModel):
    """Reject fields that are not functions on the model.

    Torus charts identify x_i with x_i + 1, so the expression must be
    1-periodic in every variable; projective fields must be invariant
    under rescaling of the homogeneous vector.  Both checks sample a
    few deterministic probe points.
    """
    if field.dim != m.ambient_dim:
        raise DimensionError(
            f"{m.name} fields use {m.ambient_dim} variables, got dimension {field.dim}")
    if m.kind == "torus":
        base = np.resize(_PROBES, m.n)     # cycles the probes when n > 4
        f0 = field.value(base)
        for i in range(m.n):
            shifted = base.copy()
            shifted[i] += 1.0
            if abs(field.value(shifted) - f0) > 1e-9 * (1.0 + abs(f0)):
                raise DimensionError(
                    f"function is not 1-periodic in x{i + 1}; not a torus field")
    elif m.kind == "projective":
        x = np.array(_PROBES[: m.n + 1]) - 0.45
        f0 = field.value(x)
        for lam in (2.0, -1.0):
            if abs(field.value(lam * x) - f0) > 1e-9 * (1.0 + abs(f0)):
                raise DimensionError(
                    "function is not scale-invariant; not a projective field")


@dataclass
class MorseRun:
    manifold: geometry.ManifoldModel
    field: ScalarField
    points: list
    counts: list
    complex: gf2chain.ChainComplexGF2
    ranks: gf2chain.HomologyRanks
    inequalities: gf2chain.MorseInequalityReport
    morse: bool


def locate(field: ScalarField, m: geometry.ManifoldModel, grid: int | None = None) -> list:
    """The one way a request reaches the sweep: validate field on m, sweep once, and refuse
    (DomainError) points no Morse function on m has: chi other than m's, no min or no max."""
    validate_field(field, m)
    points = find_critical_points(field, m, grid)
    chi = sum((-1) ** p.index for p in points)
    indices = sorted({p.index for p in points})
    if chi != m.euler or 0 not in indices or m.n not in indices:
        raise DomainError(f"critical points have Euler characteristic {chi} ({m.name}: "
                          f"{m.euler}) and indices {indices} (need 0 and {m.n}): "
                          "points were missed or the function is not Morse")
    return points


def run_morse(field: ScalarField, m: geometry.ManifoldModel,
              grid: int | None = None, t_max: float = flow.T_MAX_DEFAULT) -> MorseRun:
    """`locate`'s critical points, then connection counts, complex, ranks and
    inequalities.  Refuses (DomainError) ranks with b0 or bn other than 1, which
    no closed connected m has, and ranks built on a flagged count, which is not
    a count of flow lines."""
    points = locate(field, m, grid)
    counts = flow.connection_counts(field, m, points, t_max=t_max)
    cx = gf2chain.build_complex(points, counts)
    ranks = gf2chain.homology_ranks(cx)
    b = ranks.by_degree
    flagged = sum(c.flagged for c in counts)
    if b[0] != 1 or b[m.n] != 1:
        raise DomainError(f"ranks {list(b)} have b0 = {b[0]} and b{m.n} = {b[m.n]}, but "
                          f"{m.name} is closed and connected (both 1); {flagged} of "
                          f"{len(counts)} counts are flagged: points or connections were missed")
    if flagged:
        raise DomainError(f"{flagged} of {len(counts)} counts are flagged: a seed trajectory "
                          "was not captured, so points were missed or t_max is too short")
    report = gf2chain.morse_inequalities(cx, ranks)
    return MorseRun(manifold=m, field=field, points=points, counts=counts,
                    complex=cx, ranks=ranks, inequalities=report,
                    morse=verify_morse(points))
