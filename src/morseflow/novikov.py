"""Truncated Novikov field over GF(2).

An element is a finite, strictly increasing tuple of real exponents
(c_1, ..., c_k), standing for T^{c_1} + ... + T^{c_k} with implicit
coefficients 1; every exponent is < C_max and pairwise separations
exceed 1e-12 (closer exponents merge mod 2 against the group anchor).
Addition is symmetric difference, multiplication forms all pairwise
exponent sums and truncates at C_max, and inversion factors the leading
term and sums the geometric series of the positive-valuation remainder,
accumulating directly in shifted form so no intermediate needs
exponents >= C_max.

lambda_rank performs Gaussian elimination choosing valuation-minimal
pivots; that keeps every row multiplier at valuation >= 0, which is
exactly the condition under which eliminated entries cancel exactly at
the truncation level.
"""

from __future__ import annotations

import math

from .errors import TruncationExhaustedError, TruncationMismatchError

CMAX_DEFAULT = 32.0
MERGE_TOL = 1e-12
_SERIES_CAP = 5000


def _canonical(exponents, cmax: float) -> tuple:
    """Sort, merge mod 2 within tolerance of the group anchor, truncate."""
    xs = sorted(float(e) for e in exponents)
    out = []
    i = 0
    while i < len(xs):
        anchor = xs[i]
        j = i + 1
        while j < len(xs) and xs[j] - anchor <= MERGE_TOL:
            j += 1
        if (j - i) % 2 == 1 and anchor < cmax:
            out.append(anchor)
        i = j
    return tuple(out)


class NovikovElement:
    """Immutable truncated Novikov series over GF(2)."""

    __slots__ = ("exponents", "cmax")

    def __init__(self, exponents=(), cmax: float = CMAX_DEFAULT):
        object.__setattr__(self, "cmax", float(cmax))
        object.__setattr__(self, "exponents", _canonical(exponents, float(cmax)))

    def __setattr__(self, *_):
        raise AttributeError("NovikovElement is immutable")

    @classmethod
    def zero(cls, cmax: float = CMAX_DEFAULT) -> "NovikovElement":
        return cls((), cmax)

    @classmethod
    def term(cls, c: float, cmax: float = CMAX_DEFAULT) -> "NovikovElement":
        return cls((c,), cmax)

    @classmethod
    def one(cls, cmax: float = CMAX_DEFAULT) -> "NovikovElement":
        return cls((0.0,), cmax)

    @property
    def is_zero(self) -> bool:
        return not self.exponents

    def valuation(self) -> float:
        return self.exponents[0] if self.exponents else math.inf

    def __eq__(self, other):
        return (isinstance(other, NovikovElement)
                and self.exponents == other.exponents and self.cmax == other.cmax)

    def __hash__(self):
        return hash((self.exponents, self.cmax))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"NovikovElement({format_novikov(self)!r}, cmax={self.cmax})"


def _check_pair(a: NovikovElement, b: NovikovElement):
    if a.cmax != b.cmax:
        raise TruncationMismatchError(
            f"operands truncated at different levels: {a.cmax} vs {b.cmax}")


def add(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    """Symmetric difference of exponent sets (characteristic 2)."""
    _check_pair(a, b)
    return NovikovElement(a.exponents + b.exponents, a.cmax)


def mul(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    """All pairwise exponent sums, merged mod 2, truncated below C_max."""
    _check_pair(a, b)
    sums = [x + y for x in a.exponents for y in b.exponents]
    return NovikovElement(sums, a.cmax)


def invert(a: NovikovElement) -> NovikovElement:
    """Inverse at truncation level: a = T^{c0}(1 + r) with val(r) > 0, so
    a^{-1} = sum_k T^{-c0} r^k (signs are trivial in characteristic 2)."""
    if a.is_zero:
        raise ZeroDivisionError("the zero Novikov element has no inverse")
    c0 = a.exponents[0]
    r = NovikovElement(tuple(e - c0 for e in a.exponents[1:]), a.cmax)
    if not r.is_zero and (a.cmax + c0) / r.exponents[0] > _SERIES_CAP:
        raise TruncationExhaustedError(
            f"inverse needs about {(a.cmax + c0) / r.exponents[0]:.0f} series "
            f"terms; the remainder valuation {r.exponents[0]:g} is too small "
            "for this truncation level")
    res = NovikovElement((-c0,), a.cmax)
    term = res
    for _ in range(_SERIES_CAP):
        term = mul(term, r)
        if term.is_zero:
            return res
        res = add(res, term)
    raise TruncationExhaustedError(
        "geometric series for the inverse did not terminate; the remainder "
        "valuation is too small for this truncation level")


def format_novikov(a: NovikovElement) -> str:
    if a.is_zero:
        return "0"

    def fmt(e: float) -> str:
        return str(int(e)) if e == int(e) else repr(e)

    return " + ".join(f"T^{fmt(e)}" for e in a.exponents)


def lambda_rank(matrix) -> int:
    """Rank of a matrix of NovikovElements over the truncated field.

    Raises TruncationExhaustedError when an elimination step would need
    exponents at or beyond C_max (detectable as a multiplier or an update
    that fails to cancel the pivot column exactly).
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    used: set[int] = set()
    rank = 0
    for c in range(ncols):
        cand = [(rows[ri][c].valuation(), ri)
                for ri in range(len(rows))
                if ri not in used and not rows[ri][c].is_zero]
        if not cand:
            continue
        _, piv = min(cand)
        used.add(piv)
        rank += 1
        inv = invert(rows[piv][c])
        pivot_row = rows[piv]
        for ri in range(len(rows)):
            if ri == piv or rows[ri][c].is_zero:
                continue
            q = mul(rows[ri][c], inv)
            if q.is_zero:
                raise TruncationExhaustedError(
                    f"row multiplier at column {c} truncated to zero")
            rows[ri] = [add(rows[ri][k], mul(q, pivot_row[k])) for k in range(ncols)]
            if not rows[ri][c].is_zero:
                raise TruncationExhaustedError(
                    f"entry ({ri}, {c}) kept residual terms after elimination")
    return rank
