"""Chain complexes over GF(2) from mod-2 trajectory counts.

Boundary matrices are stored column-major as Python integer bitsets
(bit i of column j = entry in row i), so addition is XOR and rank
computation is in-place elimination with the first-nonzero pivot rule.
Degrees run 0..n; the boundary in degree k maps C_k to C_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .critpoint import CriticalPoint
from .errors import IndexMismatchError, MissingPairError, NotAComplexError
from .flow import ConnectionCount


@dataclass(frozen=True)
class GF2Matrix:
    rows: int
    cols: int
    columns: tuple  # one int bitset per column

    @classmethod
    def from_rows(cls, rows: list, cols: int) -> "GF2Matrix":
        """The matrix whose entry (i, j) is set when rows[i][j] is truthy."""
        return cls(rows=len(rows), cols=cols, columns=tuple(
            sum(1 << i for i, row in enumerate(rows) if row[j]) for j in range(cols)))

    def entry(self, i: int, j: int) -> int:
        return (self.columns[j] >> i) & 1

    def bitstrings(self) -> list[str]:
        """Row-major 0/1 strings, one per row."""
        return ["".join(str(self.entry(i, j)) for j in range(self.cols))
                for i in range(self.rows)]

    def rank(self) -> int:
        pivots: dict[int, int] = {}
        rank = 0
        for col in self.columns:
            c = col
            while c:
                low = (c & -c).bit_length() - 1  # first nonzero row
                if low in pivots:
                    c ^= pivots[low]
                else:
                    pivots[low] = c
                    rank += 1
                    break
        return rank

    def compose_zero(self, other: "GF2Matrix") -> bool:
        """True when self @ other = 0 over GF(2)."""
        for col in other.columns:
            acc = 0
            c = col
            while c:
                low = (c & -c).bit_length() - 1
                acc ^= self.columns[low]
                c &= c - 1
            if acc:
                return False
        return True


@dataclass(frozen=True)
class ChainComplexGF2:
    top_degree: int
    generators: dict          # degree -> ordered list of critical point ids
    matrices: dict            # degree k -> GF2Matrix of d_k: C_k -> C_{k-1}

    def dim(self, k: int) -> int:
        return len(self.generators.get(k, []))


@dataclass(frozen=True)
class HomologyRanks:
    by_degree: tuple

    @property
    def total(self) -> int:
        return sum(self.by_degree)

    def euler(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.by_degree))


def build_complex(points: list[CriticalPoint],
                  counts: list[ConnectionCount]) -> ChainComplexGF2:
    """Assemble boundary matrices from counts covering all adjacent pairs."""
    by_id = {p.id: p for p in points}
    table = {}
    for c in counts:
        if c.source not in by_id or c.sink not in by_id:
            raise IndexMismatchError(
                f"count references unknown point ids ({c.source}, {c.sink})")
        if by_id[c.source].index - by_id[c.sink].index != 1:
            raise IndexMismatchError(
                f"count ({c.source} -> {c.sink}) does not drop the index by one")
        table[(c.source, c.sink)] = c.count_mod2

    top = max(p.index for p in points)
    gens = {k: [p.id for p in points if p.index == k] for k in range(top + 1)}
    matrices = {}
    for k in range(1, top + 1):
        for pid in gens[k]:
            for qid in gens[k - 1]:
                if (pid, qid) not in table:
                    raise MissingPairError(
                        f"no connection count for pair ({pid} -> {qid})")
        matrices[k] = GF2Matrix.from_rows([[table[(pid, qid)] for pid in gens[k]]
                                           for qid in gens[k - 1]], len(gens[k]))
    return ChainComplexGF2(top_degree=top, generators=gens, matrices=matrices)


def verify_d_squared(cx: ChainComplexGF2) -> bool:
    """Check d_{k-1} o d_k = 0 for every degree."""
    return all(cx.matrices[k - 1].compose_zero(cx.matrices[k])
               for k in range(2, cx.top_degree + 1))


def homology_ranks(cx: ChainComplexGF2) -> HomologyRanks:
    """Mod-2 Betti numbers b_k = dim ker d_k - rank d_{k+1}."""
    if not verify_d_squared(cx):
        raise NotAComplexError("boundary matrices do not square to zero")
    return betti_numbers(cx, {k: mat.rank() for k, mat in cx.matrices.items()})


def betti_numbers(cx: ChainComplexGF2, ranks: dict) -> HomologyRanks:
    """b_k = dim C_k - rank d_k - rank d_{k+1}, from the rank of each d_k."""
    return HomologyRanks(by_degree=tuple(cx.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                                         for k in range(cx.top_degree + 1)))


@dataclass(frozen=True)
class MorseInequalityReport:
    rows: tuple          # (degree, crit_count, betti, satisfied)
    euler_crit: int
    euler_betti: int

    @property
    def euler_ok(self) -> bool:
        return self.euler_crit == self.euler_betti

    @property
    def all_ok(self) -> bool:
        return self.euler_ok and all(ok for (_, _, _, ok) in self.rows)


def morse_inequalities(cx: ChainComplexGF2,
                       ranks: HomologyRanks) -> MorseInequalityReport:
    """Per-degree counts vs mod-2 Betti numbers plus the Euler identity."""
    rows = []
    euler_c = 0
    for k in range(cx.top_degree + 1):
        nk = cx.dim(k)
        rows.append((k, nk, ranks.by_degree[k], nk >= ranks.by_degree[k]))
        euler_c += (-1) ** k * nk
    return MorseInequalityReport(rows=tuple(rows), euler_crit=euler_c,
                                 euler_betti=ranks.euler())
