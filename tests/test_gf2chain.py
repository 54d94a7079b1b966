"""Mod-2 chain complex algebra.

Rank oracle: dense Gaussian elimination over GF(2) with numpy, written
independently of the bitset implementation.  Homology oracle for RP^2:
the cellular complex with one cell per dimension and both boundary maps
zero mod 2 (the degree-2 attaching map doubles), hence ranks (1,1,1).
"""

import numpy as np
import pytest

from morseflow import gf2chain
from morseflow.critpoint import CriticalPoint
from morseflow.errors import IndexMismatchError, MissingPairError, NotAComplexError
from morseflow.flow import ConnectionCount


def gf2_rank_oracle(dense):
    a = np.array(dense, dtype=np.int64) % 2
    rank = 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        rank += 1
    return rank


def from_dense(dense):
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    columns = []
    for j in range(cols):
        bits = 0
        for i in range(rows):
            if dense[i][j] % 2:
                bits |= 1 << i
        columns.append(bits)
    return gf2chain.GF2Matrix(rows=rows, cols=cols, columns=tuple(columns))


def test_rank_against_elimination_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        dense = rng.integers(0, 2, size=(rows, cols))
        assert from_dense(dense).rank() == gf2_rank_oracle(dense)


def test_entry_and_bitstrings():
    m = from_dense([[1, 0, 1], [0, 1, 1]])
    assert m.entry(0, 0) == 1 and m.entry(1, 0) == 0
    assert m.bitstrings() == ["101", "011"]


def make_point(pid, index):
    return CriticalPoint(location=(0.0, float(pid)), index=index,
                         eigenvalues=(1.0,), residual=0.0,
                         nondegenerate=True, value=0.0, id=pid)


def make_count(src, snk, raw):
    return ConnectionCount(source=src, sink=snk, raw_count=raw,
                           representatives=[], flagged=False)


def torus_like():
    pts = [make_point(0, 0), make_point(1, 1), make_point(2, 1), make_point(3, 2)]
    counts = [make_count(1, 0, 2), make_count(2, 0, 2),
              make_count(3, 1, 2), make_count(3, 2, 2)]
    return pts, counts


def test_build_complex_and_golden_ranks():
    pts, counts = torus_like()
    cx = gf2chain.build_complex(pts, counts)
    assert cx.top_degree == 2
    assert cx.generators == {0: [0], 1: [1, 2], 2: [3]}
    assert gf2chain.verify_d_squared(cx)
    ranks = gf2chain.homology_ranks(cx)
    assert ranks.by_degree == (1, 2, 1)
    assert ranks.total == 4
    assert ranks.euler() == 0


def test_nonzero_differential_sphere_like():
    # two index-1 points and one of each extreme, with an odd count: a
    # tilted 2-sphere shape (b_0, b_1, b_2) = (1, 0, 1)
    pts = [make_point(0, 0), make_point(1, 1), make_point(2, 1), make_point(3, 2)]
    counts = [make_count(1, 0, 0), make_count(2, 0, 0),
              make_count(3, 1, 1), make_count(3, 2, 1)]
    cx = gf2chain.build_complex(pts, counts)
    # by hand: d2 = [1 1]^T has rank 1, d1 = 0
    ranks = gf2chain.homology_ranks(cx)
    assert ranks.by_degree == (1, 1, 0)


def test_rp2_cellular_oracle():
    # one cell in each degree, both boundaries vanish mod 2
    pts = [make_point(0, 0), make_point(1, 1), make_point(2, 2)]
    counts = [make_count(1, 0, 2), make_count(2, 1, 2)]
    cx = gf2chain.build_complex(pts, counts)
    assert gf2chain.homology_ranks(cx).by_degree == (1, 1, 1)


def test_missing_pair_rejected():
    pts, counts = torus_like()
    with pytest.raises(MissingPairError):
        gf2chain.build_complex(pts, counts[:-1])


def test_index_mismatch_rejected():
    pts, _ = torus_like()
    bad = [make_count(3, 0, 1)]  # gap two
    with pytest.raises(IndexMismatchError):
        gf2chain.build_complex(pts, bad)


def test_not_a_complex_detected():
    # single generator in each degree with odd counts: d1 o d2 = 1 != 0
    pts = [make_point(0, 0), make_point(1, 1), make_point(2, 2)]
    counts = [make_count(1, 0, 1), make_count(2, 1, 1)]
    cx = gf2chain.build_complex(pts, counts)
    assert not gf2chain.verify_d_squared(cx)
    with pytest.raises(NotAComplexError):
        gf2chain.homology_ranks(cx)


def test_morse_inequalities_equality_case():
    pts, counts = torus_like()
    cx = gf2chain.build_complex(pts, counts)
    ranks = gf2chain.homology_ranks(cx)
    rep = gf2chain.morse_inequalities(cx, ranks)
    assert rep.all_ok
    assert rep.euler_ok
    assert rep.euler_crit == rep.euler_betti == 0
    for degree, crit, betti, ok in rep.rows:
        assert crit >= betti and ok


def test_morse_inequalities_strict_case():
    # sphere-like with two extra canceling saddle/minimum pairs would give
    # crit > betti; emulate with the tilted sphere complex above
    pts = [make_point(0, 0), make_point(1, 1), make_point(2, 1), make_point(3, 2)]
    counts = [make_count(1, 0, 0), make_count(2, 0, 0),
              make_count(3, 1, 1), make_count(3, 2, 1)]
    cx = gf2chain.build_complex(pts, counts)
    rep = gf2chain.morse_inequalities(cx, gf2chain.homology_ranks(cx))
    assert rep.all_ok
    rows = {deg: (crit, betti) for deg, crit, betti, _ in rep.rows}
    assert rows[1] == (2, 1)
    assert rows[2] == (1, 0)
