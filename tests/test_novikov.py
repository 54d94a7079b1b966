"""Truncated Novikov field arithmetic.

Property tests draw exponents from a 0.125 grid so that sums of up to
eight of them stay exactly representable and inverse series terminate
quickly; the field axioms are checked structurally on canonical forms.
"""

import numpy as np
import pytest

from morseflow import novikov
from morseflow.errors import TruncationExhaustedError, TruncationMismatchError
from morseflow.novikov import NovikovElement
from oracles import parse_novikov


def rand_elem(rng, cmax=32.0, max_terms=8):
    k = int(rng.integers(0, max_terms + 1))
    exps = rng.integers(0, 129, size=k) * 0.125  # [0, 16] on the eighth-grid
    return NovikovElement(tuple(float(e) for e in exps), cmax)


def test_zero_one_and_term():
    z = NovikovElement.zero()
    one = NovikovElement.one()
    t = NovikovElement.term(2.5)
    assert z.is_zero and not one.is_zero
    assert one.exponents == (0.0,)
    assert t.exponents == (2.5,)
    assert z.valuation() == float("inf")
    assert t.valuation() == 2.5


def test_characteristic_two():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = rand_elem(rng)
        assert (a + a).is_zero


def test_field_axioms_random():
    rng = np.random.default_rng(32)
    one = NovikovElement.one()
    for _ in range(200):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        if not a.is_zero:
            assert novikov.invert(a) * a == one


def test_truncation_is_an_ideal():
    # exponents only add, so dropping >= C_max commutes with products
    a = NovikovElement((30.0, 31.0), 32.0)
    b = NovikovElement((2.0,), 32.0)
    assert (a * b).is_zero
    c = NovikovElement((1.0, 31.5), 32.0)
    assert (c * b).exponents == (3.0,)


def test_merge_tolerance_pairs_cancel():
    a = NovikovElement((1.0,), 32.0)
    b = NovikovElement((1.0 + 1e-13,), 32.0)
    assert (a + b).is_zero
    # three nearly equal exponents keep odd parity
    c = NovikovElement((1.0, 1.0 + 1e-13, 1.0 + 2e-13), 32.0)
    assert len(c.exponents) == 1


def test_mismatched_truncation_refused():
    a = NovikovElement((0.0,), 32.0)
    b = NovikovElement((0.0,), 16.0)
    with pytest.raises(TruncationMismatchError):
        a + b
    with pytest.raises(TruncationMismatchError):
        a * b


def test_invert_golden_series():
    a = NovikovElement((0.0, 1.0), 5.0)
    inv = novikov.invert(a)
    assert inv.exponents == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert (a * inv).exponents == (0.0,)


def test_invert_negative_valuation():
    # below valuation zero the inverse is exact only up to the shifted
    # window: dropped tail terms re-enter at exponent >= cmax - |c0|
    a = NovikovElement((-2.0, 0.0), 8.0)
    inv = novikov.invert(a)
    assert inv.valuation() == 2.0
    residue = a * inv + NovikovElement.one(8.0)
    assert residue.is_zero or residue.valuation() >= 8.0 - 2.0


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        novikov.invert(NovikovElement.zero())


def test_invert_tiny_valuation_exhausts_truncation():
    with pytest.raises(TruncationExhaustedError):
        novikov.invert(NovikovElement((0.0, 1e-9), 32.0))


def test_format_and_parse_roundtrip():
    a = NovikovElement((0.0, 1.5, 7.0), 32.0)
    s = novikov.format_novikov(a)
    assert s == "T^0 + T^1.5 + T^7"
    assert parse_novikov(s) == a
    assert novikov.format_novikov(NovikovElement.zero()) == "0"
    assert parse_novikov("0").is_zero


def test_lambda_rank_examples():
    one = NovikovElement.one()
    z = NovikovElement.zero()
    t = NovikovElement.term
    assert novikov.lambda_rank([[one, z], [z, one]]) == 2
    assert novikov.lambda_rank([[one, one], [one, one]]) == 1
    assert novikov.lambda_rank([[z, z], [z, z]]) == 0
    # det = T^2 + T^0 is a unit, full rank
    assert novikov.lambda_rank([[t(1.0), one], [one, t(1.0)]]) == 2
    # second column is T^0.5 times the first
    assert novikov.lambda_rank([[one, t(0.5)], [t(2.0), t(2.5)]]) == 1


def test_lambda_rank_matches_dims_on_zero_matrix():
    z = NovikovElement.zero()
    assert novikov.lambda_rank([[z, z, z]]) == 0
    assert novikov.lambda_rank([]) == 0
