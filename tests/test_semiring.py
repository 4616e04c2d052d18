from __future__ import annotations

import pytest

from dpoterm import semiring as sr
from dpoterm.semiring import ARCTIC, ARITHMETIC, TROPICAL, NEG_INF, POS_INF

from oracles import s_add, s_pow


def test_add_examples():
    assert s_add(ARITHMETIC, 2, 3) == 5
    assert s_add(TROPICAL, 2, POS_INF) == 2
    assert s_add(ARCTIC, 2, NEG_INF) == 2


def test_mul_pow_examples():
    assert s_pow(ARITHMETIC, 2, 3) == 8
    assert sr.s_mul(TROPICAL, 2, POS_INF) == POS_INF
    assert s_pow(ARCTIC, 5, 0) == 0  # empty product is the semiring one
    assert s_pow(TROPICAL, 3, 2) == 6


def test_cmp_examples():
    assert sr.s_lt(ARITHMETIC, 1, 2)
    assert sr.s_lt(TROPICAL, 3, POS_INF)
    assert sr.s_lt(ARCTIC, NEG_INF, 0)
    assert sr.s_cmp(TROPICAL, 4, 4) == 0


def test_units():
    for k in (ARITHMETIC, TROPICAL, ARCTIC):
        for a in (0, 1, 5):
            assert s_add(k, a, k.zero) == a
            assert sr.s_mul(k, a, k.one) == a


def test_kind_mismatch():
    with pytest.raises(sr.SemiringError):
        s_add(ARITHMETIC, 2, POS_INF)
    with pytest.raises(sr.SemiringError):
        s_add(TROPICAL, NEG_INF, 1)
    with pytest.raises(sr.SemiringError):
        sr.s_mul(ARCTIC, POS_INF, 1)


def test_element_weight_legality():
    assert sr.is_legal_element_weight(ARITHMETIC, 1)
    assert not sr.is_legal_element_weight(ARITHMETIC, 0)
    assert sr.is_legal_element_weight(TROPICAL, 0)
    assert not sr.is_legal_element_weight(TROPICAL, POS_INF)
    assert sr.is_legal_element_weight(ARCTIC, 3)
    assert not sr.is_legal_element_weight(ARCTIC, NEG_INF)


def test_weight_domains():
    # legal element weights run from the semiring's one up; zero is not
    # one of them, and it absorbs every value under the product
    for k in (ARITHMETIC, TROPICAL, ARCTIC):
        assert sr.is_legal_element_weight(k, k.one)
        assert not sr.is_legal_element_weight(k, k.one - 1)
        assert not sr.is_legal_element_weight(k, k.zero)
        for a in (k.zero, k.one, 0, 1, 7):
            if sr.is_value(k, a):
                assert k.mul(a, k.zero) == k.mul(k.zero, a) == k.zero


def test_well_foundedness_bound():
    # strictly decreasing chains in {0..N} + legal infinity have length <= N+2
    n = 16
    for k in (ARITHMETIC, TROPICAL, ARCTIC):
        values = list(range(n + 1)) + [k.zero, k.one]
        values = [v for v in values if sr.is_value(k, v)]
        distinct = sorted(set(values), key=lambda v: (v,))
        assert len(distinct) <= n + 2
