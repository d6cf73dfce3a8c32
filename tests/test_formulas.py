"""Closed-form resistance values against the independent oracles."""

import tracemalloc
from fractions import Fraction

import pytest

from twotree import (
    BentParams,
    alternating_term,
    bent_2tree,
    bent_resistance_alternating,
    bent_resistance_product,
    fib,
    lucas,
    reduce_bent,
    reduce_straight_state,
    resistance_exact,
    straight_2tree,
    straight_pair_resistance,
    tail_sum,
    tail_sum_closed_form,
    telescoping_difference,
)


def test_bent_params_normalisation():
    p = BentParams(10, 4)
    assert (p.m, p.ell, p.p) == (8, 5, 2)
    assert BentParams.from_mk(8, 4) == BentParams(10, 4)
    with pytest.raises(ValueError):
        BentParams(6, 4)
    with pytest.raises(ValueError):
        BentParams(5, 3)


def test_straight_pair_examples():
    assert straight_pair_resistance(1, 1, 2) == Fraction(2, 3)
    assert straight_pair_resistance(4, 1, 5) == Fraction(15, 11)
    assert straight_pair_resistance(4, 2, 1) == resistance_exact(straight_2tree(6), 2, 3)


def test_straight_pair_range_checks():
    with pytest.raises(ValueError):
        straight_pair_resistance(0, 1, 1)
    with pytest.raises(ValueError):
        straight_pair_resistance(4, 1, 6)
    with pytest.raises(ValueError):
        straight_pair_resistance(4, 0, 2)


@pytest.mark.parametrize("m", range(1, 9))
def test_straight_pair_exhaustive_against_oracle(m):
    g = straight_2tree(m + 2)
    for j in range(1, m + 2):
        for k in range(1, m + 3 - j):
            assert straight_pair_resistance(m, j, k) == resistance_exact(g, j, j + k)


def test_tail_sum_small_values():
    assert tail_sum(0) == 0
    assert tail_sum(1) == Fraction(1, 3)
    assert tail_sum(2) == Fraction(1, 2)
    assert tail_sum_closed_form(2) == Fraction(1, 2)


def test_tail_sum_closed_form_agreement():
    for j in range(0, 201):
        assert tail_sum(j) == tail_sum_closed_form(j)


def test_bent_product_spot_values():
    assert bent_resistance_product(BentParams(6, 3)) == Fraction(6, 5)
    engine_value, _ = reduce_bent(8, 4)
    assert bent_resistance_product(BentParams(8, 4)) == engine_value
    # single-term left tail for the smallest bend
    assert tail_sum(BentParams(6, 3).p) == Fraction(1, 3)


def test_product_form_retains_nothing():
    n = 8000
    # Warm the sequence tables past every index read below, F(2n - 2) at most.
    fib(2 * n)
    lucas(2 * n)
    tracemalloc.start()
    try:
        for k in (3, n // 2):
            bent_resistance_product(BentParams(n, k))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A stored prefix of tail sums up to j = n - 4 would hold thousands of
    # multi-KB fractions, megabytes in all.
    assert retained < 64 * 1024


def test_bent_alternating_spot_values():
    # term-by-term: 1 + 4/11 - 9/55 for the smallest bent chain
    p = BentParams(6, 3)
    assert Fraction(p.m + 1, 5) == 1
    assert Fraction(4 * fib(5), 5 * lucas(5)) == Fraction(4, 11)
    assert Fraction(alternating_term(4, 3), fib(10)) == Fraction(-9, 55)
    assert bent_resistance_alternating(p) == Fraction(6, 5)
    engine_value, _ = reduce_bent(7, 4)
    assert bent_resistance_alternating(BentParams(7, 4)) == engine_value


def test_forms_agree_small_sweep():
    for n in range(6, 26):
        for k in range(3, n - 2):
            p = BentParams(n, k)
            assert bent_resistance_product(p) == bent_resistance_alternating(p)


def test_forms_match_exact_oracle_small():
    for n in range(6, 13):
        for k in range(3, n - 2):
            p = BentParams(n, k)
            expected = resistance_exact(bent_2tree(n, k), 1, n)
            assert bent_resistance_product(p) == expected
            assert bent_resistance_alternating(p) == expected


def test_forms_match_engine_full_range():
    for n in range(6, 61):
        for k in range(3, n - 2):
            p = BentParams(n, k)
            engine_value, _ = reduce_bent(n, k)
            assert bent_resistance_product(p) == engine_value
            assert bent_resistance_alternating(p) == engine_value


def test_straight_formula_consistency_with_engine():
    for m in range(1, 61):
        assert straight_pair_resistance(m, 1, m + 1) == reduce_straight_state(m + 2)[0]


def test_telescoping_small_sweep():
    for m in range(5, 41):
        for k in range(3, m - 1):
            lhs = bent_resistance_alternating(BentParams.from_mk(m, k + 1)) - \
                bent_resistance_alternating(BentParams.from_mk(m, k))
            assert lhs == telescoping_difference(m, k)
            # the product form telescopes identically
            rhs = bent_resistance_product(BentParams.from_mk(m, k + 1)) - \
                bent_resistance_product(BentParams.from_mk(m, k))
            assert rhs == telescoping_difference(m, k)
