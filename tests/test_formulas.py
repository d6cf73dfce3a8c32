"""Closed-form resistance values against the independent oracles."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from twotree import (
    BentParams,
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
    telescoping_difference,
)
import twotree.formulas
from twotree import sequences
from twotree.formulas import (
    _alternating_summand,
    tail_sum,
    tail_sum_closed_form,
)
from twotree.sequences import ENV_CACHE_LIMIT


def _straight_pair_sum(m, j, k):
    """The chain's Fibonacci sum for r(j, j+k), term by term: the referee of the closed form."""
    total = 0
    for i in range(1, k + 1):
        weight = fib(i) * fib(i + 2 * j - 2) - fib(i - 1) * fib(i + 2 * j - 3)
        total += weight * fib(2 * m - 2 * i - 2 * j + 5)
    return Fraction(total, fib(2 * m + 2))


def _alternating_sum(m, k):
    """r(1, m+2) with the bend at k by the alternating sum, term by term: the referee of its closed form."""
    total = 0
    for j in range(3, k + 1):
        total += (-1) ** j * fib(m - 2 * j + 3) * (fib(m + 2) + fib(j - 2) * fib(m - j + 1))
    return Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1)) + Fraction(total, fib(2 * m + 2))


def _count_sequence_calls(monkeypatch):
    calls = Counter()
    for name in ("fib", "lucas"):
        real = getattr(twotree.formulas, name)

        def counted(n, _name=name, _real=real):
            calls[_name] += 1
            return _real(n)

        monkeypatch.setattr(twotree.formulas, name, counted)
    return calls


def _count_limit_reads(monkeypatch):
    reads = []
    real = sequences.index_limit
    monkeypatch.setattr(sequences, "index_limit", lambda: reads.append(1) or real())
    return reads


# Each closed form's branch with the largest |index| it reads, all past the tables.
CLOSED_FORMS = {
    "alternating": (lambda: bent_resistance_alternating(BentParams(3000, 1200)), 5998),
    "product": (lambda: bent_resistance_product(BentParams(3000, 1200)), 5998),
    "straight pair": (lambda: straight_pair_resistance(2998, 2, 2000), 5998),
    "straight end pair": (lambda: straight_pair_resistance(2998, 1, 2999), 2999),
    "tail sum": (lambda: tail_sum_closed_form(2500), 2501),
}


def test_bent_params_normalisation():
    p = BentParams(10, 4)
    assert (p.m, p.ell, p.p) == (8, 5, 2)
    assert BentParams.from_mk(8, 4) == BentParams(10, 4)
    with pytest.raises(ValueError):
        BentParams(6, 4)
    with pytest.raises(ValueError):
        BentParams(5, 3)


def test_bent_params_is_a_value():
    p = BentParams(10, 4)
    assert p == BentParams(n=10, k=4) and hash(p) == hash(BentParams(10, 4))
    assert p != BentParams(10, 5)
    assert repr(p) == "BentParams(n=10, k=4)"
    with pytest.raises(AttributeError):
        p.k = 5
    with pytest.raises(ValueError, match="^a bent chain needs n >= 6$"):
        BentParams(5, 3)
    with pytest.raises(ValueError, match=r"^bend vertex must satisfy 3 <= k <= n-3, got k=8 for n=10$"):
        BentParams(10, 8)
    with pytest.raises(ValueError, match="got k=8 for n=10"):
        p._replace(k=8)


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


def test_straight_closed_form_matches_the_sum():
    for m in range(1, 37):
        for j in range(1, m + 2):
            for k in range(1, m + 3 - j):
                assert straight_pair_resistance(m, j, k) == _straight_pair_sum(m, j, k), (m, j, k)
    for m in range(37, 401):
        assert straight_pair_resistance(m, 1, m + 1) == _straight_pair_sum(m, 1, m + 1)


def test_straight_pair_makes_a_constant_number_of_sequence_calls(monkeypatch):
    calls = _count_sequence_calls(monkeypatch)
    # The term-by-term sum would make five calls for each of the 4000 terms.
    value = straight_pair_resistance(5000, 2, 4000)
    assert sum(calls.values()) <= 6
    assert value == _straight_pair_sum(5000, 2, 4000)


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
    assert Fraction(_alternating_summand(4, 3), fib(10)) == Fraction(-9, 55)
    assert bent_resistance_alternating(p) == Fraction(6, 5)
    engine_value, _ = reduce_bent(7, 4)
    assert bent_resistance_alternating(BentParams(7, 4)) == engine_value


def test_alternating_closed_form_matches_the_sum():
    for m in range(4, 81):
        for k in range(3, m):
            assert bent_resistance_alternating(BentParams.from_mk(m, k)) == _alternating_sum(m, k), (m, k)


def test_alternating_closed_form_past_the_tables():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(25_001, 60_000)
        p = BentParams(n, rng.randint(3, n - 3))
        assert bent_resistance_alternating(p) == bent_resistance_product(p), p


def test_alternating_makes_a_constant_number_of_sequence_calls(monkeypatch):
    calls = _count_sequence_calls(monkeypatch)
    # The term-by-term sum would make three calls for each of the 1998 terms.
    value = bent_resistance_alternating(BentParams(3000, 2000))
    assert sum(calls.values()) <= 8
    assert value == _alternating_sum(2998, 2000)


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


@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_closed_form_reads_the_limit_once(monkeypatch, form):
    evaluate, _ = CLOSED_FORMS[form]
    calls = _count_sequence_calls(monkeypatch)
    reads = _count_limit_reads(monkeypatch)
    evaluate()
    assert sum(calls.values()) >= 2
    assert len(reads) == 1


def test_public_reads_check_the_limit_on_every_call(monkeypatch):
    reads = _count_limit_reads(monkeypatch)
    for n in (5, -7, 3000):
        fib(n)
        lucas(n)
    assert len(reads) == 6


@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_closed_form_refuses_past_its_largest_index(monkeypatch, form):
    evaluate, largest = CLOSED_FORMS[form]
    expected = evaluate()
    monkeypatch.setenv(ENV_CACHE_LIMIT, str(largest))
    assert evaluate() == expected

    def never(r):
        pytest.fail(f"index {r} was computed")

    monkeypatch.setenv(ENV_CACHE_LIMIT, str(largest - 1))
    monkeypatch.setattr(sequences, "_fib_pair", never)
    monkeypatch.setattr(sequences, "_lucas_pair", never)
    message = rf"^sequence index {largest} is past TWO_TREE_CACHE_LIMIT = {largest - 1}$"
    with pytest.raises(ValueError, match=message):
        evaluate()
