"""Exact rational primitives: combination laws and rendering."""

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotree.rational import (
    _coprime_fraction,
    as_rational,
    decimal_string,
    parallel_combine,
    ratio_string,
    series_combine,
)
from twotree.reduction import reduce_straight_state


def test_series_examples():
    assert series_combine(Fraction(1, 3), 1) == Fraction(4, 3)
    assert series_combine(0, Fraction(5, 7)) == Fraction(5, 7)
    assert series_combine(Fraction(2, 6), Fraction(1, 3)) == Fraction(2, 3)


def test_parallel_examples():
    assert parallel_combine(1, 2) == Fraction(2, 3)
    assert parallel_combine(1, 1) == Fraction(1, 2)
    assert parallel_combine(Fraction(2, 3), 2) == Fraction(1, 2)


def test_parallel_rejects_non_physical():
    with pytest.raises(ValueError):
        parallel_combine(0, 1)
    with pytest.raises(ValueError):
        parallel_combine(1, Fraction(-1, 2))


def test_series_rejects_negative():
    with pytest.raises(ValueError):
        series_combine(-1, 2)


_big = st.integers(0, 10**40)
_den = st.integers(1, 10**40)


@st.composite
def _divisor_pairs(draw):
    # b's denominator is a multiple of a's (before Fraction reduces them).
    da, f = draw(_den), draw(st.one_of(st.integers(1, 12), _den))
    return Fraction(draw(_big), da), Fraction(draw(_big), da * f)


@st.composite
def _exact_quotient_pairs(draw):
    # b = q/f - a, so the sum q/f has the quotient of the denominators as its
    # own: the divisor case whose second division is exact.
    a, f = Fraction(draw(_big), draw(_den)), draw(st.integers(1, 10**12))
    q = math.floor(a * f) + draw(st.integers(1, 10**6))
    return a, Fraction(q, f) - a


@st.composite
def _equal_denominator_pairs(draw):
    d = draw(_den)
    return Fraction(draw(_big), d), Fraction(draw(_big), d)


_operands = st.one_of(
    st.integers(0, 10**40),
    st.just(0),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 50), st.integers(1, 50)),
    st.builds(Fraction, _big, _den),
)

# Operands of denominator 1, which `_add_pairs` adds without a division,
# against a draw from each other strategy.
_whole = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(1, 10**40), st.builds(Fraction, _big))
_any_operand = st.one_of(
    _operands,
    st.one_of(_divisor_pairs(), _exact_quotient_pairs(), _equal_denominator_pairs()).flatmap(st.sampled_from),
)


@settings(deadline=None, max_examples=600)
@given(
    pair=st.one_of(
        _divisor_pairs(),
        _exact_quotient_pairs(),
        _equal_denominator_pairs(),
        st.tuples(_operands, _operands),
        st.tuples(_whole, _any_operand),
        st.tuples(st.builds(Fraction, st.integers(-(10**40), -1), _den), _operands),
    )
)
def test_series_combine_is_fraction_addition(pair):
    for a, b in (pair, pair[::-1]):
        if a < 0 or b < 0:
            with pytest.raises(ValueError):
                series_combine(a, b)
            continue
        value, ref = series_combine(a, b), Fraction(a) + Fraction(b)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (ref.numerator, ref.denominator)


def test_series_combine_sums_chain_tails_in_order():
    total = ref = Fraction(0)
    for tr in reduce_straight_state(300)[1].left_tails:
        total, ref = series_combine(total, tr.t), ref + tr.t
        assert (total.numerator, total.denominator) == (ref.numerator, ref.denominator)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_as_rational_rejects_text():
    with pytest.raises(TypeError):
        as_rational("1/2")
    with pytest.raises(TypeError):
        series_combine("1/2", 1)


def _coprime_pairs(rng):
    # Small and big ints, negative numerators, and denominators that are
    # multiples of the hash modulus 2**61 - 1, where Fraction hashes as inf.
    pairs = [(0, 1), (1, 1), (-1, 1), (5, 2**61 - 1), (-3, 2 * (2**61 - 1)), (7**400, 3**500)]
    while len(pairs) < 300:
        num = rng.choice([rng.randint(-50, 50), rng.randint(-(10**60), 10**60)])
        den = rng.choice([rng.randint(1, 50), rng.randint(1, 10**60)])
        g = math.gcd(num, den)
        pairs.append((num // g, den // g))
    return pairs


def test_coprime_fraction_behaves_as_fraction():
    pairs = _coprime_pairs(random.Random(20261019))
    for (num, den), (num2, den2) in zip(pairs, pairs[1:] + pairs[:1]):
        q, ref = _coprime_fraction(num, den), Fraction(num, den)
        other, ref_other = _coprime_fraction(num2, den2), Fraction(num2, den2)
        assert type(q) is Fraction
        assert (q.numerator, q.denominator) == (ref.numerator, ref.denominator) == (num, den)
        assert q == ref and hash(q) == hash(ref)
        assert str(q) == str(ref) and repr(q) == repr(ref) and float(q) == float(ref)
        assert {q: 1}[ref] == 1
        assert (q < other) == (ref < ref_other)
        assert q + other == ref + ref_other
        assert q - other == ref - ref_other
        assert q * other == ref * ref_other
        assert q**2 == ref**2
        if num2:
            assert q / other == ref / ref_other
        if den == 1:
            assert q == num and hash(q) == hash(num)


def _random_positive(rng):
    return Fraction(rng.randint(1, 400), rng.randint(1, 400))


def test_combination_properties_random():
    rng = random.Random(20240817)
    for _ in range(300):
        a, b, c = (_random_positive(rng) for _ in range(3))
        par = parallel_combine(a, b)
        ser = series_combine(a, b)
        assert par < min(a, b)
        assert ser > max(a, b)
        assert par == parallel_combine(b, a)
        assert ser == series_combine(b, a)
        assert parallel_combine(par, c) == parallel_combine(a, parallel_combine(b, c))
        assert series_combine(ser, c) == series_combine(a, series_combine(b, c))
        for value in (par, ser):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


# Ints, small fractions and fractions of thousands of bits, with zero and
# negative values that the combinators refuse.
_huge = st.integers(2**2000, 2**4000)
_signed_operands = st.one_of(
    st.integers(-5, 10**6),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(Fraction, _huge, _huge),
    st.builds(Fraction, st.integers(1, 10**6), _huge),
    st.builds(lambda a, b: -Fraction(a, b), _huge, _huge),
)


@settings(deadline=None, max_examples=400)
@given(a=_signed_operands, b=_signed_operands)
def test_combinators_are_plain_fraction_arithmetic(a, b):
    ra, rb = Fraction(a), Fraction(b)
    for combine, ref, refused in (
        (series_combine, lambda: ra + rb, ra < 0 or rb < 0),
        (parallel_combine, lambda: ra * rb / (ra + rb), ra <= 0 or rb <= 0),
    ):
        if refused:
            with pytest.raises(ValueError):
                combine(a, b)
            continue
        value, expected = combine(a, b), ref()
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def test_ratio_string_round_trip():
    values = [Fraction(0), Fraction(6, 5), Fraction(-3, 7), Fraction(15, 11), Fraction(4)]
    for q in values:
        text = ratio_string(q)
        assert "/" in text
        assert Fraction(text) == q
    assert ratio_string(Fraction(0)) == "0/1"
    assert ratio_string(Fraction(2, 6)) == "1/3"


def test_ratio_string_renders_past_the_int_digit_limit():
    # Python refuses str() of an int over 4300 digits by default; the exact
    # value is the product, so rendering must not refuse it.
    limit = sys.get_int_max_str_digits()
    q = Fraction(-(7 ** 5916), 3 ** 10480 + 2)  # 5000 and 5001 digits
    num, den = ratio_string(q).split("/")
    assert (len(num), len(den)) == (5001, 5001)  # the minus sign counts
    assert Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den))) == q
    assert sys.get_int_max_str_digits() == limit


def test_decimal_string_digits():
    assert decimal_string(Fraction(6, 5)) == "1.2"
    assert decimal_string(Fraction(2, 3), digits=9) == "0.666666667"
    assert decimal_string(Fraction(15, 11), digits=5) == "1.3636"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1), digits=0)
