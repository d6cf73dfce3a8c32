"""Exact rational primitives: combination laws and rendering."""

import math
import random
from fractions import Fraction

import pytest

from twotree import (
    as_rational,
    decimal_string,
    parallel_combine,
    ratio_string,
    series_combine,
)


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


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_as_rational_rejects_text():
    with pytest.raises(TypeError):
        as_rational("1/2")
    with pytest.raises(TypeError):
        series_combine("1/2", 1)


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


def test_ratio_string_round_trip():
    values = [Fraction(0), Fraction(6, 5), Fraction(-3, 7), Fraction(15, 11), Fraction(4)]
    for q in values:
        text = ratio_string(q)
        assert "/" in text
        assert Fraction(text) == q
    assert ratio_string(Fraction(0)) == "0/1"
    assert ratio_string(Fraction(2, 6)) == "1/3"


def test_decimal_string_digits():
    assert decimal_string(Fraction(6, 5)) == "1.2"
    assert decimal_string(Fraction(2, 3), digits=9) == "0.666666667"
    assert decimal_string(Fraction(15, 11), digits=5) == "1.3636"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1), digits=0)
