"""Exact rational arithmetic: the two circuit primitives plus rendering.

Resistances are `fractions.Fraction` values (int pairs inside the reduction
engine), in lowest terms with a positive denominator by construction.
Floating point never enters except in the dedicated float oracle.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import gcd


def as_rational(value: Fraction | int) -> Fraction:
    """Coerce an int or a Fraction to an exact Fraction.

    Anything else is rejected: a float would silently smuggle rounding error
    into an exact pipeline, and text is parsed where it is read
    (`Fraction(text)`).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator, for a pair already in lowest terms.

    The caller guarantees gcd(numerator, denominator) == 1 and denominator
    > 0; nothing is checked and no gcd runs.  It fills `Fraction`'s two
    slots, `_numerator` and `_denominator`, as `Fraction._from_coprime_ints`
    does on Python 3.12+; that layout is the same on 3.10-3.13, where
    `Fraction(n, d, _normalize=False)` exists only up to 3.11.
    """
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


def _add_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Knuth's addition (TAOCP 2, 4.5.1) of two unchecked (numerator, denominator) pairs.

    Both in lowest terms with positive denominators; so is the sum.  With
    da <= db, when da divides db, t = na*(db/da) + nb shares no factor with
    db/da (gcd(nb, db) = 1), so one exact division of t by da, or else one
    gcd(t, da), reduces the sum; partial sums of chain tails take this case.
    When da is 1 (an int, such as a unit chain edge), na*db + nb over db
    is already reduced, and no division runs.  Otherwise the two gcds of
    the general case run.
    """
    na, da = a
    nb, db = b
    if da > db:
        na, da, nb, db = nb, db, na, da
    if da == 1:
        return na * db + nb, db
    m, rest = divmod(db, da)
    if not rest:
        t = na * m + nb
        q, rest = divmod(t, da)
        if not rest:
            return q, m
        g = gcd(t, da)
        return t // g, db // g
    g = gcd(da, db)
    s = da // g
    t = na * (db // g) + nb * s
    g = gcd(t, g)
    return t // g, s * (db // g)


def series_combine(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Resistance of two resistors in series (nonnegative inputs).

    The same reduced Fraction as `a + b`, by `_add_pairs`, the integer
    kernel the reduction engine adds with.
    """
    ra, rb = as_rational(a), as_rational(b)
    if ra.numerator < 0 or rb.numerator < 0:
        raise ValueError("series combination needs nonnegative resistances")
    return _coprime_fraction(*_add_pairs((ra.numerator, ra.denominator), (rb.numerator, rb.denominator)))


def _parallel_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a*b / (a + b) of two unchecked (numerator, denominator) pairs.

    Both positive and in lowest terms; so is the result.  With a = na/da and
    b = nb/db it is na*nb / (na*db + nb*da), reduced by one gcd.
    """
    na, da = a
    nb, db = b
    num, den = na * nb, na * db + nb * da
    g = gcd(num, den)
    return num // g, den // g


def parallel_combine(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Resistance of two resistors in parallel: a*b / (a + b).

    The same reduced Fraction as plain Fraction arithmetic, by
    `_parallel_pairs`.  Non-positive resistances are rejected as
    non-physical.
    """
    ra, rb = as_rational(a), as_rational(b)
    if ra.numerator <= 0 or rb.numerator <= 0:
        raise ValueError("parallel combination needs strictly positive resistances")
    return _coprime_fraction(*_parallel_pairs((ra.numerator, ra.denominator), (rb.numerator, rb.denominator)))


def _int_string(i: int) -> str:
    # str() refuses ints longer than sys.get_int_max_str_digits() (4300 by
    # default); Decimal renders any int exactly, and changes no global limit.
    try:
        return str(i)
    except ValueError:
        return str(decimal.Decimal(i))


def ratio_string(value: Fraction) -> str:
    """Render as "num/den", always including the denominator ("0/1", "6/5")."""
    q = as_rational(value)
    return f"{_int_string(q.numerator)}/{_int_string(q.denominator)}"


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering with the requested number of significant digits."""
    if digits < 1:
        raise ValueError("digits must be at least 1")
    q = as_rational(value)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        rendered = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
    return str(rendered)
