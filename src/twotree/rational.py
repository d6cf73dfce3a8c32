"""Exact rational arithmetic: the two circuit primitives plus rendering.

All resistances in this package are `fractions.Fraction` values, which are
kept in lowest terms with a positive denominator by construction.  Floating
point never enters except in the dedicated float oracle.
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


def series_combine(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Resistance of two resistors in series (nonnegative inputs).

    The same reduced Fraction as `a + b`, by Knuth's addition (TAOCP 2,
    4.5.1) on the integers.  With the operands ordered so that da <= db,
    the case where da divides db comes first: t = na*(db/da) + nb shares
    no factor with db/da (gcd(nb, db) = 1), so one exact division of t by
    da, or else one gcd(t, da), reduces the sum.  Chain sums take it: the
    denominator of a partial sum of tails divides the next tail's.
    Otherwise the two gcds of Knuth's general case run.
    """
    ra, rb = as_rational(a), as_rational(b)
    na, da, nb, db = ra.numerator, ra.denominator, rb.numerator, rb.denominator
    if na < 0 or nb < 0:
        raise ValueError("series combination needs nonnegative resistances")
    if da > db:
        na, da, nb, db = nb, db, na, da
    m, rest = divmod(db, da)
    if not rest:
        t = na * m + nb
        q, rest = divmod(t, da)
        if not rest:
            return _coprime_fraction(q, m)
        g = gcd(t, da)
        return _coprime_fraction(t // g, db // g)
    g = gcd(da, db)
    s = da // g
    t = na * (db // g) + nb * s
    g = gcd(t, g)
    return _coprime_fraction(t // g, s * (db // g))


def parallel_combine(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Resistance of two resistors in parallel: a*b / (a + b).

    Non-positive resistances are rejected as non-physical.
    """
    ra, rb = as_rational(a), as_rational(b)
    if ra.numerator <= 0 or rb.numerator <= 0:
        raise ValueError("parallel combination needs strictly positive resistances")
    return ra * rb / (ra + rb)


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
