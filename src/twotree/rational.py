"""Exact rational arithmetic: the two circuit primitives plus rendering.

All resistances in this package are `fractions.Fraction` values, which are
kept in lowest terms with a positive denominator by construction.  Floating
point never enters except in the dedicated float oracle.
"""

from __future__ import annotations

import decimal
from fractions import Fraction


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


def series_combine(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Resistance of two resistors in series (nonnegative inputs)."""
    ra, rb = as_rational(a), as_rational(b)
    if ra.numerator < 0 or rb.numerator < 0:
        raise ValueError("series combination needs nonnegative resistances")
    return ra + rb

def parallel_combine(a: Fraction | int, b: Fraction | int) -> Fraction:
    """Resistance of two resistors in parallel: a*b / (a + b).

    Non-positive resistances are rejected as non-physical.
    """
    ra, rb = as_rational(a), as_rational(b)
    if ra.numerator <= 0 or rb.numerator <= 0:
        raise ValueError("parallel combination needs strictly positive resistances")
    return ra * rb / (ra + rb)


def ratio_string(value: Fraction) -> str:
    """Render as "num/den", always including the denominator ("0/1", "6/5")."""
    q = as_rational(value)
    return f"{q.numerator}/{q.denominator}"


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering with the requested number of significant digits."""
    if digits < 1:
        raise ValueError("digits must be at least 1")
    q = as_rational(value)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        rendered = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
    return str(rendered)
