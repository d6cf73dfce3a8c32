"""Closed-form resistance values for the two 2-tree families.

Everything here is a pure function of Fibonacci/Lucas numbers evaluated as
exact rationals; the reduction engine and the Laplacian oracle provide the
independent confirmations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .sequences import fib, lucas


@dataclass(frozen=True)
class BentParams:
    """Normalised parameters of a bent chain: n vertices, bend at k.

    Derived quantities: m = n - 2 triangles, left transform count p = k - 2,
    right transform count ell = m - k + 1 = n - k - 1.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 6:
            raise ValueError("a bent chain needs n >= 6")
        if not 3 <= self.k <= self.n - 3:
            raise ValueError(
                f"bend vertex must satisfy 3 <= k <= n-3, got k={self.k} for n={self.n}"
            )

    @property
    def m(self) -> int:
        return self.n - 2

    @property
    def ell(self) -> int:
        return self.m - self.k + 1

    @property
    def p(self) -> int:
        return self.k - 2

    @classmethod
    def from_mk(cls, m: int, k: int) -> "BentParams":
        return cls(n=m + 2, k=k)


def straight_pair_resistance(m: int, j: int, k: int) -> Fraction:
    """Resistance between vertices j and j+k of the straight chain with m triangles.

    Evaluates the explicit Fibonacci sum; valid for 1 <= j < j + k <= m + 2.
    """
    if m < 1:
        raise ValueError("need at least one triangle (m >= 1)")
    if j < 1 or k < 1 or j + k > m + 2:
        raise ValueError(f"vertex pair (j={j}, j+k={j + k}) out of range 1..{m + 2}")
    total = 0
    for i in range(1, k + 1):
        weight = fib(i) * fib(i + 2 * j - 2) - fib(i - 1) * fib(i + 2 * j - 3)
        total += weight * fib(2 * m - 2 * i - 2 * j + 5)
    return Fraction(total, fib(2 * m + 2))


def tail_sum(j: int) -> Fraction:
    """Partial sum of F_i F_{i+1} / (L_i L_{i+1}) for i = 1..j, exactly.

    Steps F and L by their recurrences and adds the terms one by one in
    lowest terms, storing nothing: the independent side of the closed form.
    """
    if j < 0:
        raise ValueError("tail sums are defined for j >= 0")
    num, den = 0, 1
    f, f_next, l, l_next = 1, 1, 1, 3  # F_1, F_2, L_1, L_2
    for _ in range(j):
        num, den = num * l * l_next + f * f_next * den, den * l * l_next
        g = gcd(num, den)
        num, den = num // g, den // g
        f, f_next, l, l_next = f_next, f + f_next, l_next, l + l_next
    return Fraction(num, den)


def tail_sum_closed_form(j: int) -> Fraction:
    """The same partial sum as ((j+1) L_{j+1} - F_{j+1}) / (5 L_{j+1})."""
    if j < 0:
        raise ValueError("tail sums are defined for j >= 0")
    return Fraction((j + 1) * lucas(j + 1) - fib(j + 1), 5 * lucas(j + 1))


def bent_resistance_product(params: BentParams) -> Fraction:
    """End-to-end bent-chain resistance in product form.

    A ratio of two Fibonacci quadratics over F_{2k-2} F_{2l+2} F_{2m+2},
    plus the two tail sums accumulated by the side reductions, each in
    closed form.
    """
    k, ell, m = params.k, params.ell, params.m
    f2l = fib(2 * ell + 2)
    f2k = fib(2 * k - 2)
    first = f2l * fib(k - 1) ** 2 + f2k * fib(ell) ** 2
    second = f2l * fib(k - 2) ** 2 + f2k * fib(ell + 1) ** 2 + f2k * f2l
    core = Fraction(first * second, f2k * f2l * fib(2 * m + 2))
    return core + tail_sum_closed_form(params.p) + tail_sum_closed_form(ell)


def _alternating_summand(m: int, j: int, f_m2: int) -> int:
    """The j-th signed summand, given f_m2 = F_{m+2}, which every summand shares."""
    sign = -1 if j % 2 else 1
    return sign * fib(m - 2 * j + 3) * (f_m2 + fib(j - 2) * fib(m - j + 1))


def alternating_term(m: int, j: int) -> int:
    """The j-th signed summand of the alternating bent-chain form (an integer)."""
    return _alternating_summand(m, j, fib(m + 2))


def bent_resistance_alternating(params: BentParams) -> Fraction:
    """End-to-end bent-chain resistance in alternating-sum form.

    (m+1)/5 + 4 F_{m+1} / (5 L_{m+1}) plus a signed Fibonacci sum over the
    bend positions 3..k, divided by F_{2m+2}.  Inner indices may go
    negative; the signed-index extension handles them.
    """
    m, k = params.m, params.k
    f_m2 = fib(m + 2)
    swing = sum(_alternating_summand(m, j, f_m2) for j in range(3, k + 1))
    return (
        Fraction(m + 1, 5)
        + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
        + Fraction(swing, fib(2 * m + 2))
    )


def telescoping_difference(m: int, k: int) -> Fraction:
    """Exact value of r_{m,k+1} - r_{m,k} predicted by the alternating form."""
    return Fraction(alternating_term(m, k + 1), fib(2 * m + 2))
