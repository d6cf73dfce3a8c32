"""Closed-form resistance values for the two 2-tree families.

Everything here is a pure function of Fibonacci/Lucas numbers evaluated as
exact rationals; the reduction engine and the Laplacian oracle provide the
independent confirmations.

Each closed form checks TWO_TREE_CACHE_LIMIT once, on the largest |index| it
reads, and then reads through the unchecked `fib` and `lucas` bound here.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import sequences
from .sequences import _fib as fib, _lucas as lucas, check_index


def closed_form_work(n: int) -> int:
    """One closed-form value on n vertices, rendered, in units of about 1 ns:
    gcd and rendering of O(n) bits grow as n^2.  Above `product` with an edge
    bend, the slowest: a record took 0.2-0.3 ms / 0.29-0.32 s / 25 s at n =
    2000 / 10^5 / 10^6 (Python 3.11, one core of a 2-vCPU VM).
    The library's bound on these routes is TWO_TREE_CACHE_LIMIT."""
    return 100_000 + 100 * n + n * n // 16


class BentParams(namedtuple("BentParams", ("n", "k"))):
    """Normalised parameters of a bent chain: n vertices, bend at k.

    Derived quantities: m = n - 2 triangles, left transform count p = k - 2,
    right transform count ell = m - k + 1 = n - k - 1.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int) -> "BentParams":
        if n < 6:
            raise ValueError("a bent chain needs n >= 6")
        if not 3 <= k <= n - 3:
            raise ValueError(f"bend vertex must satisfy 3 <= k <= n-3, got k={k} for n={n}")
        return super().__new__(cls, n, k)

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through here, so it validates too.
        return cls(*fields)

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

    Valid for 1 <= j < j + k <= m + 2.  Closes the chain's sum over i = 1..k of
    (F_i F_{i+2j-2} - F_{i-1} F_{i+2j-3}) F_{2m-2i-2j+5} / F_{2m+2}.  By F_a F_b =
    (L_{a+b} - (-1)^a L_{b-a})/5 each weight is (L_{2i+2j-3} - 2(-1)^i L_{2j-2})/5, and
    L_a F_b = F_{a+b} + (-1)^a F_{b-a} leaves k F_{2m+2} minus a step-4 sum of F, telescoped by
    L_{t+2} - L_{t-2} = 5 F_t, and an alternating step-2 sum, telescoped by L_{t+1} + L_{t-1} =
    5 F_t.  L_a L_b = L_{a+b} + (-1)^b L_{a-b} then gives, with h = 2m+2 and u = 2m-4j+6,

        25 F_h r = 5k F_h + 2 L_h + L_u + L_{u-4k} - 2 (-1)^k (L_{h-2k} + L_{u-2k}),

    every index within +-h.  The end pair keeps (m+1)/5 + 4 F_{m+1} / (5 L_{m+1}), with
    half the indices.
    """
    if m < 1:
        raise ValueError("need at least one triangle (m >= 1)")
    if j < 1 or k < 1 or j + k > m + 2:
        raise ValueError(f"vertex pair (j={j}, j+k={j + k}) out of range 1..{m + 2}")
    if (j, k) == (1, m + 1):
        check_index(m + 1)
        return Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    h, u = 2 * m + 2, 2 * m - 4 * j + 6
    check_index(h)
    f, swing = fib(h), lucas(h - 2 * k) + lucas(u - 2 * k)
    return Fraction(5 * k * f + 2 * lucas(h) + lucas(u) + lucas(u - 4 * k) - 2 * (-1) ** k * swing, 25 * f)


def tail_sum(j: int) -> Fraction:
    """Partial sum of F_i F_{i+1} / (L_i L_{i+1}) for i = 1..j, exactly.

    Steps F and L by their recurrences and adds the terms one by one in
    lowest terms, storing nothing: the independent side of the closed form
    N_j / (5 L_{j+1}) that `bent_resistance_product` inlines and identity
    I-B.51/52 states.
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


def bent_resistance_product(params: BentParams) -> Fraction:
    """End-to-end bent-chain resistance in product form.

    A ratio of two Fibonacci quadratics over F_{2k-2} F_{2l+2} F_{2m+2},
    plus the two tail sums accumulated by the side reductions, each in
    closed form: N_j / (5 L_{j+1}) with N_j = (j+1) L_{j+1} - F_{j+1}, for
    j = p and l.  As F_{2j+2} = F_{j+1} L_{j+1}, with p = k - 2 the tails
    share the core's denominator, and the sum is one Fraction:

        (5 first second + F_{2m+2} (N_p F_{p+1} F_{2l+2} + N_l F_{l+1} F_{2k-2}))
            / (5 F_{2k-2} F_{2l+2} F_{2m+2}).
    """
    k, ell, m, p = params.k, params.ell, params.m, params.p
    check_index(2 * m + 2)
    f2l = fib(2 * ell + 2)
    f2k = fib(2 * k - 2)
    f2m = fib(2 * m + 2)
    fp, fl = fib(p + 1), fib(ell + 1)  # F_{k-1} and F_{l+1}
    first = f2l * fp**2 + f2k * fib(ell) ** 2
    second = f2l * fib(k - 2) ** 2 + f2k * fl**2 + f2k * f2l
    tails = ((p + 1) * lucas(p + 1) - fp) * fp * f2l + ((ell + 1) * lucas(ell + 1) - fl) * fl * f2k
    return Fraction(5 * first * second + f2m * tails, 5 * f2k * f2l * f2m)


def _alternating_summand(m: int, j: int) -> int:
    """The j-th signed summand of the alternating form, term by term, each read checked."""
    fib = sequences.fib
    sign = -1 if j % 2 else 1
    return sign * fib(m - 2 * j + 3) * (fib(m + 2) + fib(j - 2) * fib(m - j + 1))


def bent_resistance_alternating(params: BentParams) -> Fraction:
    """End-to-end bent-chain resistance in alternating-sum form, closed.

    The straight end pair E = (m+1)/5 + 4 F_{m+1} / (5 L_{m+1}) plus the sum over
    the bend positions j = 3..k of (-1)^j F_a (F_{m+2} + F_b F_c) / F_{2m+2}, with
    a = m-2j+3, b = j-2 and c = m-j+1 (`_alternating_summand`).  F_{m+2} times the
    alternating step-2 sum of F_a telescopes by L_{t+1} + L_{t-1} = 5 F_t.  The
    triple product expands by 5 F_a F_b = L_{a+b} - (-1)^b L_{a-b} and L_a F_b =
    F_{a+b} + (-1)^a F_{b-a} into F_{2m-2j+2}, F_{2m-4j+6} and F_{2j-4}, whose sums
    telescope by the same rule or by L_{t+2} - L_{t-2} = 5 F_t.  With h = 2m+2 and
    5 F_{2m} + L_{2m-2} = L_h this leaves

        25 F_h (r - E) = (-1)^k (5 F_{h-2k+2} + 5 (-1)^m F_{2k} + L_{h-2k-1} + (-1)^m L_{2k-3})
                         + L_{h-4k+2} - L_h - 16 (-1)^m.

    F_h = F_{m+1} L_{m+1} and 5 F_{m+1}^2 = L_h + 2 (-1)^m put E over the same
    denominator: 25 F_h E = 5 (m+1) F_h + 4 L_h + 8 (-1)^m.  Every index is within
    +-h; inner indices may go negative, and the signed-index extension handles them.
    """
    m, k, h, t = params.m, params.k, 2 * params.m + 2, (-1) ** params.m
    check_index(h)
    swing = (-1) ** k * (5 * fib(h - 2 * k + 2) + 5 * t * fib(2 * k) + lucas(h - 2 * k - 1) + t * lucas(2 * k - 3))
    f = fib(h)
    return Fraction(5 * (m + 1) * f + swing + lucas(h - 4 * k + 2) + 3 * lucas(h) - 8 * t, 25 * f)


def telescoping_difference(m: int, k: int) -> Fraction:
    """Exact value of r_{m,k+1} - r_{m,k} predicted by the alternating form."""
    return Fraction(_alternating_summand(m, k + 1), sequences.fib(2 * m + 2))
