"""Reference resistances computed by the benchmark itself, never by twotree.

Each op's `exact` value is compared against these after the timed region.
The sequences here are a separate fast-doubling implementation, and interior
straight pairs go through a banded exact Laplacian solve, so a defect in the
package's own sequence cache or closed forms cannot hide behind a reference
that shares its code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _fib_pair(r: int) -> tuple[int, int]:
    """(F_r, F_{r+1}) for r >= 0 by fast doubling."""
    if r == 0:
        return 0, 1
    a, b = _fib_pair(r >> 1)
    even = a * (2 * b - a)
    odd = a * a + b * b
    return (even, odd) if r % 2 == 0 else (odd, even + odd)


def fib(r: int) -> int:
    if r < 0:
        raise ValueError("reference sequences take non-negative indices")
    return _fib_pair(r)[0]


def lucas(r: int) -> int:
    """L_r = F_{r-1} + F_{r+1}, with L_0 = 2."""
    if r == 0:
        return 2
    return fib(r - 1) + fib(r + 1)


def _tail(j: int) -> Fraction:
    """Closed form of sum_{i=1..j} F_i F_{i+1} / (L_i L_{i+1})."""
    return Fraction((j + 1) * lucas(j + 1) - fib(j + 1), 5 * lucas(j + 1))


def bent_end_to_end(n: int, k: int) -> Fraction:
    """r(1, n) of the bent chain: product form with closed-form tails."""
    m, ell, p = n - 2, n - k - 1, k - 2
    f2l, f2k = fib(2 * ell + 2), fib(2 * k - 2)
    first = f2l * fib(k - 1) ** 2 + f2k * fib(ell) ** 2
    second = f2l * fib(k - 2) ** 2 + f2k * fib(ell + 1) ** 2 + f2k * f2l
    core = Fraction(first * second, f2k * f2l * fib(2 * m + 2))
    return core + _tail(p) + _tail(ell)


def straight_end_to_end(n: int) -> Fraction:
    """r(1, n) of the straight chain: (m+1)/5 + 4 F_{m+1} / (5 L_{m+1})."""
    m = n - 2
    return Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))


def straight_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in (i + 1, i + 2) if j <= n]


def laplacian_resistance(n: int, edges: list[tuple[int, int]], i: int, j: int) -> Fraction:
    """Unit-weight r(i, j) by exact elimination inside the Laplacian's band.

    Grounds j, injects a unit current at i and reads the potential at i.
    The grounded Laplacian of a connected graph is positive definite, so
    elimination needs no pivoting and fill stays inside the band.
    """
    keep = [v for v in range(1, n + 1) if v != j]
    pos = {v: idx for idx, v in enumerate(keep)}
    size = len(keep)
    rows: list[dict[int, Fraction]] = [{} for _ in range(size)]
    for a, b in edges:
        for u, w in ((a, b), (b, a)):
            if u == j:
                continue
            row = rows[pos[u]]
            row[pos[u]] = row.get(pos[u], Fraction(0)) + 1
            if w != j:
                row[pos[w]] = row.get(pos[w], Fraction(0)) - 1
    band = max((abs(r - c) for r, row in enumerate(rows) for c in row), default=0)
    rhs = [Fraction(0)] * size
    rhs[pos[i]] = Fraction(1)
    for col in range(size):
        pivot = rows[col][col]
        for r in range(col + 1, min(size, col + band + 1)):
            factor = rows[r].get(col)
            if not factor:
                continue
            factor /= pivot
            for c, value in rows[col].items():
                if c >= col:
                    rows[r][c] = rows[r].get(c, Fraction(0)) - factor * value
            rhs[r] -= factor * rhs[col]
    x = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = rhs[r] - sum(v * x[c] for c, v in rows[r].items() if c > r)
        x[r] = acc / rows[r][r]
    return x[pos[i]]


def straight_pair(n: int, i: int, j: int) -> Fraction:
    if (i, j) == (1, n):
        return straight_end_to_end(n)
    return laplacian_resistance(n, straight_edges(n), i, j)
