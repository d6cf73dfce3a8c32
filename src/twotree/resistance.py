"""Ground-truth effective resistance, exact and floating point.

The exact path grounds one vertex, strikes its row and column from the
Laplacian and solves the remaining system with fraction-free (Bareiss)
elimination, so the hot loop is pure integer arithmetic.  The float path
goes through the Moore-Penrose pseudoinverse and exists to cross-check the
exact path, never to feed it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import GraphError, WeightedGraph

FLOAT_VERTEX_GUARD = 2000


def _check_pair(g: WeightedGraph, i: int, j: int) -> None:
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise GraphError(f"vertex pair ({i},{j}) out of range 1..{g.n}")


def _solve_fraction_free(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve an integer linear system exactly via Bareiss elimination."""
    size = len(matrix)
    aug = [row[:] + [rhs[r]] for r, row in enumerate(matrix)]
    prev = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise GraphError("singular system: the graph is not connected")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, size):
            factor = aug[r][col]
            row_r = aug[r]
            row_c = aug[col]
            for c in range(col + 1, size + 1):
                row_r[c] = (row_r[c] * pivot - factor * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot
    x = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = Fraction(aug[r][size])
        for c in range(r + 1, size):
            acc -= aug[r][c] * x[c]
        x[r] = acc / aug[r][r]
    return x


def resistance_exact(g: WeightedGraph, i: int, j: int, *, ground: int | None = None) -> Fraction:
    """Exact effective resistance between vertices i and j.

    Any vertex may be grounded; the answer is independent of the choice
    (the default grounds j).  Returns 0 for i == j without solving.
    """
    _check_pair(g, i, j)
    if i == j:
        return Fraction(0)
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")
    w = j if ground is None else ground
    if not 1 <= w <= g.n:
        raise GraphError(f"ground vertex {w} out of range 1..{g.n}")

    scale, matrix = g.laplacian()
    del matrix[w - 1]
    for row in matrix:
        del row[w - 1]
    pos = {v: v - 1 if v < w else v - 2 for v in (i, j) if v != w}
    rhs = [0] * (g.n - 1)
    if i != w:
        rhs[pos[i]] = scale
    if j != w:
        rhs[pos[j]] = -scale
    x = _solve_fraction_free(matrix, rhs)
    xi = x[pos[i]] if i != w else Fraction(0)
    xj = x[pos[j]] if j != w else Fraction(0)
    return xi - xj


def resistance_float(g: WeightedGraph, i: int, j: int) -> float:
    """Effective resistance via the pseudoinverse of the Laplacian (float64)."""
    _check_pair(g, i, j)
    if g.n > FLOAT_VERTEX_GUARD:
        raise GraphError(
            f"float oracle is guarded at n <= {FLOAT_VERTEX_GUARD}, got n = {g.n}"
        )
    if i == j:
        return 0.0
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")
    lap = np.zeros((g.n, g.n))
    for a, b, wgt in g.edges:
        w = float(wgt)
        lap[a - 1, b - 1] -= w
        lap[b - 1, a - 1] -= w
        lap[a - 1, a - 1] += w
        lap[b - 1, b - 1] += w
    pinv = np.linalg.pinv(lap)
    vec = np.zeros(g.n)
    vec[i - 1] = 1.0
    vec[j - 1] = -1.0
    return float(vec @ pinv @ vec)
