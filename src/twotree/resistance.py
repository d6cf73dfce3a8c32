"""Ground-truth effective resistance, exact and floating point.

Both paths ground one vertex, strike its row and column from the Laplacian
and solve the remaining system, which is symmetric positive definite on a
connected graph.  The exact path solves it with fraction-free (Bareiss)
elimination restricted to each row's envelope, so the hot loop is pure
integer arithmetic and a banded chain costs O(n) big-integer operations.
The float path builds its own float64 Laplacian and hands the grounded
system to `numpy.linalg.solve`; it exists to cross-check the exact path,
never to feed it.  numpy is imported only when the float path runs, so
importing this module (and the package) does not load it.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import GraphError, WeightedGraph

# Both oracles hold a dense n x n Laplacian, so larger graphs are refused
# before it is built.
ORACLE_VERTEX_GUARD = 2000


def check_oracle_size(n: int) -> None:
    """Refuse a graph on more than ORACLE_VERTEX_GUARD vertices."""
    if n > ORACLE_VERTEX_GUARD:
        raise GraphError(
            f"the Laplacian oracles are guarded at n <= {ORACLE_VERTEX_GUARD}, got n = {n}"
        )


def _check_query(g: WeightedGraph, i: int, j: int) -> None:
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise GraphError(f"vertex pair ({i},{j}) out of range 1..{g.n}")
    check_oracle_size(g.n)


def _envelope_solve(upper: list[list[int]], lo: list[int], rhs: list[int]) -> tuple[list[int], int]:
    """Solve A x = rhs for a symmetric positive definite integer matrix A.

    `upper[r]` holds row r of A from the diagonal to hi[r], the last column
    of its envelope; `lo[r]` is the first nonzero column of row r.  Returns
    `(y, det)` with det = det(A) and y = det * x, both exact integers.

    The values are those of dense Bareiss elimination, where every entry is
    a minor of A and each division is exact.  Positive definiteness means
    no pivoting, so fill stays inside the envelope and only rows r with
    lo[r] <= k < r change at step k.  A row whose column k is still zero
    would only be multiplied by p_k / p_{k-1}; those factors telescope, so
    it is multiplied by p_{lo[r]-1} once, when it enters.  The active block
    stays symmetric, so a row's factor at step k is the pivot row's entry in
    its column and only the upper part of each row is kept.
    """
    size = len(upper)
    b = rhs[:]
    prev = 1  # the previous pivot p_{k-1}; p_{-1} = 1
    for k in range(size):
        width = len(upper[k])
        for r in range(k, k + width):
            if lo[r] == k:  # row r enters: its telescoped factor is p_{k-1}
                upper[r] = [prev * v for v in upper[r]]
                b[r] *= prev
        row_k = upper[k]
        pivot, b_k = row_k[0], b[k]
        for r in range(k + 1, k + width):
            if lo[r] > k:
                continue
            row_r, off = upper[r], r - k
            f = row_k[off]
            # hi[r] >= hi[k], so row r covers every column of the pivot row.
            for c in range(width - off):
                row_r[c] = (pivot * row_r[c] - f * row_k[off + c]) // prev
            for c in range(width - off, len(row_r)):
                row_r[c] = pivot * row_r[c] // prev
            b[r] = (pivot * b[r] - f * b_k) // prev
        prev = pivot
    y = [0] * size
    for r in range(size - 1, -1, -1):
        row = upper[r]
        acc = prev * b[r] - sum(row[t] * y[r + t] for t in range(1, len(row)))
        y[r] = acc // row[0]
    return y, prev


def resistance_exact(g: WeightedGraph, i: int, j: int, *, ground: int | None = None) -> Fraction:
    """Exact effective resistance between vertices i and j.

    Any vertex may be grounded; the answer is independent of the choice
    (the default grounds j).  Returns 0 for i == j without solving.
    """
    _check_query(g, i, j)
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
    size = g.n - 1
    pos = {v: v - 1 if v < w else v - 2 for v in range(1, g.n + 1) if v != w}
    # Off the diagonal, the nonzeros of the Laplacian are exactly the edges.
    lo = list(range(size))
    for a, b, _ in g.edges:
        if w not in (a, b):
            lo[pos[b]] = min(lo[pos[b]], pos[a])
    hi = list(range(size))
    for r in range(size):
        hi[lo[r]] = max(hi[lo[r]], r)
    for r in range(1, size):
        hi[r] = max(hi[r], hi[r - 1])
    upper = [matrix[r][r : hi[r] + 1] for r in range(size)]

    rhs = [0] * size
    if i != w:
        rhs[pos[i]] = scale
    if j != w:
        rhs[pos[j]] = -scale
    y, det = _envelope_solve(upper, lo, rhs)
    yi = y[pos[i]] if i != w else 0
    yj = y[pos[j]] if j != w else 0
    return Fraction(yi - yj, det)


def resistance_float(g: WeightedGraph, i: int, j: int) -> float:
    """Effective resistance from a float64 solve of the Laplacian grounded at j."""
    _check_query(g, i, j)
    if i == j:
        return 0.0
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")
    # Imported here, after every refusal, so only a float solve pays for numpy.
    import numpy as np

    lap = np.zeros((g.n, g.n))
    for a, b, wgt in g.edges:
        w = float(wgt)
        lap[a - 1, b - 1] -= w
        lap[b - 1, a - 1] -= w
        lap[a - 1, a - 1] += w
        lap[b - 1, b - 1] += w
    # Grounding j: its potential is pinned to 0 and drops out of every other row.
    lap[j - 1, :] = 0.0
    lap[:, j - 1] = 0.0
    lap[j - 1, j - 1] = 1.0
    current = np.zeros(g.n)
    current[i - 1] = 1.0
    return float(np.linalg.solve(lap, current)[i - 1])
