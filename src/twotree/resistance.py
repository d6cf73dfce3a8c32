"""Ground-truth effective resistance, exact and floating point.

Both paths ground one vertex: its row and column of the Laplacian become
those of the identity, and the system left is symmetric positive definite
on a connected graph.  The exact path builds only each row's envelope,
straight from the edge list, and solves it with fraction-free (Bareiss)
elimination inside that envelope, so the hot loop is pure integer
arithmetic and a banded chain costs O(n) memory and big-integer operations.
The float path builds its own upper band in plain Python floats, also from
the edge list, and runs Gaussian elimination without pivoting inside it: a
chain's half-bandwidth is at most 3, so it costs O(n) float operations.  It
exists to cross-check the exact path, never to feed it, and shares no code
with it past the query checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .graphs import GraphError, WeightedGraph

# The exact oracle's time grows with its envelopes' bit work, so larger graphs
# are refused before either oracle runs.
ORACLE_VERTEX_GUARD = 2000

# The float band solve does about n * (w + 1)^2 multiply-adds for
# half-bandwidth w: about 3 * 10^4 on a 2000-vertex chain, but about n^3 on a
# shuffled or dense graph.  This bound, a few seconds, is checked before the
# band is built.
FLOAT_BAND_WORK_GUARD = 10**8


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
    w = j if ground is None else ground
    if not 1 <= w <= g.n:
        raise GraphError(f"ground vertex {w} out of range 1..{g.n}")
    if i == j:
        return Fraction(0)
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")

    scale = lcm(*(wt.denominator for _, _, wt in g.edges))
    # Grounding w: its row and column become the identity's, so vertex v
    # keeps row v - 1.  Off the diagonal, the nonzeros are exactly the edges.
    lo = list(range(g.n))
    for a, b, _ in g.edges:
        if w not in (a, b):
            lo[b - 1] = min(lo[b - 1], a - 1)
    reach = list(range(g.n))
    for r, first in enumerate(lo):
        reach[first] = max(reach[first], r)
    upper = [[0] * (hi - r + 1) for r, hi in enumerate(accumulate(reach, max))]
    for a, b, wt in g.edges:
        c = wt.numerator * (scale // wt.denominator)
        upper[a - 1][0] += c
        upper[b - 1][0] += c
        if w not in (a, b):
            upper[a - 1][b - a] = -c
    upper[w - 1][0] = 1

    rhs = [0] * g.n
    rhs[i - 1], rhs[j - 1] = scale, -scale
    rhs[w - 1] = 0
    y, det = _envelope_solve(upper, lo, rhs)
    return Fraction(y[i - 1] - y[j - 1], det)


def resistance_float(g: WeightedGraph, i: int, j: int) -> float:
    """Effective resistance from a float solve of the Laplacian grounded at j.

    Row r of the band holds columns r..r + w of the grounded Laplacian, where
    w is the largest b - a over edges off j.  The system is symmetric
    positive definite, so elimination needs no pivoting and its fill stays
    inside the band.
    """
    _check_query(g, i, j)
    if i == j:
        return 0.0
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")
    n = g.n
    width = max((b - a for a, b, _ in g.edges if j not in (a, b)), default=0)
    work = n * (width + 1) ** 2
    if work > FLOAT_BAND_WORK_GUARD:
        raise GraphError(
            f"the float oracle's band solve needs about {work} operations"
            f" (half-bandwidth {width}), over {FLOAT_BAND_WORK_GUARD}"
        )
    band = [[0.0] * (width + 1) for _ in range(n)]
    for a, b, wgt in g.edges:
        c = float(wgt)
        band[a - 1][0] += c
        band[b - 1][0] += c
        # Grounding j: its potential is pinned to 0 and drops out of every other row.
        if j not in (a, b):
            band[a - 1][b - a] = -c
    band[j - 1][0] = 1.0
    x = [0.0] * n
    x[i - 1] = 1.0
    for k, row_k in enumerate(band):
        pivot, x_k = row_k[0], x[k]
        for d in range(1, width + 1):
            # Entry (k, k + d), also (k + d, k) by symmetry; zero past column n.
            f = row_k[d] / pivot
            if f == 0.0:
                continue
            row_r = band[k + d]
            for c in range(width + 1 - d):
                row_r[c] -= f * row_k[d + c]
            x[k + d] -= f * x_k
    for r in range(n - 1, -1, -1):
        row = band[r]
        x[r] = (x[r] - sum(map(mul, row[1:], x[r + 1 : r + width + 1]))) / row[0]
    return x[i - 1]
