"""Ground-truth effective resistance, exact and floating point.

The exact path answers a unit chain, `straight_2tree(n)` or `bent_2tree(n,
k)` as `graphs.chain_shape` reads it off the edge list, by Kirchhoff
shooting.  It grounds v_1 = 0 and takes v_2, and v_{k+2} with a bend, as
parameters; each Kirchhoff row then gives the potential of its largest
neighbour as an integer affine form in them, with no division, in O(n)
big-integer additions.  The rows left over, row n and with a bend row
k + 1, make a 1x1 or 2x2 integer system, solved by Cramer's rule into one
Fraction: one gcd in all.

Every other graph, weighted, relabelled or not a chain, takes the general
exact path, and the float path takes every graph.  Both ground one vertex:
its row and column of the Laplacian become those of the identity, and the
system left is symmetric positive definite on a connected graph.  The exact
general path builds only each row's envelope, straight from the edge list,
and solves it with fraction-free (Bareiss) elimination inside that
envelope, so the hot loop is pure integer arithmetic and a banded graph
costs O(n) memory and big-integer operations.  The float path builds its
own upper band in plain Python floats, also from the edge list, and runs
Gaussian elimination without pivoting inside it: a chain's half-bandwidth
is at most 3, so it costs O(n) float operations.  It exists to cross-check
the exact path, never to feed it, and shares no code with it past the query
checks, which read the band off the edge list.  Each path refuses a graph
priced over MAX_SWEEP_COST before it allocates a row; `exact_work` prices
every graph, a chain too, as the envelope solve.

A recognised chain is connected by construction, so the exact path does
not check it for connectivity or read its weights, all 1, again; it is
still priced as the envelope solve, until the chain path has a price of its
own.  The general exact path and the float path check every graph they
solve with `WeightedGraph.is_connected`, which accepts a chain without a
walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .graphs import _UNIT, GraphError, WeightedGraph, chain_shape, check_work


def exact_work(n: int, width: int, diagonal: int) -> int:
    """The exact oracle in units of about 1 ns, on n vertices whose grounded
    Laplacian has half-bandwidth `width` and mean diagonal entry `diagonal`:
    20 us a vertex to build, 100 n^2 for its O(n)-bit rows, and up to
    (width + 1)^2 row operations a vertex on minors that grow by about
    diagonal.bit_length() bits a step (Hadamard's and the AM-GM inequality),
    with divisions quadratic in their length.  On the general path, 0.18 /
    0.56 s on a mirrored centred bend (v -> n + 1 - v) at n = 2000 / 3000;
    0.08 / 0.64 s on a chain shuffled at n = 200 / 400, whose envelope
    stays sparse; 1.4-1.7 s on a band of half-bandwidth 2 weighted a/b
    (a, b <= 9) at n = 1000, priced by `general_work`."""
    return 100_000 + 20_000 * n + 100 * n * n + n * (width + 1) ** 2 * (200 + (n * diagonal.bit_length()) ** 2 // 1620)


def general_work(g: WeightedGraph, width: int) -> tuple[int, int, list[int]]:
    """`exact_work` of g on the exact oracle's general path, with the lcm
    `scale` of its weights' denominators and its weights times `scale`,
    which the solve reads.

    The diagonal passed on is `scale` times the mean diagonal entry of
    scale * L, rounded up.  On unit weights that is the mean degree, whose
    bit length (3 on a chain) is about twice the 1.4 bits a step by which a
    chain's minors grow; this price is fitted to that.  Every minor of
    scale * L carries a power of the scale, so log2(scale) bits a step are
    growth it really has; counting them twice keeps the same margin.  A band
    weighted a/b (a, b <= 9, scale 2520) grows by 12.9 bits a step and is
    priced at 26, where the mean alone gave 14 and the price fell under its
    time.
    """
    scale = lcm(*(wt.denominator for _, _, wt in g.edges))
    weights = [wt.numerator * (scale // wt.denominator) for _, _, wt in g.edges]
    return exact_work(g.n, width, scale * -(-2 * sum(weights) // g.n)), scale, weights


def float_work(n: int, width: int) -> int:
    """The float oracle in units of about 1 ns, on n vertices whose grounded
    Laplacian has half-bandwidth `width`: n (width + 1)^2 multiply-adds, so
    0.8 s on a chain of 10^5 vertices but about n^3 on a shuffled one."""
    return 200_000 + 5_000 * n + 1_000 * n * (width + 1) ** 2


def _check_query(g: WeightedGraph, i: int, j: int, ground: int) -> int:
    """Refuse a vertex out of range; return the half-bandwidth of g grounded at
    `ground`, the largest b - a over the edges off it."""
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise GraphError(f"vertex pair ({i},{j}) out of range 1..{g.n}")
    if not 1 <= ground <= g.n:
        raise GraphError(f"ground vertex {ground} out of range 1..{g.n}")
    return max((b - a for a, b, _ in g.edges if a != ground != b), default=0)


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


def _shoot(v: list[int], n: int, bend: int | None, current: list[int]) -> None:
    """Fill in v[3..n], one coordinate of a unit chain's potentials, from
    v[1] = 0, v[2] and, with a bend at k, v[k + 2].

    Kirchhoff row r, deg(r) v_r minus v at each neighbour = current[r], gives
    v at the row's largest neighbour, which no earlier row reaches.  Rows
    1..n-2 do so, except row k + 1, whose largest neighbour is k + 2.
    """
    v[3] = -v[2] - current[1]  # row 1, with v[1] = 0
    if n > 3:
        v[4] = 3 * v[2] - v[3] - current[2]
    for r in range(3, n - 1 if bend is None else bend):
        v[r + 2] = 4 * v[r] - v[r - 2] - v[r - 1] - v[r + 1] - current[r]
    if bend is None:
        return
    k = bend
    v[k + 3] = 5 * v[k] - v[k - 2] - v[k - 1] - v[k + 1] - v[k + 2] - current[k]
    if k + 2 < n - 1:
        v[k + 4] = 4 * v[k + 2] - v[k] - v[k + 1] - v[k + 3] - current[k + 2]
    if k + 3 < n - 1:  # the bend edge makes k, not k + 1, a neighbour of k + 3
        v[k + 5] = 4 * v[k + 3] - v[k] - v[k + 2] - v[k + 4] - current[k + 3]
    for r in range(k + 4, n - 1):
        v[r + 2] = 4 * v[r] - v[r - 2] - v[r - 1] - v[r + 1] - current[r]


def _chain_solve(n: int, bend: int | None, i: int, j: int) -> Fraction:
    """r(i, j) on `straight_2tree(n)`, or on `bent_2tree(n, bend)`, i != j.

    Grounds v_1 = 0 and takes v_2 = s, and v_{k+2} = t with a bend, as
    parameters; every potential is then p + s q (+ t u) with integer
    coordinates that `_shoot` fills in with additions and small multiples
    only.  Row n, and row k + 1 with a bend, are left over: with the current
    1 in at i and out at j they give a 1x1 or 2x2 integer system for the
    parameters, solved by Cramer's rule.  Row n - 1 adds nothing, as the
    rows of a Laplacian and the currents both sum to zero.
    """
    current = [0] * (n + 1)
    current[i], current[j] = 1, -1
    zero = [0] * (n + 1)
    p = [0] * (n + 1)
    _shoot(p, n, bend, current)
    q = [0] * (n + 1)
    q[2] = 1
    _shoot(q, n, bend, zero)
    # Vertex n's lower neighbours: n - 2 and n - 1, or k and k + 2 when n = k + 3.
    low = bend if bend == n - 3 else n - 2

    def row_n(v, c):
        return 2 * v[n] - v[low] - v[n - 1] - c[n]

    if bend is None:
        # row n: a + s b = 0, and r(i, j) = p_i - p_j + s (q_i - q_j)
        a, b = row_n(p, current), row_n(q, zero)
        return Fraction((p[i] - p[j]) * b - (q[i] - q[j]) * a, b)
    k = bend
    u = [0] * (n + 1)
    u[k + 2] = 1
    _shoot(u, n, k, zero)

    def row_k1(v, c):
        return 3 * v[k + 1] - v[k - 1] - v[k] - v[k + 2] - c[k + 1]

    a_p, a_q, a_u = row_k1(p, current), row_k1(q, zero), row_k1(u, zero)
    b_p, b_q, b_u = row_n(p, current), row_n(q, zero), row_n(u, zero)
    det = a_q * b_u - a_u * b_q
    s_det, t_det = a_u * b_p - a_p * b_u, a_p * b_q - a_q * b_p
    return Fraction((p[i] - p[j]) * det + (q[i] - q[j]) * s_det + (u[i] - u[j]) * t_det, det)


def resistance_exact(g: WeightedGraph, i: int, j: int, *, ground: int | None = None) -> Fraction:
    """Exact effective resistance between vertices i and j.

    Any vertex may be grounded; the answer is independent of the choice
    (the default grounds j, and a unit chain is shot from vertex 1 whatever
    the choice).  Returns 0 for i == j without solving.
    """
    w = j if ground is None else ground
    width = _check_query(g, i, j, w)
    edges = g.edges
    shape = chain_shape(g)
    if shape is None:
        work, scale, weights = general_work(g, width)
    else:
        work = exact_work(g.n, width, -(-2 * len(edges) // g.n))  # every weight of a chain is 1
    check_work(f"the exact oracle on {g.n} vertices (half-bandwidth {width})", work)
    if i == j:
        return Fraction(0)
    if shape is not None:
        return _chain_solve(g.n, shape[1], i, j)
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")

    # Grounding w: its row and column become the identity's, so vertex v
    # keeps row v - 1.  Off the diagonal, the nonzeros are exactly the edges.
    lo = list(range(g.n))
    for a, b, _ in edges:
        if w not in (a, b):
            lo[b - 1] = min(lo[b - 1], a - 1)
    reach = list(range(g.n))
    for r, first in enumerate(lo):
        reach[first] = max(reach[first], r)
    upper = [[0] * (hi - r + 1) for r, hi in enumerate(accumulate(reach, max))]
    for (a, b, _), c in zip(edges, weights):
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
    n = g.n
    width = _check_query(g, i, j, j)
    check_work(f"the float oracle on {n} vertices (half-bandwidth {width})", float_work(n, width))
    if i == j:
        return 0.0
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")
    band = [[0.0] * (width + 1) for _ in range(n)]
    for a, b, wgt in g.edges:
        c = 1.0 if wgt is _UNIT else float(wgt)
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
