"""Ground-truth effective resistance, exact and floating point.

The exact path answers a unit chain, `straight_2tree(n)` or `bent_2tree(n,
k)` as `graphs.chain_shape` reads it off the edge list, by Kirchhoff
shooting.  It grounds v_1 = 0 and takes v_2, and v_{k+2} with a bend, as
parameters; each Kirchhoff row then gives the potential of its largest
neighbour as an integer affine form in them, with no division, in O(n)
big-integer additions.  Only a window of four potentials is held at a
time, so memory stays at O(n) bits.  The rows left over, row n and with a
bend row k + 1, make a 1x1 or 2x2 integer system, solved by Cramer's rule
into one Fraction: one gcd in all.

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
the exact path, never to feed it, and shares no code with it past the range
checks of `_check_query` and `_half_bandwidth`, which reads the band off the
edge list.  Each path refuses a graph priced over MAX_SWEEP_COST before it
allocates a row: `chain_work` prices the chain path by n alone,
`general_work` the general one and `float_work` the float path, both by the
half-bandwidth too.

A recognised chain is connected and unit-weight by construction, so the
exact path neither checks its connectivity nor reads its weights or its
half-bandwidth again.  The general exact path and the float path check
every graph they solve with `WeightedGraph.is_connected`, which accepts a
chain without a walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .graphs import _UNIT, GraphError, WeightedGraph, chain_shape, check_work


def chain_work(n: int) -> int:
    """The exact oracle's chain path in units of about 1 ns, on n vertices:
    two or three coordinates of n potentials, each found by four additions
    of integers of up to about 1.4 n bits, so time grows as n^2, and the
    chain and record built around them, linear in n.  A record took 1.2-1.8 /
    109-124 / 2200-2400 ms at a centred bend of n = 1000 / 2 * 10^4 / 10^5,
    and 1.0-1.1 / 92-107 / 1700-2050 ms at the straight pair (2, n - 1)
    (Python 3.11, one core of a 2-vCPU VM): 0.3-0.75 of its price."""
    return 100_000 + 2_000 * n + n * n // 2


def general_work(g: WeightedGraph, width: int) -> tuple[int, int, list[int]]:
    """The exact oracle's general path in units of about 1 ns, on g grounded
    with half-bandwidth `width`, with the lcm `scale` of its weights'
    denominators and its weights times `scale`, which the solve reads.

    20 us a vertex to build, 100 n^2 for its O(n)-bit rows, and up to
    (width + 1)^2 row operations a vertex on minors that grow by about b
    bits a step (Hadamard's and the AM-GM inequality), with divisions
    quadratic in their length.  b is the bit length of `scale` times the
    mean diagonal entry of scale * L, rounded up.  On unit weights that is
    the mean degree, whose bit length (3 on a chain) is about twice the 1.4
    bits a step by which a chain's minors grow; this price is fitted to
    that.  Every minor of scale * L carries a power of the scale, so
    log2(scale) bits a step are growth it really has; counting them twice
    keeps the same margin.  A band weighted a/b (a, b <= 9, scale 2520)
    grows by 12.9 bits a step and is priced at 26, where the mean alone gave
    14 and the price fell under its time.  Measured: 0.18 / 0.56 s on a
    mirrored centred bend (v -> n + 1 - v) at n = 2000 / 3000; 0.08 / 0.64 s
    on a chain shuffled at n = 200 / 400, whose envelope stays sparse;
    1.4-1.7 s on a band of half-bandwidth 2 weighted a/b at n = 1000.
    """
    n = g.n
    scale = lcm(*(wt.denominator for _, _, wt in g.edges))
    weights = [wt.numerator * (scale // wt.denominator) for _, _, wt in g.edges]
    growth = (scale * -(-2 * sum(weights) // n)).bit_length()
    work = 100_000 + 20_000 * n + 100 * n * n + n * (width + 1) ** 2 * (200 + (n * growth) ** 2 // 1620)
    return work, scale, weights


def float_work(n: int, width: int) -> int:
    """The float oracle in units of about 1 ns, on n vertices whose grounded
    Laplacian has half-bandwidth `width`: n (width + 1)^2 multiply-adds, so
    0.8 s on a chain of 10^5 vertices but about n^3 on a shuffled one."""
    return 200_000 + 5_000 * n + 1_000 * n * (width + 1) ** 2


def _check_query(g: WeightedGraph, i: int, j: int, ground: int) -> None:
    """Refuse a vertex of the pair, or the ground, out of range."""
    if not (1 <= i <= g.n and 1 <= j <= g.n):
        raise GraphError(f"vertex pair ({i},{j}) out of range 1..{g.n}")
    if not 1 <= ground <= g.n:
        raise GraphError(f"ground vertex {ground} out of range 1..{g.n}")


def _half_bandwidth(g: WeightedGraph, ground: int) -> int:
    """The half-bandwidth of g grounded at `ground`: the largest b - a over
    the edges off it.  The general exact path and the float path are
    priced by it; the chain path never reads it."""
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


def _rows(window: tuple[int, int, int, int], rows: range, current: dict[int, int], load: int):
    """Shoot Kirchhoff rows of degree 4 in order: row r, 4 v_r minus v at
    r - 2, r - 1, r + 1 and r + 2 = load * current[r], gives v_{r+2} from
    the `window` v_{r-2}..v_{r+1}.  Returns the last window and the sum of
    current[r] v_r over the rows r."""
    a, b, c, d = window
    dot = 0
    for r in rows:
        e = 4 * c - a - b - d
        if r in current:
            dot += current[r] * c
            e -= load * current[r]
        a, b, c, d = b, c, d, e
    return a, b, c, d, dot


def _shoot(n: int, bend: int | None, current: dict[int, int], load: int, s: int, t: int):
    """One coordinate of a unit chain's potentials: v_1 = 0, v_2 = s and, with
    a bend at k, v_{k+2} = t, under the currents load * current.

    Kirchhoff row r gives v at the row's largest neighbour, which no earlier
    row reaches.  Rows 1..n-2 do so, except row k + 1, whose largest
    neighbour is k + 2.  Only the last four potentials are held, so memory
    stays at O(n) bits.  Returns the sum of current[x] v_x, which is v_i -
    v_j, and the residuals of rows k + 1 (None without a bend) and n, the
    rows left over: deg(r) v_r minus v at each neighbour minus the current.
    """
    # v_{-1} = -s and v_0 = s give rows 1 and 2, of degree 2 and 3, the
    # form of a degree-4 row.
    a, b, c, d, dot = _rows((-s, s, 0, s), range(1, n - 1 if bend is None else bend), current, load)
    row_k1 = None
    if bend is not None:
        k = bend  # the window holds v_{k-2}..v_{k+1}
        at_k, at_k1 = current.get(k, 0), current.get(k + 1, 0)
        row_k1 = 3 * d - b - c - t - load * at_k1
        dot += at_k * c + at_k1 * d
        # Row k, of degree 5, gives v_{k+3}.  Row k + 2 reads v_k and v_{k+1}
        # alike; held as v_{k+1}, v_k they leave v_k in the first slot, for
        # row k + 3, which the bend edge makes a neighbour of k, not of
        # k + 1, and for row n when k = n - 3.
        window = (d, c, t, 5 * c - a - b - d - t - load * at_k)
        a, b, c, d, rest = _rows(window, range(k + 2, n - 1), current, load)
        dot += rest
    # The window holds v_n and, before it, vertex n's lower neighbours.
    at_n = current.get(n, 0)
    dot += current.get(n - 1, 0) * c + at_n * d
    return dot, row_k1, 2 * d - b - c - load * at_n


def _chain_solve(n: int, bend: int | None, i: int, j: int) -> Fraction:
    """r(i, j) on `straight_2tree(n)`, or on `bent_2tree(n, bend)`, i != j.

    Grounds v_1 = 0 and takes v_2 = s, and v_{k+2} = t with a bend, as
    parameters; every potential is then p + s q (+ t u) with integer
    coordinates that `_shoot` finds with additions and small multiples
    only.  Row n, and row k + 1 with a bend, are left over: with the current
    1 in at i and out at j they give a 1x1 or 2x2 integer system for the
    parameters, solved by Cramer's rule.  Row n - 1 adds nothing, as the
    rows of a Laplacian and the currents both sum to zero.
    """
    current = {i: 1, j: -1}
    # dp = p_i - p_j, a_p and b_p the residuals of rows k + 1 and n in p; so for q and u.
    dp, a_p, b_p = _shoot(n, bend, current, 1, 0, 0)
    dq, a_q, b_q = _shoot(n, bend, current, 0, 1, 0)
    if bend is None:
        # row n: b_p + s b_q = 0, and r(i, j) = dp + s dq
        return Fraction(dp * b_q - dq * b_p, b_q)
    du, a_u, b_u = _shoot(n, bend, current, 0, 0, 1)
    det = a_q * b_u - a_u * b_q
    s_det, t_det = a_u * b_p - a_p * b_u, a_p * b_q - a_q * b_p
    return Fraction(dp * det + dq * s_det + du * t_det, det)


def resistance_exact(g: WeightedGraph, i: int, j: int, *, ground: int | None = None) -> Fraction:
    """Exact effective resistance between vertices i and j.

    Any vertex may be grounded; the answer is independent of the choice
    (the default grounds j, and a unit chain is shot from vertex 1 whatever
    the choice).  Returns 0 for i == j without solving.
    """
    w = j if ground is None else ground
    _check_query(g, i, j, w)
    shape = chain_shape(g)
    if shape is not None:
        check_work(f"the exact oracle on a chain of {g.n} vertices", chain_work(g.n))
        return Fraction(0) if i == j else _chain_solve(g.n, shape[1], i, j)
    width = _half_bandwidth(g, w)
    work, scale, weights = general_work(g, width)
    check_work(f"the exact oracle on {g.n} vertices (half-bandwidth {width})", work)
    if i == j:
        return Fraction(0)
    if not g.is_connected():
        raise GraphError("resistance is undefined on a disconnected graph")

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
    for (a, b, _), c in zip(g.edges, weights):
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
    _check_query(g, i, j, j)
    width = _half_bandwidth(g, j)
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
