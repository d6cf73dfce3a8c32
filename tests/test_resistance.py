"""Resistance oracles: exact envelope solve and float grounded solve.

The independent check here is a plain rational Gaussian elimination written
directly in the test, so the fraction-free production path is never its own
referee.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from twotree import (
    BentParams,
    GraphError,
    WeightedGraph,
    bent_2tree,
    bent_resistance_product,
    fib,
    lucas,
    resistance_exact,
    resistance_float,
    straight_2tree,
)


def _resistance_plain_gauss(g, i, j):
    """Textbook rational elimination on the Laplacian grounded at j."""
    keep = [v for v in range(1, g.n + 1) if v != j]
    pos = {v: idx for idx, v in enumerate(keep)}
    size = len(keep)
    a = [[Fraction(0)] * size for _ in keep]
    for u, v, w in g.edges:
        for p, q in ((u, v), (v, u)):
            if p in pos:
                a[pos[p]][pos[p]] += w
                if q in pos:
                    a[pos[p]][pos[q]] -= w
    rhs = [Fraction(0)] * size
    rhs[pos[i]] = Fraction(1)
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col] != 0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, size):
            if a[r][col] == 0:
                continue
            f = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] -= f * a[col][c]
            rhs[r] -= f * rhs[col]
    x = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = rhs[r] - sum((a[r][c] * x[c] for c in range(r + 1, size)), Fraction(0))
        x[r] = acc / a[r][r]
    return x[pos[i]]


def test_triangle_value():
    assert resistance_exact(straight_2tree(3), 1, 3) == Fraction(2, 3)


def test_straight_six_end_to_end():
    assert resistance_exact(straight_2tree(6), 1, 6) == Fraction(15, 11)


def test_bent_six_end_to_end():
    assert resistance_exact(bent_2tree(6, 3), 1, 6) == Fraction(6, 5)


def test_same_vertex_is_zero():
    assert resistance_exact(straight_2tree(5), 2, 2) == 0


def test_disconnected_rejected():
    g = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(GraphError):
        resistance_exact(g, 1, 4)
    with pytest.raises(GraphError):
        resistance_float(g, 1, 4)


def test_out_of_range_rejected():
    with pytest.raises(GraphError):
        resistance_exact(straight_2tree(4), 0, 3)


def test_agrees_with_plain_gaussian_elimination():
    rng = random.Random(7)
    graphs = [straight_2tree(7), bent_2tree(9, 4), bent_2tree(8, 5)]
    # a few random connected weighted graphs as well
    for _ in range(3):
        n = rng.randint(4, 7)
        edges = [(i, i + 1, Fraction(rng.randint(1, 5), rng.randint(1, 5))) for i in range(1, n)]
        extras = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
        for i, j in rng.sample(extras, min(3, len(extras))):
            edges.append((i, j, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
        graphs.append(WeightedGraph(n, edges))
    for g in graphs:
        for i, j in [(1, g.n), (2, g.n - 1)]:
            assert resistance_exact(g, i, j) == _resistance_plain_gauss(g, i, j)


def test_symmetry_and_grounding_invariance():
    g = bent_2tree(9, 5)
    base = resistance_exact(g, 1, 9)
    assert resistance_exact(g, 9, 1) == base
    for ground in range(1, 10):
        assert resistance_exact(g, 1, 9, ground=ground) == base


def _check_every_ground(g, expected):
    for (i, j), value in expected.items():
        assert _resistance_plain_gauss(g, i, j) == value
        for ground in range(1, g.n + 1):
            assert resistance_exact(g, i, j, ground=ground) == value


def test_star_centred_at_last_vertex():
    # Every leaf row has no nonzero left of its diagonal (lo[r] == r) and the
    # centre's row spans the whole profile.
    weights = [Fraction(1), Fraction(2, 3), Fraction(5), Fraction(7, 4), Fraction(3, 8)]
    g = WeightedGraph(6, [(v, 6, w) for v, w in enumerate(weights, start=1)])
    expected = {(a, b): 1 / weights[a - 1] + 1 / weights[b - 1] for a, b in [(1, 2), (3, 5), (4, 1)]}
    expected.update({(a, 6): 1 / weights[a - 1] for a in (2, 5)})
    _check_every_ground(g, expected)


def test_path_labelled_from_n_down_to_1():
    # Grounding an inner vertex leaves the next row with lo[r] == r.
    n = 7
    weights = {v: Fraction(v, 3) for v in range(1, n)}  # on edge {v, v + 1}
    g = WeightedGraph(n, [(v + 1, v, weights[v]) for v in range(n - 1, 0, -1)])
    expected = {
        (i, j): sum((1 / weights[v] for v in range(min(i, j), max(i, j))), Fraction(0))
        for i, j in [(7, 1), (2, 6), (5, 4)]
    }
    _check_every_ground(g, expected)


def test_complete_graph_full_profile():
    rng = random.Random(3)
    edges = [
        (a, b, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for a, b in itertools.combinations(range(1, 7), 2)
    ]
    g = WeightedGraph(6, edges)
    expected = {(i, j): _resistance_plain_gauss(g, i, j) for i, j in [(1, 6), (2, 3), (5, 1)]}
    _check_every_ground(g, expected)


def test_exact_at_the_guard_size():
    n = 2000
    bent = resistance_exact(bent_2tree(n, 1000), 1, n)
    assert bent == bent_resistance_product(BentParams(n, 1000))
    m = n - 2
    straight = Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    assert resistance_exact(straight_2tree(n), 1, n) == straight


def test_exact_oracle_never_builds_the_dense_laplacian(monkeypatch):
    def no_dense(self):
        pytest.fail("resistance_exact asked for the dense Laplacian")

    monkeypatch.setattr(WeightedGraph, "laplacian", no_dense)
    assert resistance_exact(bent_2tree(6, 3), 1, 6) == Fraction(6, 5)
    g = straight_2tree(9)
    assert resistance_exact(g, 3, 7) == _resistance_plain_gauss(g, 3, 7)
    weighted = WeightedGraph(
        4, [(1, 2, Fraction(2, 3)), (2, 3, Fraction(5, 4)), (1, 3, 3), (3, 4, Fraction(1, 6))]
    )
    assert resistance_exact(weighted, 4, 1, ground=2) == _resistance_plain_gauss(weighted, 4, 1)


def test_exact_oracle_memory_is_sized_to_the_band():
    n = 2000
    g = bent_2tree(n, 1000)
    tracemalloc.start()
    try:
        resistance_exact(g, 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A dense n x n list of lists alone takes about 35 MB here.
    assert peak < 8_000_000


def test_triangle_inequality_exhaustive():
    for g in (straight_2tree(10), bent_2tree(10, 4)):
        values = {}
        for i, j in itertools.combinations(range(1, 11), 2):
            values[(i, j)] = values[(j, i)] = resistance_exact(g, i, j)
        for i, j, k in itertools.permutations(range(1, 11), 3):
            assert values[(i, k)] <= values[(i, j)] + values[(j, k)]


def test_rayleigh_monotonicity_on_families():
    graphs = [straight_2tree(n) for n in range(3, 11)]
    graphs += [bent_2tree(n, k) for n in range(6, 11) for k in range(3, n - 2)]
    for g in graphs:
        base = resistance_exact(g, 1, g.n)
        for i, j, _ in g.edges:
            trimmed = WeightedGraph(g.n, [e for e in g.edges if e[:2] != (i, j)])
            if not trimmed.is_connected():
                continue
            assert resistance_exact(trimmed, 1, g.n) >= base


def test_float_examples():
    assert abs(resistance_float(straight_2tree(3), 1, 3) - 2 / 3) < 1e-9
    assert abs(resistance_float(bent_2tree(6, 3), 1, 6) - 1.2) < 1e-9
    g10 = straight_2tree(10)
    exact = resistance_exact(g10, 1, 10)
    assert abs(resistance_float(g10, 1, 10) - float(exact)) <= 1e-9 * float(exact)


def test_float_guard():
    class FakeBig:
        n = 5000

    with pytest.raises(GraphError):
        resistance_float(FakeBig(), 1, 2)


def test_exact_guard():
    class FakeBig:
        n = 2001

    with pytest.raises(GraphError):
        resistance_exact(FakeBig(), 1, 2)
