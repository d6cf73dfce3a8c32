"""Resistance oracles: exact grounded solve and float pseudoinverse.

The independent check here is a plain rational Gaussian elimination written
directly in the test, so the fraction-free production path is never its own
referee.
"""

import itertools
import random
from fractions import Fraction

import pytest

from twotree import (
    GraphError,
    WeightedGraph,
    bent_2tree,
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
            trimmed = g.delete_edge(i, j)
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

