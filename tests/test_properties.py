"""Properties that hold on any connected weighted graph, not just on chains.

Graphs are drawn as a random spanning tree plus random extra edges, with
positive rational weights, on at most eight vertices.
"""

import itertools
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from twotree import WeightedGraph, resistance_exact

weights = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 8))
    tree = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [pair for pair in itertools.combinations(range(1, n + 1), 2) if pair not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return WeightedGraph(n, [(i, j, draw(weights)) for i, j in sorted(tree) + extra])


# These check values, not speed: CPU speed swings by about 1.5x between runs,
# so a per-example deadline would fail at random.
@settings(deadline=None)
@given(g=connected_graphs(), data=st.data())
def test_scaled_laplacian_and_grounding_invariance(g, data):
    scale, rows = g.laplacian()
    assert scale == lcm(*(w.denominator for _, _, w in g.edges))
    assert all(sum(row) == 0 for row in rows)
    assert all(rows[a][b] == rows[b][a] for a in range(g.n) for b in range(g.n))
    i, j = data.draw(st.lists(st.integers(1, g.n), min_size=2, max_size=2, unique=True))
    base = resistance_exact(g, i, j)
    assert base > 0
    assert all(resistance_exact(g, i, j, ground=w) == base for w in range(1, g.n + 1))


@settings(deadline=None)
@given(g=connected_graphs())
def test_foster_theorem(g):
    # Foster (1949): the weighted edge resistances of a connected graph sum to n - 1.
    assert sum(w * resistance_exact(g, i, j) for i, j, w in g.edges) == g.n - 1
