"""Properties that hold on any connected weighted graph, not just on chains.

Graphs are drawn as a random spanning tree plus random extra edges, with
positive rational weights, on at most eight vertices unless a test asks for
more.
"""

import itertools
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from twotree import WeightedGraph, resistance_exact, resistance_float

from test_resistance import _resistance_plain_gauss

weights = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@st.composite
def connected_graphs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [pair for pair in itertools.combinations(range(1, n + 1), 2) if pair not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return WeightedGraph(n, [(i, j, draw(weights)) for i, j in sorted(tree) + extra])


@st.composite
def shuffled_graphs(draw):
    """Connected graphs on up to 12 vertices with labels permuted, so the profile is not banded."""
    g = draw(connected_graphs(max_n=12))
    label = draw(st.permutations(range(1, g.n + 1)))
    return WeightedGraph(g.n, [(label[i - 1], label[j - 1], w) for i, j, w in g.edges])


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


@settings(deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_envelope_solve_matches_plain_elimination(g, data):
    i, j = data.draw(st.lists(st.integers(1, g.n), min_size=2, max_size=2, unique=True))
    w = data.draw(st.integers(1, g.n))
    assert resistance_exact(g, i, j, ground=w) == _resistance_plain_gauss(g, i, j)


@settings(deadline=None)
@given(g=shuffled_graphs(), data=st.data())
def test_float_oracle_within_tolerance(g, data):
    i, j = data.draw(st.lists(st.integers(1, g.n), min_size=2, max_size=2, unique=True))
    exact = resistance_exact(g, i, j)
    assert abs(resistance_float(g, i, j) - float(exact)) <= 1e-9 * float(exact)
