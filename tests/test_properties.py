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

from twotree import (
    BentParams,
    ReductionError,
    ReductionState,
    WeightedGraph,
    bent_2tree,
    bent_resistance_alternating,
    bent_resistance_product,
    reduce_bent,
    resistance_exact,
    resistance_float,
)
from twotree.reduction import _collapse_to_single_edge

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


@settings(deadline=None, max_examples=60)
@given(g=connected_graphs())
def test_resistance_is_a_metric(g):
    # Klein & Randic (1993): resistance distance is symmetric and obeys the
    # triangle inequality.
    r = {(i, j): resistance_exact(g, i, j) for i in range(1, g.n + 1) for j in range(1, g.n + 1)}
    for i, j, l in itertools.product(range(1, g.n + 1), repeat=3):
        assert r[i, j] == r[j, i]
        assert r[i, l] <= r[i, j] + r[j, l]


@settings(deadline=None)
@given(g=connected_graphs(), data=st.data())
def test_rayleigh_monotonicity(g, data):
    # Removing a resistor, here one whose loss keeps the graph connected,
    # never lowers a resistance.
    i, j = data.draw(st.lists(st.integers(1, g.n), min_size=2, max_size=2, unique=True))
    before = resistance_exact(g, i, j)
    for a, b, _ in g.edges:
        thinner = WeightedGraph(g.n, [e for e in g.edges if e[:2] != (a, b)])
        if thinner.is_connected():
            assert resistance_exact(thinner, i, j) >= before


def _collapse_by_passes(state):
    """Referee: sweep the sorted interior until a sweep changes nothing."""
    while True:
        interior = [v for v in state.vertices if v not in (state.source, state.sink)]
        if not interior:
            return state.resistance_between(state.source, state.sink)
        progressed = False
        for v in interior:
            degree = len(state.neighbors(v))
            if degree == 2:
                state.merge_series_at(v, "final")
            elif degree == 1:
                state.prune_leaf(v, "final")
            progressed = progressed or degree in (1, 2)
        if not progressed:
            raise ReductionError("circuit did not collapse to a single resistor")


def _collapse_outcome(collapse, g):
    state = ReductionState(g, source=1, sink=g.n)
    try:
        value = collapse(state)
    except ReductionError:
        value = None
    return value, [(r.kind, r.nodes, r.inputs, r.outputs) for r in state.log]


@settings(deadline=None)
@given(g=shuffled_graphs())
def test_final_collapse_keeps_the_sweep_order(g):
    # Same steps in the same order as sweeping the sorted interior, and the
    # same refusal when the circuit is not series-parallel.
    value, log = _collapse_outcome(_collapse_to_single_edge, g)
    assert (value, log) == _collapse_outcome(_collapse_by_passes, g)
    if value is not None:
        assert value == resistance_exact(g, 1, g.n)


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


@st.composite
def bent_chains(draw):
    n = draw(st.integers(6, 400))
    return n, draw(st.integers(3, n - 3))


# The engine costs tens of milliseconds near n = 400; 40 examples keep this
# test near a second.
@settings(deadline=None, max_examples=40)
@given(chain=bent_chains())
def test_bent_routes_agree(chain):
    n, k = chain
    params = BentParams(n, k)
    value = bent_resistance_product(params)
    assert value == bent_resistance_alternating(params) == reduce_bent(n, k)[0]
    if n <= 60:
        assert value == resistance_exact(bent_2tree(n, k), 1, n)
