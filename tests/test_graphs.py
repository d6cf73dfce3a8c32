"""Graph builders, Laplacians and serialization."""

from collections import Counter
from fractions import Fraction
from math import lcm
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twotree import GraphError, WeightedGraph, bent_2tree, graphs, straight_2tree
from twotree.graphs import chain_shape


def _degrees(g):
    counts = Counter(v for i, j, _ in g.edges for v in (i, j))
    return [counts[v] for v in range(1, g.n + 1)]


def _is_biconnected(g):
    """n >= 3, connected, and still connected after deleting any one vertex."""
    if g.n < 3 or not g.is_connected():
        return False
    return all(
        WeightedGraph(
            g.n - 1, [(a - (a > v), b - (b > v), w) for a, b, w in g.edges if v not in (a, b)]
        ).is_connected()
        for v in range(1, g.n + 1)
    )


def _paper_straight_edges(n):
    """E(G_n): {i, j} is an edge iff 0 < |i - j| <= 2."""
    return {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if j - i <= 2}


def test_families_match_the_paper_edge_sets():
    # E(H_n) = (E(G_n) | {k, k+3}) - {k+1, k+3}; every weight is 1 and the
    # edge tuple lists each pair once, in sorted order.
    expected = {n: _paper_straight_edges(n) for n in range(3, 15)}
    graphs = [(straight_2tree(n), expected[n]) for n in range(3, 15)]
    graphs += [
        (bent_2tree(n, k), (expected[n] | {(k, k + 3)}) - {(k + 1, k + 3)})
        for n in range(6, 15)
        for k in range(3, n - 2)
    ]
    for g, pairs in graphs:
        assert [(i, j) for i, j, _ in g.edges] == sorted(pairs)
        assert all(type(w) is Fraction and w == 1 for _, _, w in g.edges)


def test_graph_holds_only_n_and_its_edges():
    g = bent_2tree(8, 4)
    assert vars(g) == {"n": 8, "edges": g.edges}
    unsorted = WeightedGraph(3, [(3, 1, 1), (2, 1, Fraction(1, 2))])
    assert unsorted.edges == ((1, 2, Fraction(1, 2)), (1, 3, Fraction(1)))


def test_straight_smallest_is_triangle():
    g = straight_2tree(3)
    assert g.edge_count == 3
    assert {(i, j) for i, j, _ in g.edges} == {(1, 2), (1, 3), (2, 3)}


def test_straight_four_vertices():
    g = straight_2tree(4)
    assert {(i, j) for i, j, _ in g.edges} == {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}


def test_straight_degree_sequence():
    g = straight_2tree(6)
    assert g.edge_count == 9
    assert _degrees(g) == [2, 3, 4, 4, 3, 2]


@pytest.mark.parametrize("n", range(3, 15))
def test_straight_edge_count_and_biconnectivity(n):
    g = straight_2tree(n)
    assert g.edge_count == 2 * n - 3
    assert g.is_connected()
    assert _is_biconnected(g)


def test_straight_rejects_small_n():
    with pytest.raises(GraphError):
        straight_2tree(2)


def test_bent_is_one_edge_swap():
    g = bent_2tree(6, 3)
    straight = {(i, j) for i, j, _ in straight_2tree(6).edges}
    bent = {(i, j) for i, j, _ in g.edges}
    assert straight - bent == {(4, 6)}
    assert bent - straight == {(3, 6)}


def test_bent_degrees():
    g = bent_2tree(7, 3)
    assert _degrees(g) == [2, 3, 5, 3, 4, 3, 2]


@pytest.mark.parametrize("n", range(6, 15))
def test_bent_families_shape(n):
    for k in range(3, n - 2):
        g = bent_2tree(n, k)
        assert g.edge_count == 2 * n - 3
        degrees = _degrees(g)
        assert degrees[k - 1] == 5
        assert degrees[k] == 3
        assert _is_biconnected(g)


def test_bent_rejects_bad_parameters():
    with pytest.raises(GraphError):
        bent_2tree(6, 4)
    with pytest.raises(GraphError):
        bent_2tree(6, 2)
    with pytest.raises(GraphError):
        bent_2tree(5, 3)


def test_chain_builders_match_the_checked_constructor():
    # The builders skip the constructor's checks and its sort; the checked
    # path must give back the very same edges, in order and with the same
    # weight objects.
    for n in range(3, 61):
        chains = [straight_2tree(n)] + [bent_2tree(n, k) for k in range(3, n - 2)]
        for g in chains:
            checked = WeightedGraph(n, list(g.edges))
            assert g.n == checked.n and g.edges == checked.edges
            assert all(a[2] is b[2] for a, b in zip(g.edges, checked.edges, strict=True))
            assert g == checked and hash(g) == hash(checked)


def test_constructor_validations():
    with pytest.raises(GraphError):
        WeightedGraph(3, [(1, 1, 1)])
    with pytest.raises(GraphError):
        WeightedGraph(3, [(1, 2, 1), (2, 1, 1)])
    with pytest.raises(GraphError):
        WeightedGraph(3, [(1, 4, 1)])
    with pytest.raises(GraphError):
        WeightedGraph(3, [(1, 2, 0)])


def test_laplacian_triangle():
    scale, rows = straight_2tree(3).laplacian()
    assert scale == 1
    assert rows == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_laplacian_single_weighted_edge():
    assert WeightedGraph(2, [(1, 2, 3)]).laplacian() == (1, [[3, -3], [-3, 3]])


def _assert_scaled_laplacian(g):
    """rows is scale * L: zero row sums, symmetric, off-diagonals -scale * w."""
    scale, rows = g.laplacian()
    assert scale == lcm(*(w.denominator for _, _, w in g.edges))
    assert len(rows) == g.n and all(len(row) == g.n for row in rows)
    assert all(sum(row) == 0 for row in rows)
    assert all(rows[a][b] == rows[b][a] for a in range(g.n) for b in range(g.n))
    for i, j, w in g.edges:
        assert rows[i - 1][j - 1] == -scale * w
    return scale, rows


def test_laplacian_row_sums_and_symmetry():
    for g in (straight_2tree(4), straight_2tree(9), bent_2tree(9, 4)):
        assert _assert_scaled_laplacian(g)[0] == 1
    assert [row[v] for v, row in enumerate(straight_2tree(4).laplacian()[1])] == [2, 3, 3, 2]
    fractional = WeightedGraph(
        4, [(1, 2, Fraction(2, 3)), (2, 3, Fraction(5, 4)), (3, 4, 2), (1, 4, Fraction(1, 6))]
    )
    scale, rows = _assert_scaled_laplacian(fractional)
    assert scale == 12
    assert rows[0] == [10, -8, 0, -2]


def test_serialization_round_trip():
    g = bent_2tree(8, 4)
    text = g.to_text()
    assert text.splitlines()[0] == "8 13"
    back = WeightedGraph.from_text(text)
    assert back == g


def test_serialization_rational_weights():
    g = WeightedGraph(3, [(1, 2, Fraction(2, 3)), (2, 3, Fraction(7, 2)), (1, 3, 1)])
    back = WeightedGraph.from_text(g.to_text())
    assert (1, 2, Fraction(2, 3)) in back.edges
    assert back == g


def test_from_text_rejects_malformed():
    with pytest.raises(GraphError):
        WeightedGraph.from_text("")
    with pytest.raises(GraphError):
        WeightedGraph.from_text("3 2\n1 2 1/1\n")
    with pytest.raises(GraphError):
        WeightedGraph.from_text("3 1\n1 2 fast\n")


def test_from_text_weights_are_integers_or_ratios(monkeypatch):
    real = graphs.Fraction

    def no_text(*args):
        if any(isinstance(a, str) for a in args):
            pytest.fail("a weight was parsed by Fraction(str)")
        return real(*args)

    monkeypatch.setattr(graphs, "Fraction", no_text)
    start = perf_counter()
    with pytest.raises(GraphError, match="bad edge line"):
        WeightedGraph.from_text("3 2\n1 2 1\n2 3 1e-100000000\n")
    assert perf_counter() - start < 1
    for bad in ("0.5", "1e3", "3/", "/4", "1/0"):
        with pytest.raises(GraphError, match="bad edge line"):
            WeightedGraph.from_text(f"2 1\n1 2 {bad}\n")
    assert WeightedGraph.from_text("3 2\n1 2 7\n2 3 3/4\n").edges == (
        (1, 2, Fraction(7)),
        (2, 3, Fraction(3, 4)),
    )


def test_connectivity_detection():
    g = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])
    assert not g.is_connected()
    assert not _is_biconnected(g)
    path = WeightedGraph(3, [(1, 2, 1), (2, 3, 1)])
    assert path.is_connected()
    assert not _is_biconnected(path)  # middle vertex is a cut vertex


def _connected_by_union_find(g):
    """Referee: whether the edges join all of 1..n into one class."""
    parent = list(range(g.n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b, _ in g.edges:
        parent[root(a)] = root(b)
    return len({root(v) for v in range(1, g.n + 1)}) == 1


@st.composite
def _any_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return WeightedGraph(n, [(a, b, 1) for a, b in chosen])


@settings(deadline=None, max_examples=400)
@given(g=_any_graphs())
# Connected, but vertex 2's one neighbour is 3, so it has no lower neighbour
# and the graph is walked.
@example(g=WeightedGraph(3, [(1, 3, 1), (2, 3, 1)]))
@example(g=WeightedGraph(5, [(1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]))
@example(g=WeightedGraph(4, [(1, 2, 1), (3, 4, 1)]))
@example(g=WeightedGraph(4, [(2, 3, 1), (2, 4, 1), (3, 4, 1)]))  # vertex 1 cut off
@example(g=WeightedGraph(1, []))
def test_connectivity_matches_union_find(g):
    mirrored = WeightedGraph(g.n, [(g.n + 1 - a, g.n + 1 - b, w) for a, b, w in g.edges])
    for graph in (g, mirrored):
        assert graph.is_connected() == _connected_by_union_find(graph)



def _chains(n):
    """Every chain on n vertices with its shape: the straight one, then each bend."""
    yield straight_2tree(n), ("straight", None)
    for k in range(3, n - 2):
        yield bent_2tree(n, k), ("bent", k)


def test_chain_shape_reads_every_chain():
    for n in range(3, 41):
        for g, shape in _chains(n):
            assert chain_shape(g) == shape
            # Weights equal to 1 but not the builders' shared one.
            assert chain_shape(WeightedGraph.from_text(g.to_text())) == shape
            assert chain_shape(WeightedGraph(n, [(b, a, 1) for a, b, _ in reversed(g.edges)])) == shape


def test_chain_shape_refuses_near_chains():
    for n in range(6, 16):
        for g, _ in _chains(n):
            edges = [(a, b) for a, b, _ in g.edges]
            near = []
            for at, (a, b) in enumerate(edges):
                # The edge moved to each pair that is not an edge.
                for pair in ((a, c) for c in range(a + 1, n + 1)):
                    if pair not in edges:
                        near.append(edges[:at] + [pair] + edges[at + 1 :])
            near.append(edges + [next((1, c) for c in range(2, n + 1) if (1, c) not in edges)])
            near.append(edges[:-1])
            for pairs in near:
                moved = WeightedGraph(n, [(a, b, 1) for a, b in pairs])
                # A move may turn one chain into another: only those keep a shape.
                others = [shape for chain, shape in _chains(n) if chain == moved]
                assert chain_shape(moved) == (others[0] if others else None)
            for at in range(len(edges)):
                heavy = WeightedGraph(n, [(a, b, 2 if p == at else 1) for p, (a, b) in enumerate(edges)])
                assert chain_shape(heavy) is None
            # Vertex n moved to the front: 1..n-1 become 2..n.
            relabelled = WeightedGraph(n, [(a % n + 1, b % n + 1, w) for a, b, w in g.edges])
            assert relabelled != g and chain_shape(relabelled) is None


def test_chain_shape_of_small_and_edgeless_graphs():
    assert chain_shape(WeightedGraph(1, [])) is None
    assert chain_shape(WeightedGraph(2, [(1, 2, 1)])) is None
    assert chain_shape(WeightedGraph(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])) == ("straight", None)
    assert chain_shape(WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, Fraction(1, 2))])) is None


@st.composite
def edited_chains(draw):
    """A chain with up to three edits (an edge moved, added or dropped, a weight
    changed), then possibly relabelled.  Edges move or are added only
    between vertices at most three apart, where a bend's edges are."""
    n = draw(st.integers(3, 14))
    g, _ = draw(st.sampled_from(list(_chains(n))))
    edges = {(a, b): w for a, b, w in g.edges}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, min(a + 3, n) + 1)]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["move", "add", "drop", "weight"]))
        absent = [pair for pair in pairs if pair not in edges]
        if edit in ("move", "drop", "weight") and edges:
            pair = draw(st.sampled_from(sorted(edges)))
            weight = edges.pop(pair)
            if edit == "weight":
                edges[pair] = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            elif edit == "move" and absent:
                edges[draw(st.sampled_from(absent))] = weight
        elif edit == "add" and absent:
            edges[draw(st.sampled_from(absent))] = Fraction(1)
    label = draw(st.permutations(range(1, n + 1))) if draw(st.booleans()) else list(range(1, n + 1))
    return WeightedGraph(n, [(label[a - 1], label[b - 1], w) for (a, b), w in edges.items()])


def _swapped(g, out, into):
    """g with each pair of `out` dropped and each pair of `into` added, at unit weight."""
    return WeightedGraph(g.n, [(a, b, 1) for a, b, _ in g.edges if (a, b) not in out] + [(a, b, 1) for a, b in into])


@settings(deadline=None, max_examples=300)
@given(g=edited_chains())
# Near-chains that random edits seldom reach: a bend whose (k+1, k+2) moved
# on to (k+1, k+4), a bend edge moved on to (k, k+5), a bend edge that keeps
# (k+1, k+3), a bend at k = 2, two bends, and a bent chain reversed.
@example(g=_swapped(bent_2tree(10, 4), {(5, 6)}, {(5, 8)}))
@example(g=_swapped(bent_2tree(10, 4), {(4, 7)}, {(4, 9)}))
@example(g=_swapped(straight_2tree(10), {(5, 6)}, {(4, 7)}))
@example(g=_swapped(straight_2tree(8), {(3, 5)}, {(2, 5)}))
@example(g=_swapped(straight_2tree(14), {(5, 7), (10, 12)}, {(4, 7), (9, 12)}))
@example(g=WeightedGraph(10, [(11 - b, 11 - a, w) for a, b, w in bent_2tree(10, 4).edges]))
def test_chain_shape_names_only_the_chain_itself(g):
    # A reader that took a near-chain for a chain would make the exact
    # oracle answer another graph.
    shape = chain_shape(g)
    if shape == ("straight", None):
        assert g == straight_2tree(g.n)
    elif shape is not None:
        family, k = shape
        assert family == "bent" and g == bent_2tree(g.n, k)
    else:
        assert all(g != chain for chain, _ in _chains(g.n))
