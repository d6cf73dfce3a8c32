"""Graph builders, Laplacians and serialization."""

from fractions import Fraction
from math import lcm

import pytest

from twotree import GraphError, WeightedGraph, bent_2tree, straight_2tree


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
    assert [g.degree(v) for v in range(1, 7)] == [2, 3, 4, 4, 3, 2]


@pytest.mark.parametrize("n", range(3, 15))
def test_straight_edge_count_and_biconnectivity(n):
    g = straight_2tree(n)
    assert g.edge_count == 2 * n - 3
    assert g.is_connected()
    assert g.is_biconnected()


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
    assert [g.degree(v) for v in range(1, 8)] == [2, 3, 5, 3, 4, 3, 2]


@pytest.mark.parametrize("n", range(6, 15))
def test_bent_families_shape(n):
    for k in range(3, n - 2):
        g = bent_2tree(n, k)
        assert g.edge_count == 2 * n - 3
        assert g.degree(k) == 5
        assert g.degree(k + 1) == 3
        assert g.is_biconnected()


def test_bent_rejects_bad_parameters():
    with pytest.raises(GraphError):
        bent_2tree(6, 4)
    with pytest.raises(GraphError):
        bent_2tree(6, 2)
    with pytest.raises(GraphError):
        bent_2tree(5, 3)


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
    assert back.weight(1, 2) == Fraction(2, 3)
    assert back == g


def test_from_text_rejects_malformed():
    with pytest.raises(GraphError):
        WeightedGraph.from_text("")
    with pytest.raises(GraphError):
        WeightedGraph.from_text("3 2\n1 2 1/1\n")
    with pytest.raises(GraphError):
        WeightedGraph.from_text("3 1\n1 2 fast\n")


def test_connectivity_detection():
    g = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])
    assert not g.is_connected()
    assert not g.is_biconnected()
    path = WeightedGraph(3, [(1, 2, 1), (2, 3, 1)])
    assert path.is_connected()
    assert not path.is_biconnected()  # middle vertex is a cut vertex


def test_delete_edge():
    g = straight_2tree(5)
    trimmed = g.delete_edge(1, 2)
    assert trimmed.edge_count == g.edge_count - 1
    assert not trimmed.has_edge(1, 2)
    with pytest.raises(GraphError):
        g.delete_edge(1, 5)
