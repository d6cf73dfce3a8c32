"""Weighted graphs, the two linear 2-tree families, and their Laplacians.

Vertices are labelled 1..n on the whole public surface.  Graphs are
immutable once built; edge weights are exact rationals.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Iterable

from .rational import as_rational, ratio_string


class GraphError(ValueError):
    """Invalid graph construction or query."""


# The one bound on priced work, in units of about 1 ns (about 100 s): of an
# engine or oracle call, and of a CLI query or sweep summed over its routes.
MAX_SWEEP_COST = 100_000_000_000


def units(work: int) -> str:
    return f"{Decimal(work):.1e}"  # a float would overflow past 1e308


def check_work(what: str, work: int) -> None:
    """Refuse `what` when its priced `work` is over MAX_SWEEP_COST."""
    if work > MAX_SWEEP_COST:
        raise GraphError(f"{what} is about {units(work)} units of work, over MAX_SWEEP_COST = {units(MAX_SWEEP_COST)}")


EdgeInput = tuple[int, int, "Fraction | int"]

_UNIT = Fraction(1)  # every edge of the unit chains shares it: no Fraction per edge


class WeightedGraph:
    """Undirected graph on vertices 1..n with strictly positive edge weights.

    It holds `n` and `edges`, the tuple of (i, j, weight) with i < j in
    sorted order; each edge appears once.
    """

    def __init__(self, n: int, edges: Iterable[EdgeInput]):
        if n < 1:
            raise GraphError("a graph needs at least one vertex")
        weights: dict[tuple[int, int], Fraction] = {}
        for i, j, raw in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphError(f"edge ({i},{j}) is out of the vertex range 1..{n}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i}")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in weights:
                raise GraphError(f"duplicate edge ({a},{b})")
            w = as_rational(raw)
            if w.numerator <= 0:
                raise GraphError(f"edge ({a},{b}) has non-positive weight {w}")
            weights[a, b] = w
        self.n = n
        self.edges: tuple[tuple[int, int, Fraction], ...] = tuple(
            (a, b, weights[a, b]) for a, b in sorted(weights)
        )

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int, Fraction], ...]) -> "WeightedGraph":
        # For the chain builders only: their edges are in range, distinct,
        # positive and sorted by construction, so none of it is checked again.
        graph = cls.__new__(cls)
        graph.n = n
        graph.edges = edges
        return graph

    # -- inspection -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 1.

        Each edge (a, b) has a < b, so when the b's cover 2..n every vertex
        past 1 has a lower neighbour and, by induction, reaches 1: the chain
        builders' graphs are accepted so, without a walk.  Any other graph
        is walked from vertex 1.
        """
        if len({b for _, b, _ in self.edges}) == self.n - 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {1}
        frontier = [1]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    # -- derived structures -------------------------------------------------

    def laplacian(self) -> tuple[int, list[list[int]]]:
        """`(scale, rows)` with `rows` the integer matrix scale * L.

        `scale` is the lcm of the edge-weight denominators (1 on unit chains);
        row and column v - 1 belong to vertex v.
        """
        scale = lcm(*(w.denominator for _, _, w in self.edges))
        rows = [[0] * self.n for _ in range(self.n)]
        for i, j, w in self.edges:
            c = w.numerator * (scale // w.denominator)
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = -c
            rows[i - 1][i - 1] += c
            rows[j - 1][j - 1] += c
        return scale, rows

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{i} {j} {ratio_string(w)}" for i, j, w in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "WeightedGraph":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise GraphError("empty graph description")
        header = lines[0].split()
        if len(header) != 2:
            raise GraphError("header must be two integers: vertex and edge counts")
        try:
            n, count = int(header[0]), int(header[1])
        except ValueError as exc:
            raise GraphError(f"bad header {lines[0]!r}") from exc
        body = lines[1:]
        if len(body) != count:
            raise GraphError(f"header announces {count} edges but {len(body)} lines follow")
        edges = []
        for ln in body:
            parts = ln.split()
            if len(parts) != 3:
                raise GraphError(f"bad edge line {ln!r}, expected 'i j num/den'")
            # Only `num` or `num/den`, read by int(): Fraction(text) would also
            # take exponents, and "1e-100000000" would build a 10**100000000.
            num, slash, den = parts[2].partition("/")
            try:
                weight = Fraction(int(num), int(den) if slash else 1)
                edges.append((int(parts[0]), int(parts[1]), weight))
            except (ValueError, ZeroDivisionError) as exc:
                raise GraphError(f"bad edge line {ln!r}") from exc
        return cls(n, edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count})"


def _chain_edges(n: int) -> list[tuple[int, int, Fraction]]:
    # The pairs (i, i+1) and (i, i+2) in sorted order, all of unit weight.
    edges = [(i, j, _UNIT) for i in range(1, n - 1) for j in (i + 1, i + 2)]
    edges.append((n - 1, n, _UNIT))
    return edges


def straight_2tree(n: int) -> WeightedGraph:
    """Unit-weight graph on 1..n with an edge whenever 0 < |i-j| <= 2."""
    if n < 3:
        raise GraphError("a straight linear 2-tree needs n >= 3")
    return WeightedGraph._trusted(n, tuple(_chain_edges(n)))


def bent_2tree(n: int, k: int) -> WeightedGraph:
    """Straight 2-tree with edge {k+1, k+3} swapped for {k, k+3}.

    The bend vertex k must satisfy 3 <= k <= n-3, which also forces n >= 6.
    """
    if n < 6:
        raise GraphError("a bent linear 2-tree needs n >= 6")
    if not 3 <= k <= n - 3:
        raise GraphError(f"bend vertex must satisfy 3 <= k <= n-3, got k={k} for n={n}")
    edges = _chain_edges(n)
    # Positions 2k-2..2k+1 hold (k, k+1), (k, k+2), (k+1, k+2), (k+1, k+3):
    # the bend edge (k, k+3) takes position 2k, and (k+1, k+2) moves up over
    # the dropped (k+1, k+3).
    edges[2 * k + 1] = (k + 1, k + 2, _UNIT)
    edges[2 * k] = (k, k + 3, _UNIT)
    return WeightedGraph._trusted(n, tuple(edges))


def chain_shape(g: WeightedGraph) -> tuple[str, int | None] | None:
    """`("straight", None)` when g equals `straight_2tree(g.n)`, `("bent", k)`
    when it equals `bent_2tree(g.n, k)`, and None otherwise.

    Read in one pass over `g.edges`; a weight counts as unit when it equals
    1, so a chain read from text qualifies.  Position p of a straight
    chain's sorted edges holds the one pair with a + b = p + 3 and
    b - a <= 2, and a bend at k changes exactly positions 2k and 2k + 1.
    """
    n, edges = g.n, g.edges
    if n < 3 or len(edges) != 2 * n - 3:
        return None
    off = []  # the positions that hold another edge than a straight chain's
    for p, (a, b, w) in enumerate(edges):
        if w is not _UNIT and w != 1:
            return None
        if a + b != p + 3 or b - a > 2:
            off.append(p)
    if not off:
        return "straight", None
    k = off[0] // 2
    if (
        off == [2 * k, 2 * k + 1]
        and 3 <= k <= n - 3
        and edges[2 * k][:2] == (k, k + 3)
        and edges[2 * k + 1][:2] == (k + 1, k + 2)
    ):
        return "bent", k
    return None
