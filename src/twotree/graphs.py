"""Weighted graphs, the two linear 2-tree families, and their Laplacians.

Vertices are labelled 1..n on the whole public surface.  Graphs are
immutable once built; edge weights are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .rational import as_rational, ratio_string


class GraphError(ValueError):
    """Invalid graph construction or query."""


EdgeInput = tuple[int, int, "Fraction | int | str"]


class WeightedGraph:
    """Undirected graph on vertices 1..n with strictly positive edge weights."""

    def __init__(self, n: int, edges: Iterable[EdgeInput]):
        if n < 1:
            raise GraphError("a graph needs at least one vertex")
        self.n = n
        self._adj: dict[int, dict[int, Fraction]] = {v: {} for v in range(1, n + 1)}
        for i, j, raw in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphError(f"edge ({i},{j}) is out of the vertex range 1..{n}")
            if i == j:
                raise GraphError(f"self-loop at vertex {i}")
            a, b = (i, j) if i < j else (j, i)
            if b in self._adj[a]:
                raise GraphError(f"duplicate edge ({a},{b})")
            w = as_rational(raw)
            if w <= 0:
                raise GraphError(f"edge ({a},{b}) has non-positive weight {w}")
            self._adj[a][b] = w
            self._adj[b][a] = w
        self._edges = tuple(
            (i, j, self._adj[i][j])
            for i in range(1, n + 1)
            for j in sorted(self._adj[i])
            if i < j
        )

    # -- inspection -------------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int, Fraction], ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj.get(i, {})

    def weight(self, i: int, j: int) -> Fraction:
        try:
            return self._adj[i][j]
        except KeyError:
            raise GraphError(f"no edge ({i},{j})") from None

    def neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self._adj:
            raise GraphError(f"vertex {v} is out of range")
        return tuple(sorted(self._adj[v]))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def is_connected(self) -> bool:
        seen = {1}
        frontier = [1]
        while frontier:
            u = frontier.pop()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def is_biconnected(self) -> bool:
        """True when connected, n >= 3 and no articulation vertex exists."""
        if self.n < 3 or not self.is_connected():
            return False
        index = {}
        low = {}
        parent: dict[int, int | None] = {1: None}
        order = 0
        stack: list[tuple[int, Iterator[int]]] = [(1, iter(self._adj[1]))]
        index[1] = low[1] = order
        root_children = 0
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in index:
                    order += 1
                    index[w] = low[w] = order
                    parent[w] = v
                    if v == 1:
                        root_children += 1
                    stack.append((w, iter(self._adj[w])))
                    advanced = True
                    break
                if w != parent[v]:
                    low[v] = min(low[v], index[w])
            if not advanced:
                stack.pop()
                p = parent[v]
                if p is not None:
                    low[p] = min(low[p], low[v])
                    if p != 1 and low[v] >= index[p]:
                        return False
        return root_children < 2

    # -- derived structures -------------------------------------------------

    def laplacian(self) -> tuple[int, list[list[int]]]:
        """`(scale, rows)` with `rows` the integer matrix scale * L.

        `scale` is the lcm of the edge-weight denominators (1 on unit chains);
        row and column v - 1 belong to vertex v.
        """
        scale = lcm(*(w.denominator for _, _, w in self._edges))
        rows = [[0] * self.n for _ in range(self.n)]
        for i, j, w in self._edges:
            c = w.numerator * (scale // w.denominator)
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = -c
            rows[i - 1][i - 1] += c
            rows[j - 1][j - 1] += c
        return scale, rows

    def delete_edge(self, i: int, j: int) -> "WeightedGraph":
        """New graph with one edge removed (for monotonicity experiments)."""
        if not self.has_edge(i, j):
            raise GraphError(f"no edge ({i},{j}) to delete")
        a, b = (i, j) if i < j else (j, i)
        kept = [(u, v, w) for u, v, w in self._edges if (u, v) != (a, b)]
        return WeightedGraph(self.n, kept)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{i} {j} {ratio_string(w)}" for i, j, w in self._edges)
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
            try:
                edges.append((int(parts[0]), int(parts[1]), Fraction(parts[2])))
            except (ValueError, ZeroDivisionError) as exc:
                raise GraphError(f"bad edge line {ln!r}") from exc
        return cls(n, edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count})"


def straight_2tree(n: int) -> WeightedGraph:
    """Unit-weight graph on 1..n with an edge whenever 0 < |i-j| <= 2."""
    if n < 3:
        raise GraphError("a straight linear 2-tree needs n >= 3")
    edges = [
        (i, j, 1)
        for i in range(1, n + 1)
        for j in (i + 1, i + 2)
        if j <= n
    ]
    return WeightedGraph(n, edges)


def bent_2tree(n: int, k: int) -> WeightedGraph:
    """Straight 2-tree with edge {k+1, k+3} swapped for {k, k+3}.

    The bend vertex k must satisfy 3 <= k <= n-3, which also forces n >= 6.
    """
    if n < 6:
        raise GraphError("a bent linear 2-tree needs n >= 6")
    if not 3 <= k <= n - 3:
        raise GraphError(f"bend vertex must satisfy 3 <= k <= n-3, got k={k} for n={n}")
    edges = [
        (i, j, 1)
        for i in range(1, n + 1)
        for j in (i + 1, i + 2)
        if j <= n and (i, j) != (k + 1, k + 3)
    ]
    edges.append((k, k + 3, 1))
    return WeightedGraph(n, edges)
