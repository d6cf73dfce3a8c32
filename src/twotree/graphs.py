"""Weighted graphs, the two linear 2-tree families, and their Laplacians.

Vertices are labelled 1..n on the whole public surface.  Graphs are
immutable once built; edge weights are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .rational import as_rational, ratio_string


class GraphError(ValueError):
    """Invalid graph construction or query."""


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

    # -- inspection -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
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


def straight_2tree(n: int) -> WeightedGraph:
    """Unit-weight graph on 1..n with an edge whenever 0 < |i-j| <= 2."""
    if n < 3:
        raise GraphError("a straight linear 2-tree needs n >= 3")
    edges = [
        (i, j, _UNIT)
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
        (i, j, _UNIT)
        for i in range(1, n + 1)
        for j in (i + 1, i + 2)
        if j <= n and (i, j) != (k + 1, k + 3)
    ]
    edges.append((k, k + 3, _UNIT))
    return WeightedGraph(n, edges)
