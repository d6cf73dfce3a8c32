"""Triangle-by-triangle circuit reduction with exact tail bookkeeping.

The reduction walks a 2-tree chain from its ends: transform the frontier
triangle to a star, merge the star's middle branch in series with the next
chain edge, rename, repeat.  Every elementary rewrite (star transform,
series merge, parallel merge, leaf prune) preserves the terminal-to-terminal
resistance, is appended to an ordered step log, and can be observed from the
outside for auditing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .graphs import WeightedGraph, bent_2tree, straight_2tree
from .rational import as_rational, parallel_combine, ratio_string, series_combine


class ReductionError(ValueError):
    """A reduction step cannot be applied to the current circuit."""


def delta_y(
    r_a: Fraction | int,
    r_b: Fraction | int,
    r_c: Fraction | int,
) -> tuple[Fraction, Fraction, Fraction]:
    """Star branches equivalent to a resistor triangle.

    With s = r_a + r_b + r_c the branches are (r_b*r_c/s, r_a*r_c/s,
    r_a*r_b/s); branch i attaches to the triangle node opposite edge i.
    Written in lowest terms as r_a = p/q, r_b = r/u, r_c = w/v, every
    branch is an integer product over t = s*q*u*v = p*u*v + r*q*v + w*q*u,
    so each one costs a single reduction to lowest terms.
    """
    a, b, c = as_rational(r_a), as_rational(r_b), as_rational(r_c)
    p, q = a.numerator, a.denominator
    r, u = b.numerator, b.denominator
    w, v = c.numerator, c.denominator
    if p <= 0 or r <= 0 or w <= 0:
        raise ReductionError("triangle resistances must be strictly positive")
    t = p * u * v + r * q * v + w * q * u
    return Fraction(r * w * q, t), Fraction(p * w * u, t), Fraction(p * r * v, t)


@dataclass(frozen=True)
class TailTriple:
    """Branches of the j-th transform: tail t, merge-side s, far-side b."""

    j: int
    t: Fraction
    s: Fraction
    b: Fraction

    def __post_init__(self):
        if self.t.numerator <= 0 or self.s.numerator <= 0 or self.b.numerator <= 0:
            raise ReductionError("tail triple entries must be strictly positive")


@dataclass(frozen=True)
class StepRecord:
    """One elementary circuit rewrite.

    For kind "delta_y": nodes = (anchor, middle, far, star), inputs are the
    triangle resistances (R_A, R_B, R_C) with R_A = r(anchor, middle),
    R_B = r(anchor, far), R_C = r(middle, far), and outputs are the star
    branches (R_1, R_2, R_3) attached to far, middle and anchor respectively.
    Series: nodes = (u, removed, w).  Parallel: nodes = (u, v).
    Prune: nodes = (leaf, neighbor).
    """

    index: int
    side: str
    kind: str
    nodes: tuple[int, ...]
    inputs: tuple[Fraction, ...]
    outputs: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "side": self.side,
            "kind": self.kind,
            "nodes": list(self.nodes),
            "inputs": [ratio_string(v) for v in self.inputs],
            "outputs": [ratio_string(v) for v in self.outputs],
        }


Observer = Callable[["ReductionState", StepRecord], None]


class ReductionState:
    """Evolving circuit during a reduction run.

    Mutable only through the rewrite methods below; once the driver returns,
    treat the state as a read-only audit record.  Edge values are
    resistances (the reciprocal of graph weights).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        source: int,
        sink: int,
        observer: Optional[Observer] = None,
    ):
        self.source = source
        self.sink = sink
        self.left_tails: list[TailTriple] = []
        self.right_tails: list[TailTriple] = []
        self.log: list[StepRecord] = []
        self._adj: dict[int, dict[int, Fraction]] = {v: {} for v in range(1, graph.n + 1)}
        for i, j, w in graph.edges:
            r = Fraction(w.denominator, w.numerator)
            self._adj[i][j] = r
            self._adj[j][i] = r
        self._next_label = graph.n
        self._observer = observer

    # -- inspection ---------------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def neighbors(self, v: int) -> list[int]:
        if v not in self._adj:
            raise ReductionError(f"vertex {v} is not in the circuit")
        return sorted(self._adj[v])

    def resistance_between(self, u: int, v: int) -> Fraction:
        try:
            return self._adj[u][v]
        except KeyError:
            raise ReductionError(f"no resistor between {u} and {v}") from None

    def as_weighted_graph(self) -> tuple[WeightedGraph, dict[int, int]]:
        """Snapshot as a WeightedGraph plus the old-label -> new-label map."""
        relabel = {old: new for new, old in enumerate(self.vertices, start=1)}
        edges = [
            (relabel[u], relabel[v], Fraction(1) / r)
            for u, nbrs in self._adj.items()
            for v, r in nbrs.items()
            if u < v
        ]
        return WeightedGraph(len(relabel), edges), relabel

    # -- elementary rewrites --------------------------------------------------

    def _emit(self, side: str, kind: str, nodes, inputs, outputs) -> StepRecord:
        record = StepRecord(
            index=len(self.log) + 1,
            side=side,
            kind=kind,
            nodes=tuple(nodes),
            inputs=tuple(inputs),
            outputs=tuple(outputs),
        )
        self.log.append(record)
        if self._observer is not None:
            self._observer(self, record)
        return record

    def _new_star(self) -> int:
        self._next_label += 1
        self._adj[self._next_label] = {}
        return self._next_label

    def _unlink(self, u: int, v: int) -> None:
        del self._adj[u][v]
        del self._adj[v][u]

    def apply_delta_y(self, anchor: int, middle: int, far: int, side: str, j: int) -> tuple[int, TailTriple]:
        """Transform the triangle (anchor, middle, far) into a star."""
        r_a = self.resistance_between(anchor, middle)
        r_b = self.resistance_between(anchor, far)
        r_c = self.resistance_between(middle, far)
        if r_c != 1:
            raise ReductionError(
                f"chain invariant broken: edge {middle}-{far} has resistance {r_c}, expected 1"
            )
        r_1, r_2, r_3 = delta_y(r_a, r_b, r_c)
        star = self._new_star()
        self._unlink(anchor, middle)
        self._unlink(anchor, far)
        self._unlink(middle, far)
        self._adj[star][anchor] = r_3
        self._adj[anchor][star] = r_3
        self._adj[star][middle] = r_2
        self._adj[middle][star] = r_2
        self._adj[star][far] = r_1
        self._adj[far][star] = r_1
        self._emit(side, "delta_y", (anchor, middle, far, star), (r_a, r_b, r_c), (r_1, r_2, r_3))
        return star, TailTriple(j=j, t=r_3, s=r_2, b=r_1)

    def merge_series_at(self, v: int, side: str) -> None:
        """Replace the two resistors through a degree-2 vertex by their sum.

        When an edge between the two neighbors already exists, the merged
        resistor lands in parallel with it and the pair is combined on the
        spot (the circuit never holds parallel duplicates).
        """
        nbrs = self.neighbors(v)
        if len(nbrs) != 2:
            raise ReductionError(f"series merge needs degree 2 at {v}, found {len(nbrs)}")
        u, w = nbrs
        r_u = self._adj[v][u]
        r_w = self._adj[v][w]
        merged = series_combine(r_u, r_w)
        self._unlink(v, u)
        self._unlink(v, w)
        del self._adj[v]
        existing = self._adj[u].get(w)
        if existing is None:
            self._adj[u][w] = merged
            self._adj[w][u] = merged
            self._emit(side, "series", (u, v, w), (r_u, r_w), (merged,))
            return
        combined = parallel_combine(existing, merged)
        self._adj[u][w] = combined
        self._adj[w][u] = combined
        self._emit(side, "series", (u, v, w), (r_u, r_w), (merged,))
        self._emit(side, "parallel", (min(u, w), max(u, w)), (existing, merged), (combined,))

    def prune_leaf(self, v: int, side: str) -> None:
        """Drop a dangling resistor; it carries no current between terminals."""
        nbrs = self.neighbors(v)
        if len(nbrs) != 1:
            raise ReductionError(f"prune needs degree 1 at {v}, found {len(nbrs)}")
        (u,) = nbrs
        r = self._adj[v][u]
        self._unlink(v, u)
        del self._adj[v]
        self._emit(side, "prune", (v, u), (r,), ())


def reduce_straight_chain(steps: int) -> list[TailTriple]:
    """Tail triples of `steps` transform-merge rounds on a unit straight chain.

    These are the left tails the engine records when it reduces the straight
    chain on steps + 2 vertices.
    """
    if steps < 1:
        raise ReductionError("at least one reduction step is required")
    return reduce_straight_state(steps + 2)[1].left_tails


def _run_side(
    state: ReductionState,
    terminal: int,
    inward: int,
    steps: int,
    side: str,
    merge_last: bool,
) -> int:
    """Run `steps` transform(+merge) rounds from one chain end.

    Returns the label of the middle vertex of the last transform, which the
    caller either prunes (straight chains) or leaves for the final assembly
    (bent chains).
    """
    nbrs = state.neighbors(terminal)
    if len(nbrs) != 2 or inward not in nbrs:
        raise ReductionError(f"terminal {terminal} does not start a reducible chain")
    (far,) = [v for v in nbrs if v != inward]
    anchor, middle = terminal, inward
    tails = state.left_tails if side == "left" else state.right_tails
    for j in range(1, steps + 1):
        star, triple = state.apply_delta_y(anchor, middle, far, side, j)
        tails.append(triple)
        if j == steps and not merge_last:
            break
        rest = [v for v in state.neighbors(middle) if v != star]
        if len(rest) != 1:
            raise ReductionError(f"chain continuation at vertex {middle} is ambiguous")
        state.merge_series_at(middle, side)
        anchor, middle, far = star, far, rest[0]
    return middle


def _collapse_to_single_edge(state: ReductionState) -> Fraction:
    """Series/parallel-merge everything between the two terminals.

    Visits the interior vertices in sorted order; one of degree 3 or more
    goes to the back of the queue, so the later rounds revisit the survivors
    in sorted order too.
    """
    queue = deque(v for v in state.vertices if v not in (state.source, state.sink))
    skipped = 0
    while queue:
        v = queue.popleft()
        degree = len(state._adj[v])
        if degree == 2:
            state.merge_series_at(v, "final")
            skipped = 0
        elif degree == 1:
            state.prune_leaf(v, "final")
            skipped = 0
        else:
            queue.append(v)
            skipped += 1
            if skipped == len(queue):  # a whole round without a rewrite
                raise ReductionError("circuit did not collapse to a single resistor")
    return state.resistance_between(state.source, state.sink)


def reduce_straight_state(
    n: int, observer: Optional[Observer] = None
) -> tuple[Fraction, ReductionState]:
    """Full end-to-end reduction of the straight family, with audit state."""
    graph = straight_2tree(n)
    state = ReductionState(graph, source=1, sink=n, observer=observer)
    m = n - 2
    last_middle = _run_side(state, terminal=1, inward=2, steps=m, side="left", merge_last=False)
    state.prune_leaf(last_middle, "left")
    expected = sum((tr.t for tr in state.left_tails), Fraction(0)) + state.left_tails[-1].b
    value = _collapse_to_single_edge(state)
    if value != expected:
        raise ReductionError("tail bookkeeping disagrees with the collapsed circuit")
    return value, state


def reduce_bent(
    n: int, k: int, observer: Optional[Observer] = None
) -> tuple[Fraction, ReductionState]:
    """Resistance between 1 and n of the bent 2-tree, plus the audit state.

    Reduces k-2 triangles from the left, then n-k-1 from the right, then
    combines the remaining parallel pair and the two tail chains.
    """
    graph = bent_2tree(n, k)
    state = ReductionState(graph, source=1, sink=n, observer=observer)
    p = k - 2
    ell = n - k - 1
    _run_side(state, terminal=1, inward=2, steps=p, side="left", merge_last=True)
    _run_side(state, terminal=n, inward=n - 1, steps=ell, side="right", merge_last=False)
    left_last = state.left_tails[-1]
    right_last = state.right_tails[-1]
    expected = (
        parallel_combine(left_last.b + right_last.s, left_last.s + right_last.b + 1)
        + sum((tr.t for tr in state.left_tails), Fraction(0))
        + sum((tr.t for tr in state.right_tails), Fraction(0))
    )
    value = _collapse_to_single_edge(state)
    if value != expected:
        raise ReductionError("tail bookkeeping disagrees with the collapsed circuit")
    return value, state
