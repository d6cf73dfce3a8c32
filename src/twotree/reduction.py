"""Triangle-by-triangle circuit reduction with exact tail bookkeeping.

The reduction walks a 2-tree chain from its ends: transform the frontier
triangle to a star, merge the star's middle branch in series with the next
chain edge, rename, repeat.  Every elementary rewrite (star transform,
series merge, parallel merge, leaf prune) preserves the terminal-to-terminal
resistance, is appended to an ordered step log, and can be observed from the
outside for auditing.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable, NamedTuple, Optional

from .graphs import GraphError, WeightedGraph, bent_2tree, straight_2tree
from .rational import _add_pairs, _coprime_fraction, as_rational, parallel_combine, ratio_string, series_combine


# The engine keeps its whole step log, as int tuples until it is read, and its
# time grows faster than n^2, so larger chains are refused before one is built.
ENGINE_VERTEX_GUARD = 10_000


def check_engine_size(n: int) -> None:
    """Refuse a chain on more than ENGINE_VERTEX_GUARD vertices."""
    if n > ENGINE_VERTEX_GUARD:
        raise GraphError(f"the reduction engine is guarded at n <= {ENGINE_VERTEX_GUARD}, got n = {n}")


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
    The engine's own transforms use `_chain_branches`; the engine calls
    this once per side run, to check that run's last transform.
    """
    a, b, c = as_rational(r_a), as_rational(r_b), as_rational(r_c)
    if a.numerator <= 0 or b.numerator <= 0 or c.numerator <= 0:
        raise ReductionError("triangle resistances must be strictly positive")
    s = a + b + c
    return b * c / s, a * c / s, a * b / s


def _chain_branches(a: tuple[int, int], b: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """`delta_y(a, b, 1)` for a transform of `apply_delta_y`, with a single gcd.

    On int pairs in lowest terms, a = (p, q) and b = (r, u), giving the
    pairs (x, y, t); only for the unit chains the engine builds, where the
    base c = 1 (checked by the caller).  Put both over a common
    denominator D as P = a*D and R = b*D, so that S = P + R + D =
    (a + b + 1)*D; the branches are x = b/(a + b + 1) = R/S,
    y = P/S and t = a*b/(a + b + 1) = x*a.  On a unit chain q divides u, so
    D = u, P = p*(u/q) and R = r.  One gcd g = gcd(R, S) reduces x;
    y = P/S and t = (R/g * p)/(S/g * q) are already in lowest terms and are
    built without a gcd.  When q does not divide u, the triangle is not one
    of a unit chain and ReductionError is raised.

    Proof on a unit chain.  Transform 1 sees a = b = c = 1.  Transform j+1
    sees c = 1, a = x_j (the far branch of star j, now the edge from star j
    to the new middle) and b = y_j + 1 (the middle branch of star j merged in
    series with a unit chain edge).  If gcd(P_j, S_j) = 1, b has denominator
    u = S_j, and a has q = S_j/g_j, which divides it: the remainder is 0,
    D_{j+1} = S_j, P_{j+1} = p*g_j = R_j and R_{j+1} = P_j + S_j.  So the
    unreduced triple (A, B, D) = (P, R, D) follows
    (A, B, D) -> (B, 2A + B + D, A + B + D) from (1, 1, 1).  By induction,
    with the Fibonacci numbers F (F_1 = F_2 = 1),

        A_j = F_j^2,  B_j = F_{j+1}^2,  D_j = F_{2j},

    using F_{2j} = 2 F_j F_{j+1} - F_j^2, F_{2j+1} = F_j^2 + F_{j+1}^2
    and F_{j+2} = F_j + F_{j+1}; so S_j = F_{2j+1} + F_{2j} = F_{2j+2}.  Since gcd(F_m, F_n) = F_{gcd(m, n)}:

    - y_j = A_j/S_j: gcd(F_j, F_{2j+2}) = F_{gcd(j, 2)} = 1, so
      gcd(P_j, S_j) = 1 (which the induction used).
    - t_j = x_j * x_{j-1} for j > 1 (t_1 = x_1): the factor R_j/g_j
      divides F_{j+1}^2 and S_{j-1}/g_{j-1} divides F_{2j}, with
      gcd(F_{j+1}, F_{2j}) = F_{gcd(j+1, 2)} = 1; the factor
      R_{j-1}/g_{j-1} divides F_j^2 and S_j/g_j divides F_{2j+2}, with
      gcd(F_j, F_{2j+2}) = 1.  Both cross gcds of the product are 1, and
      x_j and a are in lowest terms themselves, so t_j is too.

    Both sides of a bent chain walk the same way from their terminals, so
    the same holds there.  The Fibonacci numbers appear only in this proof.
    """
    p, q = a
    big_r, d = b
    m, rest = divmod(d, q)
    if rest:
        raise ReductionError(
            f"chain invariant broken: denominator {q} of r_a does not divide denominator {d} of r_b"
        )
    big_p = p * m
    total = big_p + big_r + d
    g = gcd(big_r, total)
    r_g, s_g = big_r // g, total // g
    return (r_g, s_g), (big_p, total), (r_g * p, s_g * q)


class TailTriple(namedtuple("TailTriple", ("j", "t", "s", "b"))):
    """Branches of the j-th transform: tail t, merge-side s, far-side b."""

    __slots__ = ()

    def __new__(cls, j: int, t: Fraction, s: Fraction, b: Fraction) -> "TailTriple":
        if t.numerator <= 0 or s.numerator <= 0 or b.numerator <= 0:
            raise ReductionError("tail triple entries must be strictly positive")
        return super().__new__(cls, j, t, s, b)

    @classmethod
    def _make(cls, fields):
        # `_replace` builds through here, so it validates too.
        return cls(*fields)


class StepRecord(NamedTuple):
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

_UNIT = (1, 1)


def _fraction(pair):
    return _coprime_fraction(*pair)


def _step_record(entry, fraction):
    index, side, kind, nodes, inputs, outputs = entry
    return StepRecord(index, side, kind, nodes, tuple(map(fraction, inputs)), tuple(map(fraction, outputs)))


def _tail_triple(entry, fraction):
    j, t, s, b = entry
    return TailTriple(j, fraction(t), fraction(s), fraction(b))


def _built(entries, build):
    """Build the raw entries (plain tuples, always a suffix) into records, in place.

    A branch recurs in later records, so a pass builds one `Fraction` per value.
    """
    start = len(entries)
    while start and type(entries[start - 1]) is tuple:
        start -= 1
    fraction = cache(_fraction)
    for i in range(start, len(entries)):
        entries[i] = build(entries[i], fraction)
    return entries


class ReductionState:
    """Evolving circuit during a reduction run.

    Mutable only through the rewrite methods below; once the driver returns,
    treat the state as a read-only audit record.  Edge values are
    resistances (the reciprocal of graph weights) as int pairs in lowest
    terms; `log` and the tail lists hold them in plain tuples until read.
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
        self._left_tails = []
        self._right_tails = []
        self._log = []
        self._last_transform = None
        self._adj = {v: {} for v in range(1, graph.n + 1)}
        for i, j, w in graph.edges:
            # A unit weight is its own resistance; the chain builders share one.
            r = _UNIT if w == 1 else (w.denominator, w.numerator)
            self._adj[i][j] = r
            self._adj[j][i] = r
        self._next_label = graph.n
        self._observer = observer

    # -- inspection ---------------------------------------------------------

    @property
    def log(self) -> list[StepRecord]:
        return _built(self._log, _step_record)

    @property
    def left_tails(self) -> list[TailTriple]:
        return _built(self._left_tails, _tail_triple)

    @property
    def right_tails(self) -> list[TailTriple]:
        return _built(self._right_tails, _tail_triple)

    @property
    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def neighbors(self, v: int) -> list[int]:
        if v not in self._adj:
            raise ReductionError(f"vertex {v} is not in the circuit")
        return sorted(self._adj[v])

    def resistance_between(self, u: int, v: int) -> Fraction:
        try:
            return _fraction(self._adj[u][v])
        except KeyError:
            raise ReductionError(f"no resistor between {u} and {v}") from None

    def as_weighted_graph(self) -> tuple[WeightedGraph, dict[int, int]]:
        """Snapshot as a WeightedGraph plus the old-label -> new-label map."""
        relabel = {old: new for new, old in enumerate(self.vertices, start=1)}
        edges = [
            (relabel[u], relabel[v], _coprime_fraction(d, r))
            for u, nbrs in self._adj.items()
            for v, (r, d) in nbrs.items()
            if u < v
        ]
        return WeightedGraph(len(relabel), edges), relabel

    # -- elementary rewrites --------------------------------------------------

    def _emit(self, side: str, kind: str, nodes, inputs, outputs) -> tuple:
        log = self._log
        entry = (len(log) + 1, side, kind, nodes, inputs, outputs)
        log.append(entry)
        if self._observer is not None:
            self._observer(self, self.log[-1])
        return entry

    def apply_delta_y(self, anchor: int, middle: int, far: int, side: str, j: int) -> tuple[int, tuple]:
        """Transform the triangle (anchor, middle, far) of a unit chain into a star.

        The base middle-far must have resistance 1, and the branches come
        from `_chain_branches`; a triangle off the chain raises
        ReductionError.  Returns the star and the raw tail (j, t, s, b).
        """
        adj = self._adj
        try:
            at_anchor, at_middle, at_far = adj[anchor], adj[middle], adj[far]
            r_a, r_b, r_c = at_anchor[middle], at_anchor[far], at_middle[far]
        except KeyError:
            raise ReductionError(f"no resistor triangle on {anchor}, {middle}, {far}") from None
        if r_c != _UNIT:
            raise ReductionError(
                f"chain invariant broken: edge {middle}-{far} has resistance {_fraction(r_c)}, expected 1"
            )
        r_1, r_2, r_3 = _chain_branches(r_a, r_b)
        del at_anchor[middle], at_anchor[far], at_middle[anchor], at_middle[far]
        del at_far[anchor], at_far[middle]
        self._next_label = star = self._next_label + 1
        adj[star] = {anchor: r_3, middle: r_2, far: r_1}
        at_anchor[star] = r_3
        at_middle[star] = r_2
        at_far[star] = r_1
        self._last_transform = self._emit(
            side, "delta_y", (anchor, middle, far, star), (r_a, r_b, r_c), (r_1, r_2, r_3)
        )
        return star, (j, r_3, r_2, r_1)

    def merge_series_at(self, v: int, side: str) -> tuple[int, int]:
        """Replace the two resistors through a degree-2 vertex by their sum.

        When an edge between the two neighbors already exists, the merged
        resistor lands in parallel with it and the pair is combined on the
        spot (the circuit never holds parallel duplicates).  Returns the two
        neighbors, in ascending order.
        """
        adj = self._adj
        at_v = adj.get(v, ())
        if len(at_v) != 2:
            raise ReductionError(f"series merge needs degree 2 at {v}, found {len(at_v)}")
        (u, r_u), (w, r_w) = at_v.items()
        if u > w:
            u, r_u, w, r_w = w, r_w, u, r_u
        merged = _add_pairs(r_u, r_w)
        del adj[v]
        at_u, at_w = adj[u], adj[w]
        del at_u[v], at_w[v]
        existing = at_u.get(w)
        if existing is None:
            stored = merged
        else:
            combined = parallel_combine(_fraction(existing), _fraction(merged))
            stored = (combined.numerator, combined.denominator)
        at_u[w] = at_w[u] = stored
        self._emit(side, "series", (u, v, w), (r_u, r_w), (merged,))
        if existing is not None:
            self._emit(side, "parallel", (u, w), (existing, merged), (stored,))
        return u, w

    def prune_leaf(self, v: int, side: str) -> None:
        """Drop a dangling resistor; it carries no current between terminals."""
        nbrs = self.neighbors(v)
        if len(nbrs) != 1:
            raise ReductionError(f"prune needs degree 1 at {v}, found {len(nbrs)}")
        (u,) = nbrs
        r = self._adj.pop(v)[u]
        del self._adj[u][v]
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
) -> tuple[int, Fraction, TailTriple]:
    """Run `steps` transform(+merge) rounds from one chain end.

    Returns the label of the middle vertex of the last transform, which the
    caller either prunes (straight chains) or leaves for the final assembly
    (bent chains), the sum of the tails t in order, and the last tail.
    """
    nbrs = state.neighbors(terminal)
    if len(nbrs) != 2 or inward not in nbrs:
        raise ReductionError(f"terminal {terminal} does not start a reducible chain")
    (far,) = [v for v in nbrs if v != inward]
    anchor, middle = terminal, inward
    tails = state._left_tails if side == "left" else state._right_tails
    total = None
    for j in range(1, steps + 1):
        star, tail = state.apply_delta_y(anchor, middle, far, side, j)
        tails.append(tail)
        total = tail[1] if total is None else _add_pairs(total, tail[1])
        if j == steps and not merge_last:
            break
        u, w = state.merge_series_at(middle, side)
        anchor, middle, far = star, far, (w if u == star else u)
    _check_last_transform(state)
    return middle, _fraction(total), _tail_triple(tail, _fraction)


def _check_last_transform(state: ReductionState) -> None:
    """Check the latest star transform against the textbook `delta_y`.

    The tail-bookkeeping check cannot see a wrong tail t, since both of its
    sides read the same t values; this one can, at O(1) big-integer work.
    """
    index, _, _, _, inputs, outputs = state._last_transform
    if tuple(map(_fraction, outputs)) != delta_y(*map(_fraction, inputs)):
        raise ReductionError(f"star transform {index} disagrees with delta_y")


def _collapse_to_single_edge(state: ReductionState, expected: Fraction) -> Fraction:
    """Series-merge the chain left between the terminals into one resistor.

    After the side reductions the circuit is a chain: taken in ascending
    label order, every interior vertex has degree 2 when its turn comes, so
    one sorted pass of series merges (each followed by a parallel merge when
    it closes a pair) leaves the single resistor source-sink.  A vertex of
    any other degree raises ReductionError, as does a result that differs
    from `expected`, the value of the tail bookkeeping.
    """
    for v in state.vertices:
        if v not in (state.source, state.sink):
            state.merge_series_at(v, "final")
    value = state.resistance_between(state.source, state.sink)
    if value != expected:
        raise ReductionError("tail bookkeeping disagrees with the collapsed circuit")
    return value


def reduce_straight_state(
    n: int, observer: Optional[Observer] = None
) -> tuple[Fraction, ReductionState]:
    """Full end-to-end reduction of the straight family, with audit state."""
    check_engine_size(n)
    graph = straight_2tree(n)
    state = ReductionState(graph, source=1, sink=n, observer=observer)
    m = n - 2
    last_middle, tail_sum, last = _run_side(
        state, terminal=1, inward=2, steps=m, side="left", merge_last=False
    )
    state.prune_leaf(last_middle, "left")
    expected = series_combine(tail_sum, last.b)
    return _collapse_to_single_edge(state, expected), state


def reduce_bent(
    n: int, k: int, observer: Optional[Observer] = None
) -> tuple[Fraction, ReductionState]:
    """Resistance between 1 and n of the bent 2-tree, plus the audit state.

    Reduces k-2 triangles from the left, then n-k-1 from the right, then
    combines the remaining parallel pair and the two tail chains.
    """
    check_engine_size(n)
    graph = bent_2tree(n, k)
    state = ReductionState(graph, source=1, sink=n, observer=observer)
    p = k - 2
    ell = n - k - 1
    _, left_sum, left = _run_side(state, terminal=1, inward=2, steps=p, side="left", merge_last=True)
    _, right_sum, right = _run_side(
        state, terminal=n, inward=n - 1, steps=ell, side="right", merge_last=False
    )
    expected = series_combine(
        series_combine(parallel_combine(left.b + right.s, left.s + right.b + 1), left_sum),
        right_sum,
    )
    return _collapse_to_single_edge(state, expected), state
