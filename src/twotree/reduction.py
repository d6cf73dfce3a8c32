"""Triangle-by-triangle circuit reduction with exact tail bookkeeping.

The reduction walks a 2-tree chain from its ends: transform the frontier
triangle to a star, merge the star's middle branch in series with the next
chain edge, rename, repeat.  Every elementary rewrite (star transform,
series merge, parallel merge, leaf prune) preserves the terminal-to-terminal
resistance, is appended to an ordered step log unless the run keeps none,
and can be observed from the outside for auditing.  A final pass of series
merges collapses what is left and sums the tails, once; the tail
bookkeeping checks that each side's chain holds exactly that side's tails
and that the collapsed value is the two side sums joined with the middle
the paper's formula gives.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable, NamedTuple, Optional

from .graphs import _UNIT as _UNIT_WEIGHT, WeightedGraph, bent_2tree, check_work, straight_2tree
from .rational import _add_pairs, _coprime_fraction, as_rational, parallel_combine, ratio_string, series_combine


def engine_work(n: int, k: int) -> int:
    """The engine on n vertices bent at k (straight: k = n), in units of about 1 ns.

    About 5 us a vertex up to a few hundred vertices; past a few thousand a
    side's big-integer work grows as the cube of its length.  Fitted at 15 us
    a vertex, above centre, edge and straight runs at n = 6 to 3000 and
    10,000 (a centred bend at 20,000: 3.3-4.6 s, priced 42 s; a straight
    chain at 10,000: 1.7-2.2 s, priced 17 s), log kept or not.
    """
    return 200_000 + 40_000 * n + 40 * n * n + (k**3 + (n - k) ** 3) // 80


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
    Over the common denominator qa*qb*qc of r_a = pa/qa, r_b = pb/qb and
    r_c = pc/qc, s is S = pa*qb*qc + pb*qa*qc + pc*qa*qb, and the branches
    are pb*pc*qa/S, pa*pc*qb/S and pa*pb*qc/S, each reduced once.
    The engine's own transforms use `_chain_branches`; the engine calls
    this once per side run, to check that run's last transform.
    """
    a, b, c = as_rational(r_a), as_rational(r_b), as_rational(r_c)
    pa, qa = a.numerator, a.denominator
    pb, qb = b.numerator, b.denominator
    pc, qc = c.numerator, c.denominator
    if pa <= 0 or pb <= 0 or pc <= 0:
        raise ReductionError("triangle resistances must be strictly positive")
    s = pa * qb * qc + pb * qa * qc + pc * qa * qb
    return Fraction(pb * pc * qa, s), Fraction(pa * pc * qb, s), Fraction(pa * pb * qc, s)


def _chain_branches(a: tuple[int, int], b: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """`delta_y(a, b, 1)` for a transform of `apply_delta_y`, with a single gcd.

    On int pairs in lowest terms, a = (p, q) and b = (r, u), giving the
    pairs (x, y, t); only for the unit chains the engine builds, where the
    base c = 1 (checked by the caller).  Put both over a common
    denominator D as P = a*D and R = b*D, so that S = P + R + D =
    (a + b + 1)*D; the branches are x = b/(a + b + 1) = R/S,
    y = P/S and t = a*b/(a + b + 1) = x*a.  On a unit chain q divides u, so
    D = u, P = p*(u/q) and R = r.  One gcd g = gcd(R, S), taken as
    gcd(p + q, R mod (p + q)) (last paragraph), reduces x; y = P/S and
    t = (R/g * p)/(S/g * q) are already in lowest terms and are built
    without a gcd.  When q does not divide u, the triangle is not one of a
    unit chain and ReductionError is raised.

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
    the same holds there.

    The one gcd is taken on operands of half the size, and R is divided
    once.  With m = D/q, b = R/D is in lowest terms and m divides D, so
    gcd(R, m) = 1; as S = m*(p + q) + R, g = gcd(R, S) = gcd(R, p + q) and
    S/g = m*((p + q)/g) + R/g, on any input, not only a chain's.  With
    R = quot*(p + q) + rem, g = gcd(p + q, rem) and
    R/g = quot*((p + q)/g) + rem/g, each quotient exact.  On a unit chain
    g_j = gcd(F_{j+1}^2, F_{j+1} L_{j+1}) is F_{j+1} or 2 F_{j+1}, so
    q = S_j/g_j and m = g_j have about half the bits of S_{j+1}, and
    p + q = F_{j+1} (F_{j+1} + L_{j+1})/g_j = 2 F_{j+1} F_{j+2}/g_j is
    F_{j+2} or 2 F_{j+2}, against R_{j+1} = F_{j+2}^2.  Either p + q
    divides R, or p + q = 2g and rem = g = F_{j+2} (F_{j+2} odd); so
    (p + q)/g is 1 or 2.  The Fibonacci and Lucas numbers appear only in
    these proofs.
    """
    p, q = a
    big_r, d = b
    m, rest = divmod(d, q)
    if rest:
        raise ReductionError(
            f"chain invariant broken: denominator {q} of r_a does not divide denominator {d} of r_b"
        )
    big_p = p * m
    p_q = p + q
    quot, rem = divmod(big_r, p_q)
    g = gcd(p_q, rem)
    p_q_g = p_q // g
    r_g = quot * p_q_g + rem // g
    s_g = m * p_q_g + r_g
    return (r_g, s_g), (big_p, big_p + big_r + d), (r_g * p, s_g * q)


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


class ReductionState:
    """Evolving circuit during a reduction run.

    Mutable only through the rewrite methods below; once the driver returns,
    treat the state as a read-only audit record.  Edge values are
    resistances (the reciprocal of graph weights) as int pairs in lowest
    terms.  The step log is the only record of the rewrites: each record is
    built as its rewrite happens, with one `Fraction` per value across the
    log, and the tail lists are views of its star transforms.  With
    keep_log=False the state keeps no record, so the log and both tail
    lists stay empty.  An observer is handed each record as its rewrite
    happens, with or without the log; with the log it is the very record
    the log holds.  With neither, no record is built.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        source: int,
        sink: int,
        observer: Optional[Observer] = None,
        keep_log: bool = True,
    ):
        self.source = source
        self.sink = sink
        self.log: list[StepRecord] = []
        self._keep_log = keep_log
        self._records = keep_log or observer is not None
        # A branch recurs in later records, so equal values across a kept log
        # share one Fraction.
        self._fractions = cache(_fraction) if keep_log else _fraction
        self._steps = 0
        self._adj = adj = {v: {} for v in range(1, graph.n + 1)}
        for i, j, w in graph.edges:
            # The chain builders share one unit weight, told apart without a
            # Fraction comparison; it is its own resistance.
            r = _UNIT if w is _UNIT_WEIGHT else (w.denominator, w.numerator)
            adj[i][j] = r
            adj[j][i] = r
        self._next_label = graph.n
        self._observer = observer

    # -- inspection ---------------------------------------------------------

    def _tails(self, side: str) -> list[TailTriple]:
        # Tail j is the side's j-th star transform, whose outputs are (b, s, t).
        transforms = (record for record in self.log if record.kind == "delta_y" and record.side == side)
        return [TailTriple(j, *reversed(record.outputs)) for j, record in enumerate(transforms, start=1)]

    @property
    def left_tails(self) -> list[TailTriple]:
        """The left side's tails, read off the log; empty when the state keeps no log."""
        return self._tails("left")

    @property
    def right_tails(self) -> list[TailTriple]:
        """The right side's tails, read off the log; empty when the state keeps no log."""
        return self._tails("right")

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

    def _emit(self, side: str, kind: str, nodes, inputs, outputs) -> None:
        self._steps = index = self._steps + 1
        if self._records:
            fraction = self._fractions
            record = StepRecord(index, side, kind, nodes, tuple(map(fraction, inputs)), tuple(map(fraction, outputs)))
            if self._keep_log:
                self.log.append(record)
            if self._observer is not None:
                self._observer(self, record)

    def apply_delta_y(self, anchor: int, middle: int, far: int, side: str) -> tuple[int, tuple, tuple]:
        """Transform the triangle (anchor, middle, far) of a unit chain into a star.

        The base middle-far must have resistance 1, and the branches come
        from `_chain_branches`; a triangle off the chain raises
        ReductionError.  Returns the star, the int pairs of the triangle
        and the star's branches, which are the tail's (b, s, t).
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
        inputs, outputs = (r_a, r_b, r_c), (r_1, r_2, r_3)
        self._emit(side, "delta_y", (anchor, middle, far, star), inputs, outputs)
        return star, inputs, outputs

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
        if self._records:
            self._emit(side, "series", (u, v, w), (r_u, r_w), (merged,))
            if existing is not None:
                self._emit(side, "parallel", (u, w), (existing, merged), (stored,))
        else:
            self._steps += 1 if existing is None else 2  # the entries a kept log would take
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

    These are the left tails read off the step log of the engine's
    reduction of the straight chain on steps + 2 vertices.
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
) -> tuple[int, tuple[int, int, list], TailTriple]:
    """Run `steps` transform(+merge) rounds from one chain end.

    Returns the label of the middle vertex of the last transform, which the
    caller either prunes (straight chains) or leaves for the final assembly
    (bent chains), the side's record, and the last tail.  The record is the
    terminal, the last star and the side's t pairs in order; the side's
    stars carry consecutive labels, so star j is the last star minus
    (steps - j).  The tails are not added here: the final pass adds them,
    and `_collapse_to_single_edge` checks that it adds exactly these.
    """
    nbrs = state.neighbors(terminal)
    if len(nbrs) != 2 or inward not in nbrs:
        raise ReductionError(f"terminal {terminal} does not start a reducible chain")
    (far,) = [v for v in nbrs if v != inward]
    anchor, middle = terminal, inward
    ts = []
    for j in range(1, steps + 1):
        star, inputs, outputs = state.apply_delta_y(anchor, middle, far, side)
        index = state._steps
        ts.append(outputs[2])  # the outputs are (b, s, t)
        if j == steps and not merge_last:
            break
        u, w = state.merge_series_at(middle, side)
        anchor, middle, far = star, far, (w if u == star else u)
    # The tail-bookkeeping check cannot see a wrong tail t, since the chain
    # it walks holds the same t pairs the log does; checking the side's last
    # transform against the textbook `delta_y` can, at O(1) big-integer work.
    b, s, t = map(_fraction, outputs)
    if (b, s, t) != delta_y(*map(_fraction, inputs)):
        raise ReductionError(f"star transform {index} disagrees with delta_y")
    return middle, (terminal, star, ts), TailTriple(steps, t, s, b)


def _check_tail_chain(adj: dict, terminal: int, last_star: int, ts: list) -> None:
    """Refuse a side whose chain from its terminal does not hold exactly its tails.

    With p = len(ts), the chain must run terminal, star_1, ..., star_p on
    the consecutive labels ending at `last_star`, the edge into star_j must
    hold the t pair ts[j - 1] (the very object `apply_delta_y` stored, so
    each comparison is O(1)), and the terminal and every star but the last
    must have no other edge.  Then the sorted final pass merges the stars
    in chain order, adding the tails, and reaches the last star with their
    sum on its edge to the terminal.
    """
    v, edges = terminal, {}
    for star, t in enumerate(ts, start=last_star - len(ts) + 1):
        edges[star] = t
        if adj[v] != edges:
            raise ReductionError(f"tail bookkeeping disagrees with the circuit at vertex {v}")
        v, edges = star, {v: t}
    if not edges.items() <= adj[v].items():
        raise ReductionError(f"tail bookkeeping disagrees with the circuit at vertex {v}")


def _collapse_to_single_edge(state: ReductionState, middle: Fraction, sides=()) -> Fraction:
    """Series-merge the chain left between the terminals into one resistor.

    After the side reductions the circuit is a chain: taken in ascending
    label order, every interior vertex has degree 2 when its turn comes, so
    one sorted pass of series merges (each followed by a parallel merge when
    it closes a pair) leaves the single resistor source-sink.  A vertex of
    any other degree raises ReductionError.

    The pass is the only place the tails are added.  `sides` holds each
    side run's record: its terminal, last star and t pairs.  Each side's
    chain must hold exactly those tails (`_check_tail_chain`), and the
    side's sum is read off the edge from its last star to its terminal as
    the pass reaches that star.  The collapsed value must equal `middle`
    joined in series with those sums, or ReductionError is raised: the
    tail bookkeeping disagrees.
    """
    adj = state._adj
    last_stars = {}
    for terminal, last_star, ts in sides:
        _check_tail_chain(adj, terminal, last_star, ts)
        last_stars[last_star] = terminal
    expected = middle
    for v in state.vertices:
        if v in last_stars:
            expected = series_combine(expected, _fraction(adj[v][last_stars[v]]))
        if v not in (state.source, state.sink):
            state.merge_series_at(v, "final")
    value = state.resistance_between(state.source, state.sink)
    if value != expected:
        raise ReductionError("tail bookkeeping disagrees with the collapsed circuit")
    return value


def reduce_straight_state(
    n: int, observer: Optional[Observer] = None, keep_log: bool = True
) -> tuple[Fraction, ReductionState]:
    """Full end-to-end reduction of the straight family, with audit state.

    With keep_log=False the state keeps no record (see ReductionState); an
    observer still gets each one, and every check still runs.
    """
    check_work(f"the reduction engine on a straight chain of {n} vertices", engine_work(n, n))
    graph = straight_2tree(n)
    state = ReductionState(graph, source=1, sink=n, observer=observer, keep_log=keep_log)
    m = n - 2
    last_middle, chain, last = _run_side(state, terminal=1, inward=2, steps=m, side="left", merge_last=False)
    state.prune_leaf(last_middle, "left")
    return _collapse_to_single_edge(state, last.b, [chain]), state


def reduce_bent(
    n: int, k: int, observer: Optional[Observer] = None, keep_log: bool = True
) -> tuple[Fraction, ReductionState]:
    """Resistance between 1 and n of the bent 2-tree, plus the audit state.

    Reduces k-2 triangles from the left, then n-k-1 from the right, then
    combines the remaining parallel pair and the two tail chains.
    With keep_log=False the state keeps no record (see ReductionState); an
    observer still gets each one, and every check still runs.
    """
    check_work(f"the reduction engine on a chain of {n} vertices bent at {k}", engine_work(n, k))
    graph = bent_2tree(n, k)
    state = ReductionState(graph, source=1, sink=n, observer=observer, keep_log=keep_log)
    p = k - 2
    ell = n - k - 1
    _, left_chain, left = _run_side(state, terminal=1, inward=2, steps=p, side="left", merge_last=True)
    _, right_chain, right = _run_side(
        state, terminal=n, inward=n - 1, steps=ell, side="right", merge_last=False
    )
    middle = parallel_combine(left.b + right.s, left.s + right.b + 1)
    return _collapse_to_single_edge(state, middle, [left_chain, right_chain]), state
