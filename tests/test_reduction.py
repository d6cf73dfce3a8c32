"""The triangle-to-star reduction engine and its bookkeeping."""

import math
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotree import (
    BentParams,
    GraphError,
    ReductionError,
    WeightedGraph,
    bent_2tree,
    bent_resistance_product,
    fib,
    lucas,
    reduce_bent,
    reduce_straight_chain,
    reduce_straight_state,
    resistance_exact,
    straight_2tree,
    straight_pair_resistance,
)
from twotree import cli, rational, reduction
from twotree.reduction import (
    ReductionState,
    TailTriple,
    _chain_branches,
    _collapse_to_single_edge,
    delta_y,
    engine_work,
)


def test_delta_y_symmetric_triangle():
    assert delta_y(1, 1, 1) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_delta_y_second_pipeline_step():
    assert delta_y(Fraction(1, 3), Fraction(4, 3), 1) == (
        Fraction(1, 2),
        Fraction(1, 8),
        Fraction(1, 6),
    )


def test_delta_y_plain_quotients():
    assert delta_y(2, 3, 6) == (Fraction(18, 11), Fraction(12, 11), Fraction(6, 11))


def test_delta_y_rejects_nonpositive():
    with pytest.raises(ReductionError):
        delta_y(0, 1, 1)
    with pytest.raises(ReductionError):
        delta_y(1, -1, 1)
    for position in range(3):
        for bad in (0, -1, Fraction(-2, 3)):
            inputs = [Fraction(5, 7), Fraction(3, 4), Fraction(9, 2)]
            inputs[position] = bad
            with pytest.raises(ReductionError):
                delta_y(*inputs)


def _delta_y_plain(a, b, c):
    """Referee: the star branches by plain Fraction arithmetic."""
    total = a + b + c
    return b * c / total, a * c / total, a * b / total


def _assert_matches_referee(inputs, outputs):
    assert outputs == _delta_y_plain(*inputs)
    assert all(type(q) is Fraction and q.denominator > 0 for q in outputs)
    assert all(gcd(q.numerator, q.denominator) == 1 for q in outputs)


# Small smooth factors make numerators and denominators share primes both
# within one input and across the three; the large draws exercise big ints.
_parts = st.builds(lambda x, f: x * f, st.integers(1, 60), st.sampled_from([1, 2, 3, 5, 6, 10, 12, 30]))
_positive_rationals = st.one_of(
    st.builds(Fraction, _parts, _parts),
    st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
)


@settings(deadline=None, max_examples=300)
# The engine only transforms triangles with a unit base, r_c = 1.
@given(a=_positive_rationals, b=_positive_rationals, c=st.one_of(st.just(Fraction(1)), _positive_rationals))
def test_delta_y_matches_plain_arithmetic(a, b, c):
    _assert_matches_referee((a, b, c), delta_y(a, b, c))


def test_engine_transforms_match_plain_arithmetic():
    # The bent chain transforms k - 2 triangles from the left and n - k - 1
    # from the right; the straight one all n - 2 from the left.
    for count, (_, state) in ((197, reduce_bent(200, 77)), (198, reduce_straight_state(200))):
        transforms = [record for record in state.log if record.kind == "delta_y"]
        assert len(transforms) == count
        for record in transforms:
            _assert_matches_referee(record.inputs, record.outputs)


def _assert_log_in_lowest_terms(state):
    # The chain transforms build their branches without normalising them; a
    # value left unreduced would compare and hash unlike the same number built
    # by `Fraction`.  Each transform must also give what `delta_y` gives.
    for record in state.log:
        if record.kind == "delta_y":
            assert record.outputs == delta_y(*record.inputs), record
        for q in record.inputs + record.outputs:
            assert type(q) is Fraction, record
            num, den = q.numerator, q.denominator
            assert den > 0 and gcd(num, den) == 1, record
            same = Fraction(num, den)
            assert q == same and hash(q) == hash(same), record


def test_step_log_values_are_in_lowest_terms_small():
    for n in range(6, 41):
        for k in range(3, n - 2):
            _assert_log_in_lowest_terms(reduce_bent(n, k)[1])
    for n in range(3, 61):
        _assert_log_in_lowest_terms(reduce_straight_state(n)[1])


@pytest.mark.parametrize("k", [3, 1000, 1997])
def test_step_log_values_are_in_lowest_terms_bent_2000(k):
    _assert_log_in_lowest_terms(reduce_bent(2000, k)[1])


def test_step_log_values_are_in_lowest_terms_straight_2000():
    _assert_log_in_lowest_terms(reduce_straight_state(2000)[1])


def _plain_tails(steps):
    """Referee: the tails of a unit chain, transform by transform, in plain Fraction arithmetic."""
    a = b = Fraction(1)
    tails = []
    for j in range(1, steps + 1):
        x, y, t = _delta_y_plain(a, b, Fraction(1))
        tails.append(TailTriple(j, t, y, x))
        a, b = x, y + 1
    return tails


def test_records_are_the_same_however_they_are_read():
    # The engine builds each record as it writes it, and an observer is
    # handed the very record the log holds.  This observer also reads the
    # log and the tails mid-run, while the engine keeps appending to them.
    # The log's values are checked in
    # test_step_log_values_are_in_lowest_terms_small.
    plain = _plain_tails(58)
    runs = [(reduce_bent, (n, k), k - 2, n - k - 1) for n in range(6, 41) for k in range(3, n - 2)]
    runs += [(reduce_straight_state, (n,), n - 2, 0) for n in range(3, 61)]
    for run, args, left, right in runs:
        received = []

        def watch(state, record):
            assert state.log[-1] is record and len(state.log) == record.index
            assert len(state.left_tails) + len(state.right_tails) <= left + right
            received.append(record)

        watched_value, watched = run(*args, observer=watch)
        value, state = run(*args)
        assert value == watched_value
        assert state.log == received
        assert all(a is b for a, b in zip(watched.log, received, strict=True))
        first = list(state.log)
        assert all(a is b for a, b in zip(first, state.log, strict=True))
        for audit in (state, watched):
            assert audit.left_tails == plain[:left] and audit.right_tails == plain[:right]
            assert audit.left_tails == audit.left_tails and audit.right_tails == audit.right_tails
            # The tails are views of the log: each tail's b, s, t are the very
            # values of its side's j-th star transform record.
            for side, tails in (("left", audit.left_tails), ("right", audit.right_tails)):
                transforms = [r for r in audit.log if r.kind == "delta_y" and r.side == side]
                for tail, record in zip(tails, transforms, strict=True):
                    assert all(a is b for a, b in zip((tail.b, tail.s, tail.t), record.outputs, strict=True))
            for tail in audit.left_tails + audit.right_tails:
                for q in tail[1:]:
                    assert type(q) is Fraction and q.denominator > 0, (args, tail)
                    assert gcd(q.numerator, q.denominator) == 1, (args, tail)


@pytest.mark.parametrize("run, args", [(reduce_bent, (40, 17)), (reduce_straight_state, (40,))])
@pytest.mark.parametrize("watched", [False, True], ids=["unwatched", "watched"])
def test_each_log_value_is_one_fraction(run, args, watched):
    # A branch recurs in later records: as the next transform's input, in a
    # series merge and as a tail.  Equal values across the whole log must be
    # one object, whether or not an observer takes each record as it is made.
    received = []
    _, state = run(*args, observer=(lambda state, record: received.append(record)) if watched else None)
    assert received == (state.log if watched else [])
    first = {}
    for record in state.log:
        for q in record.inputs + record.outputs:
            assert first.setdefault(q, q) is q, (record, q)
    assert len(first) < sum(len(r.inputs) + len(r.outputs) for r in state.log)


def test_a_run_without_its_log_gives_the_same_value():
    runs = [(reduce_bent, (n, k)) for n in range(6, 41) for k in range(3, n - 2)]
    runs += [(reduce_straight_state, (n,)) for n in range(3, 61)]
    for run, args in runs:
        value, state = run(*args, keep_log=False)
        assert value == run(*args)[0], args
        assert state.log == [] and state.left_tails == [] and state.right_tails == [], args


def test_a_run_without_its_log_holds_little_memory():
    # The step log is nearly all a finished run holds: several MB at this
    # size, while the circuit is down to one resistor.
    held = {}
    for keep_log in (True, False):
        tracemalloc.start()
        try:
            result = reduce_bent(1500, 750, keep_log=keep_log)
            held[keep_log] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del result
    assert held[True] > 2_000_000
    assert held[False] < 1_000_000


def test_an_observer_needs_the_log(monkeypatch):
    def never(*args):
        pytest.fail("work started for an observer without a log")

    monkeypatch.setattr(reduction, "bent_2tree", never)
    monkeypatch.setattr(reduction, "straight_2tree", never)
    for call in (
        lambda: reduce_bent(8, 4, observer=print, keep_log=False),
        lambda: reduce_straight_state(8, observer=print, keep_log=False),
        lambda: ReductionState(WeightedGraph(3, [(1, 2, 1), (2, 3, 1)]), 1, 3, observer=print, keep_log=False),
    ):
        with pytest.raises(ValueError, match="keep_log=True"):
            call()


def test_chain_transforms_run_one_gcd_each(monkeypatch):
    # Every gcd the chain path could run, its own and those inside Fraction
    # arithmetic, is counted.  The transform works on int pairs.
    counts = {"gcd": 0}
    per_call = []

    def counted(key, real):
        def call(*args):
            counts[key] += 1
            return real(*args)

        return call

    def watched_chain(a, b):
        assert all(type(v) is int for v in a + b), (a, b)
        before = counts["gcd"]
        branches = _chain_branches(a, b)
        per_call.append(counts["gcd"] - before)
        assert all(type(v) is int for branch in branches for v in branch), branches
        return branches

    counted_gcd = counted("gcd", math.gcd)
    monkeypatch.setattr(math, "gcd", counted_gcd)
    monkeypatch.setattr(reduction, "gcd", counted_gcd)
    monkeypatch.setattr(reduction, "_chain_branches", watched_chain)
    for n, k in [(6, 3), (40, 3), (40, 37), (200, 77), (201, 100)]:
        reduce_bent(n, k)
        assert per_call == [1] * (n - 3), (n, k)
        per_call.clear()
    for n in (3, 4, 200):
        reduce_straight_state(n)
        assert per_call == [1] * (n - 2), n
        per_call.clear()
    # The public transform is the chain transform.
    state = ReductionState(straight_2tree(4), source=1, sink=4)
    state.apply_delta_y(1, 2, 3, "left")
    assert per_call == [1]


@st.composite
def _divisible_pairs(draw):
    """a = p/q and b = R/(q*m), each in lowest terms: more pairs than a chain's."""
    a = Fraction(draw(st.integers(1, 10**40)), draw(st.integers(1, 10**40)))
    d = a.denominator * draw(st.integers(1, 10**40))
    r = draw(st.integers(1, 10**80))
    while (g := gcd(r, d)) > 1:
        r //= g
    return a, Fraction(r, d)


@settings(deadline=None, max_examples=400)
@given(pair=_divisible_pairs())
def test_chain_branches_need_only_the_divisor_case(pair):
    # gcd(R, S) = gcd(R, p + q) needs only gcd(R, D) = 1 and q | D, so the
    # chain transform gives a reduced x and the right values off a chain too.
    a, b = pair
    x, y, t = _chain_branches((a.numerator, a.denominator), (b.numerator, b.denominator))
    ref = Fraction(b.numerator, a.numerator * (b.denominator // a.denominator) + b.numerator + b.denominator)
    assert x == (ref.numerator, ref.denominator)
    assert tuple(Fraction(*branch) for branch in (x, y, t)) == delta_y(a, b, 1)


def test_chain_gcds_take_a_half_size_operand(monkeypatch):
    # The one gcd of a transform is gcd(R, p + q): on a unit chain p + q has
    # about half the bits of R, where gcd(R, S) would take two of full size.
    operands = []

    def watched_gcd(*args):
        operands.append(args)
        return gcd(*args)

    monkeypatch.setattr(reduction, "gcd", watched_gcd)
    for run, transforms in ((lambda: reduce_bent(200, 77), 197), (lambda: reduce_straight_state(200), 198)):
        run()
        assert len(operands) == transforms
        for args in operands:
            small, big = sorted(v.bit_length() for v in args)
            assert small <= big / 2 + 2, args
        assert max(v.bit_length() for args in operands for v in args) > 150
        operands.clear()


def test_chain_sums_run_a_bounded_number_of_gcds(monkeypatch):
    # Every gcd an addition could run, its own and those inside Fraction
    # arithmetic, is counted.  The engine adds int pairs by `_add_pairs`,
    # which `series_combine` wraps, so both reach the counted addition.  The
    # partial sums of a chain take its divisor case; what is left is O(1) per
    # run: on a straight chain the last addition, tails plus b, once in the
    # collapse and once in the bookkeeping: both denominators are equal and
    # do not divide the numerator of the sum, so gcd(t, da) must run.
    counts = {"gcd": 0}
    per_call = []
    real_gcd, real_add = math.gcd, rational._add_pairs

    def counted_gcd(*args):
        counts["gcd"] += 1
        return real_gcd(*args)

    def watched_add(a, b):
        assert all(type(v) is int for v in a + b), (a, b)
        before = counts["gcd"]
        value = real_add(a, b)
        per_call.append(counts["gcd"] - before)
        return value

    monkeypatch.setattr(math, "gcd", counted_gcd)
    monkeypatch.setattr(rational, "gcd", counted_gcd)
    monkeypatch.setattr(rational, "_add_pairs", watched_add)
    monkeypatch.setattr(reduction, "_add_pairs", watched_add)
    for run, most, joins in ((lambda: reduce_straight_state(200), 2, 1), (lambda: reduce_bent(200, 77), 4, 2)):
        _, state = run()
        assert 0 < sum(per_call) <= most
        # Each tail is added once, by a series merge of the final pass.  The
        # bookkeeping adds no tail: it joins the side sums the pass formed to
        # the last b (a straight chain) or the parallel pair (a bent one).
        merges = sum(record.kind == "series" for record in state.log)
        assert len(per_call) == merges + joins
        per_call.clear()


def test_a_wrong_tail_is_refused(monkeypatch, capsys):
    # Both sides of the tail bookkeeping read the same t, so only the check
    # of each side's last transform against `delta_y` sees a wrong one.
    real = reduction._chain_branches

    def inverted(a, b):
        x, y, (t_num, t_den) = real(a, b)
        return x, y, (t_den, t_num)

    monkeypatch.setattr(reduction, "_chain_branches", inverted)
    for run, args in ((reduce_bent, (40, 17)), (reduce_straight_state, (40,))):
        # A run without its log is refused the same way, at the same step index.
        messages = []
        for keep_log in (True, False):
            with pytest.raises(ReductionError, match="disagrees with delta_y") as caught:
                run(*args, keep_log=keep_log)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
    assert cli.main(["reduce", "bent", "40", "17"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "disagrees with delta_y" in err


def _assert_the_bookkeeping_refuses(capsys, runs):
    # A run without its log is refused the same way, at the same vertex, and
    # `reduce` exits 1 with or without the log it would print.
    for run, args in runs:
        messages = []
        for keep_log in (True, False):
            with pytest.raises(ReductionError, match="tail bookkeeping disagrees") as caught:
                run(*args, keep_log=keep_log)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
    for flags in ((), ("--emit-log",)):
        assert cli.main(["reduce", "bent", "40", "17", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "tail bookkeeping disagrees" in err


# Each tamper takes a side record (terminal, last star, t pairs) apart.
_TAMPERS = {
    "first tail dropped": lambda last_star, ts: (last_star, ts[1:]),
    "last tail dropped": lambda last_star, ts: (last_star, ts[:-1]),
    "tails shifted a star on": lambda last_star, ts: (last_star, ts[1:] + ts[:1]),
    "stars shifted a label down": lambda last_star, ts: (last_star - 1, ts),
}


@pytest.mark.parametrize("tamper", _TAMPERS.values(), ids=_TAMPERS)
def test_a_side_record_that_drops_or_shifts_a_tail_is_refused(monkeypatch, capsys, tamper):
    real = reduction._run_side

    def tampered(*args, **kwargs):
        middle, (terminal, last_star, ts), last = real(*args, **kwargs)
        return middle, (terminal, *tamper(last_star, ts)), last

    monkeypatch.setattr(reduction, "_run_side", tampered)
    _assert_the_bookkeeping_refuses(capsys, ((reduce_bent, (40, 17)), (reduce_straight_state, (40,))))


@pytest.mark.parametrize("end", ["anchor", "star"])
def test_an_anchor_edge_other_than_its_tail_is_refused(monkeypatch, capsys, end):
    # The transform logs t, but the circuit holds t + 1 on the anchor edge,
    # seen from one end of it.  A side of one transform (a straight chain on
    # three vertices, the left side of a bend at 3) has no interior star, so
    # only the check of its last star's edge sees it.
    real = ReductionState.apply_delta_y

    def tampered(self, anchor, middle, far, side):
        star, inputs, outputs = real(self, anchor, middle, far, side)
        num, den = outputs[2]
        if end == "anchor":
            self._adj[anchor][star] = (num + den, den)
        else:
            self._adj[star][anchor] = (num + den, den)
        return star, inputs, outputs

    monkeypatch.setattr(ReductionState, "apply_delta_y", tampered)
    runs = [(reduce_bent, (40, 17)), (reduce_bent, (8, 3)), (reduce_straight_state, (40,)), (reduce_straight_state, (3,))]
    _assert_the_bookkeeping_refuses(capsys, runs)


def test_a_parallel_pair_left_unjoined_is_refused(monkeypatch, capsys):
    # The final pass stores the series resistor where it closes a pair, in
    # place of the pair's parallel combination.  A straight chain closes none.
    real = ReductionState.merge_series_at

    def series_only(self, v, side):
        merged = rational._add_pairs(*self._adj[v].values())
        u, w = real(self, v, side)
        self._adj[u][w] = self._adj[w][u] = merged
        return u, w

    monkeypatch.setattr(ReductionState, "merge_series_at", series_only)
    _assert_the_bookkeeping_refuses(capsys, ((reduce_bent, (40, 17)),))


def _side_circuit():
    # The source 1 reaches star 5 through the tails 1/3 (1-4) and 1/6 (4-5);
    # the middle between 5 and the sink 2 is 5-3-2 (1/2 + 1/3) in parallel
    # with 5-2 (1), that is 5/11.  Edge values are resistances, weights 1/r.
    edges = [(1, 4, 3), (4, 5, 6), (3, 5, 2), (2, 3, 3), (2, 5, 1)]
    state = ReductionState(WeightedGraph(5, edges), source=1, sink=2)
    adj = state._adj
    return state, [adj[1][4], adj[4][5]]


def test_final_collapse_adds_the_tails_it_checks():
    state, ts = _side_circuit()
    assert _collapse_to_single_edge(state, Fraction(5, 11), [(1, 5, ts)]) == Fraction(1, 2) + Fraction(5, 11)
    # The pass formed the tail sum 1-5 with one series merge, then joined the middle.
    final = [(record.kind, record.nodes) for record in state.log]
    assert final == [("series", (2, 3, 5)), ("parallel", (2, 5)), ("series", (1, 4, 5)), ("series", (1, 5, 2))]
    for middle, record in (
        (Fraction(5, 6), lambda ts: (1, 5, ts)),  # the series path alone, not the pair
        (Fraction(5, 11), lambda ts: (1, 5, ts[1:])),
        (Fraction(5, 11), lambda ts: (1, 4, ts[:1])),
        (Fraction(5, 11), lambda ts: (1, 5, [(1, 2), ts[1]])),
        (Fraction(5, 11), lambda ts: (1, 5, ts[::-1])),
        (Fraction(5, 11), lambda ts: (2, 5, ts)),
    ):
        state, ts = _side_circuit()
        with pytest.raises(ReductionError, match="tail bookkeeping disagrees"):
            _collapse_to_single_edge(state, middle, [record(ts)])


@pytest.mark.parametrize(
    "a, b",
    [
        (Fraction(1, 2), Fraction(1, 3)),  # q does not divide u
        (Fraction(3, 4), Fraction(5, 6)),
        (Fraction(7, 10), Fraction(2)),
    ],
)
def test_chain_branches_fall_back_off_the_chain(a, b):
    # No triangle of a unit chain gets here, so the chain path refuses it
    # instead of falling back to the general `delta_y`.
    with pytest.raises(ReductionError, match="^chain invariant broken: denominator"):
        _chain_branches((a.numerator, a.denominator), (b.numerator, b.denominator))
    _assert_matches_referee((a, b, Fraction(1)), delta_y(a, b, 1))


@pytest.mark.parametrize("bad", [0, Fraction(-1, 3)])
@pytest.mark.parametrize("field", ["t", "s", "b"])
def test_tail_triple_rejects_nonpositive_entries(bad, field):
    entries = {"t": Fraction(1, 3), "s": Fraction(1, 8), "b": Fraction(1, 2)}
    entries[field] = Fraction(bad)
    with pytest.raises(ReductionError):
        TailTriple(j=1, **entries)


def test_tail_triple_is_a_value():
    t = TailTriple(j=2, t=Fraction(1, 6), s=Fraction(1, 8), b=Fraction(1, 2))
    same = TailTriple(2, Fraction(1, 6), Fraction(1, 8), Fraction(1, 2))
    assert t == same and hash(t) == hash(same)
    assert t != TailTriple(3, Fraction(1, 6), Fraction(1, 8), Fraction(1, 2))
    with pytest.raises(AttributeError):
        t.s = Fraction(1)
    with pytest.raises(ReductionError, match="^tail triple entries must be strictly positive$"):
        TailTriple(2, Fraction(1, 6), Fraction(0), Fraction(1, 2))
    with pytest.raises(ReductionError):
        t._replace(b=Fraction(-1))


def test_chain_first_steps():
    triples = reduce_straight_chain(2)
    assert (triples[0].t, triples[0].s, triples[0].b) == (Fraction(1, 3),) * 3
    assert (triples[1].t, triples[1].s, triples[1].b) == (
        Fraction(1, 6),
        Fraction(1, 8),
        Fraction(1, 2),
    )


def test_chain_fifth_step_value():
    assert reduce_straight_chain(5)[4].b == Fraction(4, 9)


def test_chain_matches_closed_forms():
    for triple in reduce_straight_chain(50):
        j = triple.j
        assert triple.t == Fraction(fib(j) * fib(j + 1), lucas(j) * lucas(j + 1))
        assert triple.s == Fraction(fib(j) ** 2, fib(2 * j + 2))
        assert triple.b == Fraction(fib(j + 1), lucas(j + 1))


def test_chain_needs_a_step():
    with pytest.raises(ReductionError):
        reduce_straight_chain(0)


def test_reduce_straight_triangle():
    assert reduce_straight_state(3)[0] == Fraction(2, 3)


def test_reduce_straight_four_matches_oracle():
    assert reduce_straight_state(4)[0] == resistance_exact(straight_2tree(4), 1, 4)


def test_reduce_straight_six():
    value = reduce_straight_state(6)[0]
    assert value == Fraction(15, 11)
    assert value == straight_pair_resistance(4, 1, 5)


@pytest.mark.parametrize("n", range(3, 26))
def test_reduce_straight_matches_formula(n):
    assert reduce_straight_state(n)[0] == straight_pair_resistance(n - 2, 1, n - 1)


def test_reduce_bent_spot_value():
    value, _ = reduce_bent(6, 3)
    assert value == Fraction(6, 5)


def test_reduce_bent_matches_oracle():
    for n, k in [(7, 3), (8, 4), (9, 5), (12, 6)]:
        value, _ = reduce_bent(n, k)
        assert value == resistance_exact(bent_2tree(n, k), 1, n)


def test_reduce_bent_rejects_bad_bend():
    with pytest.raises(Exception):
        reduce_bent(6, 2)
    with pytest.raises(Exception):
        reduce_bent(6, 4)


def test_step_log_transform_counts():
    _, state = reduce_bent(8, 4)
    transforms = [s for s in state.log if s.kind == "delta_y"]
    assert len([s for s in transforms if s.side == "left"]) == 2
    assert len([s for s in transforms if s.side == "right"]) == 3
    # every transform happened on a unit base edge
    assert all(record.inputs[2] == 1 for record in transforms)


def test_step_log_is_fully_ordered():
    _, state = reduce_bent(9, 4)
    assert [record.index for record in state.log] == list(range(1, len(state.log) + 1))
    as_json = [record.to_json_dict() for record in state.log]
    assert all(set(d) == {"index", "side", "kind", "nodes", "inputs", "outputs"} for d in as_json)


def test_tail_lists_positive_and_monotone():
    _, state = reduce_bent(12, 5)
    for tails in (state.left_tails, state.right_tails):
        assert all(tr.t > 0 and tr.s > 0 and tr.b > 0 for tr in tails)
        running = Fraction(0)
        sums = []
        for tr in tails:
            running += tr.t
            sums.append(running)
        assert sums == sorted(sums)


def test_per_step_resistance_preservation_spot():
    for n, k in [(6, 3), (8, 5), (9, 4)]:
        target = resistance_exact(bent_2tree(n, k), 1, n)
        seen = []

        def watch(state, record):
            graph, relabel = state.as_weighted_graph()
            seen.append(resistance_exact(graph, relabel[1], relabel[n]))

        value, _ = reduce_bent(n, k, observer=watch)
        assert value == target
        assert seen and all(v == target for v in seen)


@pytest.mark.parametrize("n", range(3, 13))
def test_per_step_preservation_straight(n):
    target = resistance_exact(straight_2tree(n), 1, n)
    seen = []

    def watch(state, record):
        graph, relabel = state.as_weighted_graph()
        seen.append(resistance_exact(graph, relabel[1], relabel[n]))

    value, state = reduce_straight_state(n, observer=watch)
    assert value == target
    assert seen and all(v == target for v in seen)
    assert len(seen) == len(state.log)


def test_assembly_matches_tail_formula():
    for n, k in [(9, 3), (9, 6), (11, 5)]:
        value, state = reduce_bent(n, k)
        assert len(state.left_tails) == k - 2
        assert len(state.right_tails) == n - k - 1
        left, right = state.left_tails[-1], state.right_tails[-1]
        through_k = left.b + right.s
        through_k1 = left.s + right.b + 1
        parallel = through_k * through_k1 / (through_k + through_k1)
        tails = sum(tr.t for tr in state.left_tails) + sum(tr.t for tr in state.right_tails)
        assert value == parallel + tails


def _assert_final_pass_is_sorted(n, state):
    final = [record for record in state.log if record.side == "final"]
    removed = [record.nodes[1] for record in final if record.kind == "series"]
    assert final and final[0].kind == "series"
    assert removed == sorted(set(removed))
    for before, record in zip(final, final[1:]):
        if record.kind == "parallel":
            u, _, w = before.nodes
            assert before.kind == "series" and record.nodes == (min(u, w), max(u, w))
        else:
            assert record.kind == "series"
    assert state.vertices == [1, n]


def test_final_collapse_is_one_sorted_pass_of_series_merges():
    for n in range(6, 41):
        for k in range(3, n - 2):
            value, state = reduce_bent(n, k)
            _assert_final_pass_is_sorted(n, state)
            assert value == bent_resistance_product(BentParams(n, k))
    for n in range(3, 121):
        value, state = reduce_straight_state(n)
        _assert_final_pass_is_sorted(n, state)
        assert value == straight_pair_resistance(n - 2, 1, n - 1)


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],  # K4
        [(1, 3), (2, 3), (3, 4)],  # path 1-3-4 with the pendant leaf 2
    ],
)
def test_final_collapse_refuses_a_circuit_that_is_not_a_chain(edges):
    g = WeightedGraph(4, [(i, j, 1) for i, j in edges])
    state = ReductionState(g, source=1, sink=4)
    with pytest.raises(ReductionError, match="series merge needs degree 2"):
        _collapse_to_single_edge(state, resistance_exact(g, 1, 4))


def test_state_holds_the_reciprocal_of_each_weight():
    # A weight w is a resistance 1/w: the path 1-2-3 with weights 2 and 1/3
    # has resistances 1/2 and 3 in series.
    edges = ((1, 2, Fraction(2)), (2, 3, Fraction(1, 3)))
    state = ReductionState(WeightedGraph(3, edges), source=1, sink=3)
    assert state.resistance_between(1, 2) == Fraction(1, 2)
    assert state.resistance_between(2, 3) == 3
    graph, relabel = state.as_weighted_graph()
    assert graph.edges == edges and relabel == {1: 1, 2: 2, 3: 3}
    assert _collapse_to_single_edge(state, Fraction(7, 2)) == Fraction(7, 2)


def test_final_collapse_checks_the_tail_bookkeeping():
    assert _collapse_to_single_edge(ReductionState(straight_2tree(3), 1, 3), Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ReductionError, match="tail bookkeeping disagrees"):
        _collapse_to_single_edge(ReductionState(straight_2tree(3), 1, 3), Fraction(1))

def test_engine_guard_admits_n_up_to_the_bound(monkeypatch):
    # A bound at the straight chain of 12 vertices admits every chain up to
    # it and none past it, before the chain is built.
    monkeypatch.setattr("twotree.graphs.MAX_SWEEP_COST", engine_work(12, 12))
    assert reduce_bent(12, 5)[0] == bent_resistance_product(BentParams(12, 5))
    assert reduce_straight_state(12)[0] == straight_pair_resistance(10, 1, 11)
    monkeypatch.setattr("twotree.reduction.bent_2tree", lambda *args: pytest.fail("a chain was built"))
    monkeypatch.setattr("twotree.reduction.straight_2tree", lambda *args: pytest.fail("a chain was built"))
    with pytest.raises(GraphError, match=r"engine on a chain of 13 vertices bent at 5 is about 7\.3e\+5 units"):
        reduce_bent(13, 5)
    with pytest.raises(GraphError, match="engine on a straight chain of 13 vertices"):
        reduce_straight_state(13)
