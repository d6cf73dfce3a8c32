"""The triangle-to-star reduction engine and its bookkeeping."""

import math
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
from twotree.reduction import ReductionState, TailTriple, _chain_branches, _collapse_to_single_edge, delta_y


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
    # The engine keeps int tuples and builds records when they are read: for
    # an observer as each step happens, otherwise on the first read.  This
    # observer also reads the log and the tails mid-run, so they are built
    # piece by piece while the engine keeps appending to them.  The log's
    # values are checked in test_step_log_values_are_in_lowest_terms_small.
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
            assert audit.left_tails is audit.left_tails and audit.right_tails is audit.right_tails
            for tail in audit.left_tails + audit.right_tails:
                for q in tail[1:]:
                    assert type(q) is Fraction and q.denominator > 0, (args, tail)
                    assert gcd(q.numerator, q.denominator) == 1, (args, tail)


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
    state.apply_delta_y(1, 2, 3, "left", 1)
    assert per_call == [1]


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
    for run, most in ((lambda: reduce_straight_state(200), 2), (lambda: reduce_bent(200, 77), 4)):
        _, state = run()
        assert 0 < sum(per_call) <= most
        # Every tail goes through the addition once more, in the
        # bookkeeping: the first tail starts the sum, and the last b (a
        # straight chain) or the parallel pair (a bent one) joins it.
        merges = sum(record.kind == "series" for record in state.log)
        assert len(per_call) - merges == len(state.left_tails) + len(state.right_tails)
        per_call.clear()


def test_a_wrong_tail_is_refused(monkeypatch, capsys):
    # Both sides of the tail bookkeeping read the same t, so only the check
    # of each side's last transform against `delta_y` sees a wrong one.
    real = reduction._chain_branches

    def inverted(a, b):
        x, y, (t_num, t_den) = real(a, b)
        return x, y, (t_den, t_num)

    monkeypatch.setattr(reduction, "_chain_branches", inverted)
    with pytest.raises(ReductionError, match="disagrees with delta_y"):
        reduce_bent(40, 17)
    with pytest.raises(ReductionError, match="disagrees with delta_y"):
        reduce_straight_state(40)
    assert cli.main(["reduce", "bent", "40", "17"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "disagrees with delta_y" in err


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


def test_final_collapse_checks_the_tail_bookkeeping():
    assert _collapse_to_single_edge(ReductionState(straight_2tree(3), 1, 3), Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ReductionError, match="tail bookkeeping disagrees"):
        _collapse_to_single_edge(ReductionState(straight_2tree(3), 1, 3), Fraction(1))

def test_engine_guard_admits_n_up_to_the_bound(monkeypatch):
    monkeypatch.setattr("twotree.reduction.ENGINE_VERTEX_GUARD", 12)
    assert reduce_bent(12, 5)[0] == bent_resistance_product(BentParams(12, 5))
    assert reduce_straight_state(12)[0] == straight_pair_resistance(10, 1, 11)
    with pytest.raises(GraphError, match="guarded at n <= 12, got n = 13"):
        reduce_bent(13, 5)
    with pytest.raises(GraphError, match="guarded at n <= 12, got n = 13"):
        reduce_straight_state(13)
