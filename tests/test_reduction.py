"""The triangle-to-star reduction engine and its bookkeeping."""

from fractions import Fraction

import pytest

from twotree import (
    ReductionError,
    bent_2tree,
    delta_y,
    fib,
    lucas,
    reduce_bent,
    reduce_straight_chain,
    reduce_straight_state,
    resistance_exact,
    straight_2tree,
    straight_pair_resistance,
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
