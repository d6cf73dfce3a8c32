"""Route independence at run time: each route answers with the others poisoned.

tests/test_imports.py reads which package modules each module imports; it
cannot see a route that reaches another at run time, through `importlib` or
through a helper shared inside one module.  Each test here computes a box of
values, replaces a layer's functions with raisers wherever a loaded twotree
module binds them, and asks the routes that must not need that layer for
the same values again.  The exact oracle has two solves of its own: unit
chains take the chain solve, every other graph the envelope solve, and
each answers with the other poisoned.
"""

import inspect
import sys

import pytest

from twotree import formulas, reduction, resistance, sequences
from twotree.formulas import BentParams
from twotree.graphs import WeightedGraph, bent_2tree, straight_2tree

BENT = [(n, k) for n in range(6, 21) for k in range(3, n - 2)]
STRAIGHT = range(3, 21)


class Poisoned(Exception):
    """A poisoned function was called."""


def functions_of(*modules):
    return [
        value
        for module in modules
        for value in vars(module).values()
        if inspect.isfunction(value) and value.__module__ == module.__name__
    ]


def poison(monkeypatch, functions) -> None:
    """Replace each of `functions` by a raiser at every twotree module attribute bound to it."""
    targets = {id(f): f for f in functions}
    for name, module in list(sys.modules.items()):
        if name != "twotree" and not name.startswith("twotree."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in targets:

                def raiser(*args, _name=value.__qualname__, **kwargs):
                    raise Poisoned(f"{_name} was called")

                monkeypatch.setattr(module, attr, raiser)


def straight_pairs(n):
    return [(1, n), (2, n - 1)] if n >= 5 else [(1, n)]


def engine_and_oracles() -> dict:
    values = {}
    for n, k in BENT:
        g = bent_2tree(n, k)
        values["bent", n, k] = (
            reduction.reduce_bent(n, k, keep_log=False)[0],
            resistance.resistance_exact(g, 1, n),
            resistance.resistance_float(g, 1, n),
        )
    for n in STRAIGHT:
        g = straight_2tree(n)
        values["straight", n] = reduction.reduce_straight_state(n, keep_log=False)[0]
        for i, j in straight_pairs(n):
            values["straight", n, i, j] = (resistance.resistance_exact(g, i, j), resistance.resistance_float(g, i, j))
    return values


def closed_forms() -> dict:
    values = {}
    for n, k in BENT:
        params = BentParams(n, k)
        values["bent", n, k] = (formulas.bent_resistance_alternating(params), formulas.bent_resistance_product(params))
    for n in STRAIGHT:
        for i, j in straight_pairs(n):
            values["straight", n, i, j] = formulas.straight_pair_resistance(n - 2, i, j - i)
    return values


def float_oracle() -> dict:
    values = {("bent", n, k): resistance.resistance_float(bent_2tree(n, k), 1, n) for n, k in BENT}
    for n in STRAIGHT:
        for i, j in straight_pairs(n):
            values["straight", n, i, j] = resistance.resistance_float(straight_2tree(n), i, j)
    return values


def test_engine_and_oracles_answer_without_the_sequences_layer(monkeypatch):
    before = engine_and_oracles()
    poison(monkeypatch, functions_of(sequences, formulas))
    with pytest.raises(Poisoned):
        sequences.fib(5)
    with pytest.raises(Poisoned):
        formulas.bent_resistance_alternating(BentParams(8, 4))
    assert engine_and_oracles() == before


def test_closed_forms_answer_without_the_engine_and_the_oracles(monkeypatch):
    before = closed_forms()
    poison(monkeypatch, functions_of(reduction, resistance))
    with pytest.raises(Poisoned):
        reduction.reduce_bent(8, 4)
    with pytest.raises(Poisoned):
        resistance.resistance_float(bent_2tree(8, 4), 1, 8)
    assert closed_forms() == before


def test_float_oracle_answers_without_the_exact_solve(monkeypatch):
    before = float_oracle()
    poison(monkeypatch, [resistance._envelope_solve, resistance._chain_solve])
    with pytest.raises(Poisoned):
        resistance.resistance_exact(bent_2tree(8, 4), 1, 8)
    with pytest.raises(Poisoned):
        resistance.resistance_exact(WeightedGraph(3, [(1, 2, 1), (2, 3, 2)]), 1, 3)
    assert float_oracle() == before


def reversed_chain(g: WeightedGraph) -> WeightedGraph:
    """g with vertex v relabelled n + 1 - v: a chain, but not as the builders label it."""
    return WeightedGraph(g.n, [(g.n + 1 - a, g.n + 1 - b, w) for a, b, w in g.edges])


def test_envelope_solve_answers_without_the_chain_solve(monkeypatch):
    chains = [(bent_2tree(n, k), 1, n) for n, k in BENT]
    chains += [(straight_2tree(n), i, j) for n in STRAIGHT for i, j in straight_pairs(n)]
    before = [resistance.resistance_exact(g, i, j) for g, i, j in chains]
    poison(monkeypatch, [resistance._chain_solve])
    with pytest.raises(Poisoned):
        resistance.resistance_exact(bent_2tree(8, 4), 1, 8)
    for (g, i, j), value in zip(chains, before):
        doubled = WeightedGraph(g.n, [(a, b, 2) for a, b, _ in g.edges])
        assert resistance.resistance_exact(doubled, i, j) == value / 2
        mirror = reversed_chain(g)
        if mirror != g:  # a straight chain reversed is itself
            assert resistance.resistance_exact(mirror, g.n + 1 - i, g.n + 1 - j) == value


def test_chain_solve_answers_without_the_envelope_solve(monkeypatch):
    expected = closed_forms()
    poison(monkeypatch, [resistance._envelope_solve])
    with pytest.raises(Poisoned):
        resistance.resistance_exact(reversed_chain(bent_2tree(8, 4)), 1, 8)
    for n, k in BENT:
        assert resistance.resistance_exact(bent_2tree(n, k), 1, n) == expected["bent", n, k][1]
    for n in STRAIGHT:
        for i, j in straight_pairs(n):
            assert resistance.resistance_exact(straight_2tree(n), i, j) == expected["straight", n, i, j]
