"""Resistance oracles: exact envelope solve and float band solve.

The independent check here is a plain rational Gaussian elimination written
directly in the test, so the fraction-free production path is never its own
referee.
"""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from twotree import (
    BentParams,
    GraphError,
    WeightedGraph,
    bent_2tree,
    bent_resistance_product,
    fib,
    lucas,
    resistance_exact,
    resistance_float,
    straight_2tree,
    straight_pair_resistance,
)
from twotree import cli
from twotree.graphs import MAX_SWEEP_COST, chain_shape


def _plain_gauss(g, j, sources):
    """Textbook rational elimination on the Laplacian grounded at j: for each
    vertex s in `sources`, the potentials {v: x_v} with a unit current in at
    s and out at j."""
    keep = [v for v in range(1, g.n + 1) if v != j]
    pos = {v: idx for idx, v in enumerate(keep)}
    size = len(keep)
    a = [[Fraction(0)] * size for _ in keep]
    for u, v, w in g.edges:
        for p, q in ((u, v), (v, u)):
            if p in pos:
                a[pos[p]][pos[p]] += w
                if q in pos:
                    a[pos[p]][pos[q]] -= w
    rhs = [[Fraction(int(v == s)) for s in sources] for v in keep]
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col] != 0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, size):
            if a[r][col] == 0:
                continue
            f = a[r][col] / a[col][col]
            for c in range(col, size):
                if a[col][c]:
                    a[r][c] -= f * a[col][c]
            rhs[r] = [x - f * y for x, y in zip(rhs[r], rhs[col])]
    x = [None] * size
    for r in range(size - 1, -1, -1):
        terms = [(a[r][c], x[c]) for c in range(r + 1, size) if a[r][c]]
        x[r] = [(rhs[r][t] - sum((f * xc[t] for f, xc in terms), Fraction(0))) / a[r][r] for t in range(len(sources))]
    return [{v: x[pos[v]][t] for v in keep} | {j: Fraction(0)} for t in range(len(sources))]


def _resistance_plain_gauss(g, i, j):
    return _plain_gauss(g, j, [i])[0][i]


def _plain_gauss_every_pair(g):
    """{(i, j): r(i, j)} for every pair i < j, from one elimination grounded at 1:
    r(i, j) = x_i(i) + x_j(j) - 2 x_i(j), x_s the potentials for a current in at s."""
    x = dict(zip(range(2, g.n + 1), _plain_gauss(g, 1, range(2, g.n + 1))))
    x[1] = dict.fromkeys(range(1, g.n + 1), Fraction(0))
    return {(i, j): x[i][i] + x[j][j] - 2 * x[i][j] for i, j in itertools.combinations(range(1, g.n + 1), 2)}


def test_triangle_value():
    assert resistance_exact(straight_2tree(3), 1, 3) == Fraction(2, 3)


def test_straight_six_end_to_end():
    assert resistance_exact(straight_2tree(6), 1, 6) == Fraction(15, 11)


def test_bent_six_end_to_end():
    assert resistance_exact(bent_2tree(6, 3), 1, 6) == Fraction(6, 5)


def test_same_vertex_is_zero():
    assert resistance_exact(straight_2tree(5), 2, 2) == 0


def test_disconnected_rejected():
    g = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(GraphError):
        resistance_exact(g, 1, 4)
    with pytest.raises(GraphError):
        resistance_float(g, 1, 4)


def test_out_of_range_rejected():
    with pytest.raises(GraphError):
        resistance_exact(straight_2tree(4), 0, 3)
    # The ground is checked before the i == j shortcut too.
    for i, j in [(1, 2), (1, 1)]:
        for ground in (0, 6):
            with pytest.raises(GraphError, match=f"ground vertex {ground} out of range"):
                resistance_exact(straight_2tree(5), i, j, ground=ground)


def test_agrees_with_plain_gaussian_elimination():
    rng = random.Random(7)
    graphs = [straight_2tree(7), bent_2tree(9, 4), bent_2tree(8, 5)]
    # a few random connected weighted graphs as well
    for _ in range(3):
        n = rng.randint(4, 7)
        edges = [(i, i + 1, Fraction(rng.randint(1, 5), rng.randint(1, 5))) for i in range(1, n)]
        extras = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
        for i, j in rng.sample(extras, min(3, len(extras))):
            edges.append((i, j, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
        graphs.append(WeightedGraph(n, edges))
    for g in graphs:
        for i, j in [(1, g.n), (2, g.n - 1)]:
            assert resistance_exact(g, i, j) == _resistance_plain_gauss(g, i, j)


def test_symmetry_and_grounding_invariance():
    g = bent_2tree(9, 5)
    base = resistance_exact(g, 1, 9)
    assert resistance_exact(g, 9, 1) == base
    for ground in range(1, 10):
        assert resistance_exact(g, 1, 9, ground=ground) == base


def _check_every_ground(g, expected):
    for (i, j), value in expected.items():
        assert _resistance_plain_gauss(g, i, j) == value
        for ground in range(1, g.n + 1):
            assert resistance_exact(g, i, j, ground=ground) == value


def test_star_centred_at_last_vertex():
    # Every leaf row has no nonzero left of its diagonal (lo[r] == r) and the
    # centre's row spans the whole profile.
    weights = [Fraction(1), Fraction(2, 3), Fraction(5), Fraction(7, 4), Fraction(3, 8)]
    g = WeightedGraph(6, [(v, 6, w) for v, w in enumerate(weights, start=1)])
    expected = {(a, b): 1 / weights[a - 1] + 1 / weights[b - 1] for a, b in [(1, 2), (3, 5), (4, 1)]}
    expected.update({(a, 6): 1 / weights[a - 1] for a in (2, 5)})
    _check_every_ground(g, expected)


def test_path_labelled_from_n_down_to_1():
    # Grounding an inner vertex leaves the next row with lo[r] == r.
    n = 7
    weights = {v: Fraction(v, 3) for v in range(1, n)}  # on edge {v, v + 1}
    g = WeightedGraph(n, [(v + 1, v, weights[v]) for v in range(n - 1, 0, -1)])
    expected = {
        (i, j): sum((1 / weights[v] for v in range(min(i, j), max(i, j))), Fraction(0))
        for i, j in [(7, 1), (2, 6), (5, 4)]
    }
    _check_every_ground(g, expected)


def test_complete_graph_full_profile():
    rng = random.Random(3)
    edges = [
        (a, b, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for a, b in itertools.combinations(range(1, 7), 2)
    ]
    g = WeightedGraph(6, edges)
    expected = {(i, j): _resistance_plain_gauss(g, i, j) for i, j in [(1, 6), (2, 3), (5, 1)]}
    _check_every_ground(g, expected)


def test_exact_at_the_guard_size():
    n = 2000
    bent = resistance_exact(bent_2tree(n, 1000), 1, n)
    assert bent == bent_resistance_product(BentParams(n, 1000))
    m = n - 2
    straight = Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    assert resistance_exact(straight_2tree(n), 1, n) == straight


def test_exact_oracle_never_builds_the_dense_laplacian(monkeypatch):
    def no_dense(self):
        pytest.fail("resistance_exact asked for the dense Laplacian")

    monkeypatch.setattr(WeightedGraph, "laplacian", no_dense)
    assert resistance_exact(bent_2tree(6, 3), 1, 6) == Fraction(6, 5)
    g = straight_2tree(9)
    assert resistance_exact(g, 3, 7) == _resistance_plain_gauss(g, 3, 7)
    weighted = WeightedGraph(
        4, [(1, 2, Fraction(2, 3)), (2, 3, Fraction(5, 4)), (1, 3, 3), (3, 4, Fraction(1, 6))]
    )
    assert resistance_exact(weighted, 4, 1, ground=2) == _resistance_plain_gauss(weighted, 4, 1)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_oracle_memory_is_sized_to_the_band(monkeypatch):
    n = 2000
    chain = bent_2tree(n, 1000)
    # Relabelled v -> n + 1 - v, the bend is no builder's: the envelope
    # solve takes it, 2.9 MB at its peak.
    mirrored = WeightedGraph(n, [(n + 1 - a, n + 1 - b, w) for a, b, w in chain.edges])
    with monkeypatch.context() as poisoned:
        poisoned.setattr("twotree.resistance._chain_solve", lambda *args: pytest.fail("the chain was shot"))
        # A dense n x n list of lists alone takes about 35 MB here.
        assert _peak_bytes(lambda: resistance_exact(mirrored, 1, n)) < 8_000_000
    assert _peak_bytes(lambda: resistance_exact(chain, 1, n)) < 8_000_000


def _largest_exact_n(family):
    """The largest n at which the CLI admits an `exact` record, by bisection
    on its price; a bent chain takes its centred bend."""
    cost = cli._ROUTES[family, "exact"].cost
    admitted, refused = 6, 10**6
    assert cost(refused, refused // 2) > MAX_SWEEP_COST
    while refused - admitted > 1:
        mid = (admitted + refused) // 2
        if cost(mid, mid // 2) <= MAX_SWEEP_COST:
            admitted = mid
        else:
            refused = mid
    return admitted


@pytest.mark.parametrize(("family", "bound"), [("bent", 33_000_000), ("straight", 41_000_000)])
def test_chain_path_memory_at_the_edge_of_its_price(family, bound):
    # The shoot keeps two or three arrays of O(n)-bit potentials, so its
    # memory grows as n^2 bits: 22.1 MB at bent n = 10,030 and 27.5 MB at
    # straight n = 11,955, the largest the CLI admits under `exact_work`,
    # and 85 MB at 20,000.  The bounds are about 1.5 times those figures,
    # so a chain price that admits larger chains fails here until the shoot
    # stops keeping every potential.
    n = _largest_exact_n(family)
    g = bent_2tree(n, n // 2) if family == "bent" else straight_2tree(n)
    assert _peak_bytes(lambda: resistance_exact(g, 1, n)) < bound


def _every_chain(top):
    for n in range(3, top + 1):
        yield straight_2tree(n)
        yield from (bent_2tree(n, k) for k in range(3, n - 2))


def test_chain_path_agrees_with_plain_gauss_on_every_pair():
    # One plain elimination per chain gives the referee for all its pairs;
    # the current runs in at the smaller end on every other pair.
    for g in _every_chain(30):
        for (i, j), value in _plain_gauss_every_pair(g).items():
            assert resistance_exact(g, *((i, j) if (i + j) % 2 else (j, i))) == value


def test_chain_path_matches_the_closed_forms_at_seeded_sizes():
    rng = random.Random(11)
    for n in [5000, *rng.sample(range(6, 5000), 6)]:
        k = rng.randint(3, n - 3)
        assert resistance_exact(bent_2tree(n, k), 1, n) == bent_resistance_product(BentParams(n, k))
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        assert resistance_exact(straight_2tree(n), i, j) == straight_pair_resistance(n - 2, i, j - i)
    start = time.perf_counter()
    resistance_exact(bent_2tree(5000, 2500), 1, 5000)
    assert time.perf_counter() - start < 1.0  # the envelope solve takes 3-4 s


def test_chain_path_builds_no_envelope(monkeypatch):
    monkeypatch.setattr("twotree.resistance._envelope_solve", lambda *args: pytest.fail("the envelope was solved"))
    monkeypatch.setattr("twotree.resistance.accumulate", lambda *args: pytest.fail("envelope rows were built"))
    assert resistance_exact(bent_2tree(12, 5), 1, 12) == bent_resistance_product(BentParams(12, 5))
    assert resistance_exact(straight_2tree(9), 3, 7) == straight_pair_resistance(7, 3, 4)
    # A chain read from text has weights equal to 1, not the builders' own.
    chain = WeightedGraph.from_text(bent_2tree(9, 6).to_text())
    assert resistance_exact(chain, 2, 8) == _resistance_plain_gauss(chain, 2, 8)


def test_triangle_inequality_exhaustive():
    for g in (straight_2tree(10), bent_2tree(10, 4)):
        values = {}
        for i, j in itertools.combinations(range(1, 11), 2):
            values[(i, j)] = values[(j, i)] = resistance_exact(g, i, j)
        for i, j, k in itertools.permutations(range(1, 11), 3):
            assert values[(i, k)] <= values[(i, j)] + values[(j, k)]


def test_rayleigh_monotonicity_on_families():
    graphs = [straight_2tree(n) for n in range(3, 11)]
    graphs += [bent_2tree(n, k) for n in range(6, 11) for k in range(3, n - 2)]
    for g in graphs:
        base = resistance_exact(g, 1, g.n)
        for i, j, _ in g.edges:
            trimmed = WeightedGraph(g.n, [e for e in g.edges if e[:2] != (i, j)])
            if not trimmed.is_connected():
                continue
            assert resistance_exact(trimmed, 1, g.n) >= base


def _float_close(approx, exact):
    return abs(approx - float(exact)) <= 1e-9 * float(exact)


def test_float_examples():
    assert abs(resistance_float(straight_2tree(3), 1, 3) - 2 / 3) < 1e-9
    assert abs(resistance_float(bent_2tree(6, 3), 1, 6) - 1.2) < 1e-9
    g10 = straight_2tree(10)
    assert _float_close(resistance_float(g10, 1, 10), resistance_exact(g10, 1, 10))
    n = 2000
    bent = bent_resistance_product(BentParams(n, 1000))
    assert _float_close(resistance_float(bent_2tree(n, 1000), 1, n), bent)
    pair = straight_pair_resistance(n - 2, 2, n - 3)
    assert _float_close(resistance_float(straight_2tree(n), 2, n - 1), pair)
    for n in range(6, 61):
        for k in range(3, n - 2):
            exact = bent_resistance_product(BentParams(n, k))
            assert _float_close(resistance_float(bent_2tree(n, k), 1, n), exact), (n, k)


def test_float_refuses_a_wide_band_up_front():
    n = 2000
    chain = bent_2tree(n, 1000)
    label = list(range(1, n + 1))
    random.Random(5).shuffle(label)
    shuffled = WeightedGraph(n, [(label[a - 1], label[b - 1], w) for a, b, w in chain.edges])
    start = time.perf_counter()
    with pytest.raises(GraphError, match="band"):
        resistance_float(shuffled, label[0], label[-1])
    assert time.perf_counter() - start < 1.0
    assert resistance_float(chain, 1, n) > 0


def _shuffled_straight_chain(n):
    label = list(range(1, n + 1))
    random.Random(5).shuffle(label)
    return WeightedGraph(n, [(label[a - 1], label[b - 1], w) for a, b, w in straight_2tree(n).edges]), label


def test_exact_refuses_a_shuffled_chain_up_front(monkeypatch):
    # Shuffled labels make the envelope nearly dense: about 0.1 s at n = 200,
    # while at n = 2000 the work is priced over the bound from the edge list,
    # before any row is built or the connectivity check runs.
    g, label = _shuffled_straight_chain(200)
    assert resistance_exact(g, label[0], label[-1]) == straight_pair_resistance(198, 1, 199)
    g, label = _shuffled_straight_chain(2000)
    monkeypatch.setattr("twotree.resistance._envelope_solve", lambda *args: pytest.fail("the envelope was solved"))
    monkeypatch.setattr("twotree.resistance.accumulate", lambda *args: pytest.fail("envelope rows were built"))
    monkeypatch.setattr(WeightedGraph, "is_connected", lambda self: pytest.fail("connectivity was checked"))
    start = time.perf_counter()
    with pytest.raises(GraphError, match="exact oracle on 2000 vertices .* over MAX_SWEEP_COST"):
        resistance_exact(g, label[1], label[-2])
    assert time.perf_counter() - start < 1.0


def test_float_guard():
    # A billion isolated vertices: priced from the edge list, before the
    # connectivity check would walk them.
    with pytest.raises(GraphError, match="float oracle on 1000000000 vertices"):
        resistance_float(WeightedGraph(10**9, []), 1, 2)


def test_exact_guard():
    with pytest.raises(GraphError, match="exact oracle on 1000000000 vertices"):
        resistance_exact(WeightedGraph(10**9, []), 1, 2)


def _unit_copies(chain):
    # Equal weights, but none of them the chain builders' shared unit Fraction.
    copies = [WeightedGraph(chain.n, [(a, b, 1) for a, b, _ in chain.edges]), WeightedGraph.from_text(chain.to_text())]
    for copy in copies:
        assert copy == chain
        assert not any(w is wt for (_, _, w), (_, _, wt) in zip(copy.edges, chain.edges))
    return copies


def test_oracles_answer_the_same_on_equal_unit_weights():
    for chain, i, j in [(bent_2tree(13, 5), 1, 13), (straight_2tree(11), 2, 9), (bent_2tree(8, 3), 4, 8)]:
        exact, approx = resistance_exact(chain, i, j), resistance_float(chain, i, j)
        for copy in _unit_copies(chain):
            assert resistance_exact(copy, i, j) == exact
            assert resistance_exact(copy, i, j, ground=3) == exact
            assert resistance_float(copy, i, j) == approx


def test_oracles_price_equal_unit_weights_the_same(monkeypatch):
    prices = []
    monkeypatch.setattr("twotree.resistance.check_work", lambda what, work: prices.append((what, work)))
    # At n = 60 the exact oracle's price depends on the weights' total.
    chain = bent_2tree(60, 30)
    for g in [chain, *_unit_copies(chain)]:
        resistance_exact(g, 1, 60)
        resistance_float(g, 1, 60)
    assert prices[2:] == prices[:2] * 2


def test_oracles_on_a_chain_of_weight_2():
    for chain in (bent_2tree(14, 6), straight_2tree(12)):
        doubled = WeightedGraph(chain.n, [(a, b, 2) for a, b, _ in chain.edges])
        r = resistance_exact(chain, 1, chain.n)
        assert resistance_exact(doubled, 1, chain.n) == r / 2
        assert abs(resistance_float(doubled, 1, chain.n) - float(r / 2)) <= 1e-12
        # One edge of weight 2 among the builders' shared unit weights.
        mixed = WeightedGraph(chain.n, [(a, b, 2 if (a, b) == (2, 3) else w) for a, b, w in chain.edges])
        r = _resistance_plain_gauss(mixed, 1, chain.n)
        assert resistance_exact(mixed, 1, chain.n) == r
        assert _float_close(resistance_float(mixed, 1, chain.n), r)


def test_exact_oracle_neither_scans_nor_walks_a_recognised_chain(monkeypatch):
    # chain_shape runs once, before the price.  A recognised chain, built or
    # read from text, is then shot with no weight scan and no connectivity
    # walk; any other graph is still scanned and walked.
    calls = []
    walk = WeightedGraph.is_connected
    monkeypatch.setattr("twotree.resistance.chain_shape", lambda g: calls.append("shape") or chain_shape(g))
    monkeypatch.setattr("twotree.resistance.check_work", lambda what, work: calls.append("price"))
    monkeypatch.setattr(WeightedGraph, "is_connected", lambda self: calls.append("walk") or walk(self))
    chain = bent_2tree(12, 5)
    bent = bent_resistance_product(BentParams(12, 5))
    with monkeypatch.context() as poisoned:
        poisoned.setattr("twotree.resistance.lcm", lambda *args: pytest.fail("a chain's weights were scanned"))
        for g, i, j, value in [
            (chain, 1, 12, bent),
            (WeightedGraph.from_text(chain.to_text()), 1, 12, bent),
            (straight_2tree(9), 3, 7, straight_pair_resistance(7, 3, 4)),
            (straight_2tree(9), 4, 4, 0),
        ]:
            calls.clear()
            assert resistance_exact(g, i, j) == value
            assert calls == ["shape", "price"]
    calls.clear()
    with pytest.raises(GraphError, match="disconnected"):
        resistance_exact(WeightedGraph(4, [(1, 2, 1), (3, 4, 1)]), 1, 4)
    assert calls == ["shape", "price", "walk"]
    # The float oracle walks every graph it solves, each time.
    calls.clear()
    for _ in range(2):
        assert _float_close(resistance_float(chain, 1, 12), bent)
    assert calls == ["price", "walk"] * 2
