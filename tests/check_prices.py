"""Calibration check: every route's price bounds the time of one record.

    python -m pytest tests/check_prices.py -s
    PYTHONPATH=src python tests/check_prices.py      # the table alone

Each route states its work next to its code (`closed_form_work`,
`engine_work`, `exact_work`, `float_work`, about 1 ns a unit); the CLI sums
them (`_ROUTES` in twotree.cli) and refuses a request over MAX_SWEEP_COST.
This check times warm records of all nine routes through `build_record`
and `emit_records` (JSON), the median of three after one untimed record, at
n = 6, 40, 200, 1000 and 2000, at 10^4 and 10^5 for the closed forms and
`float`, at 3000 and 5000 for `exact`, and at 3000 (a centred and an edge
bend) and 10^4 (centred) for the bent engine; a size is kept only while the
route's work is within MAX_SWEEP_COST.  It also times library calls of
`resistance_exact` on graphs that take its general path, against the
`exact_work` price the call computes: straight chains with shuffled labels
at n = 200 and 400, seeded bands of half-bandwidth 2 with weights a/b
(a, b <= 9) at n = 500 and 1000, and the mirrored bent chain (v -> n + 1 - v)
at n = 2000.  It prints the table and fails
when a median exceeds FACTOR times its price.  Next to each raw median the
table prints a normalised one: each timed call scaled by the kernel of
bench/calibrate.py sampled before and after it, so that rows timed in a
fast and a slow phase of an unsteady CPU can be compared.  Pass and fail
read the raw median only.  Bent chains take the centred
bend of `sweep --k-policy center`; straight routes take the interior pair
(2, n - 1), except the engine, which only answers (1, n).  The file name
keeps it out of the default test collection; it takes about a minute.
"""

import importlib.util
import io
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from twotree import cli, resistance
from twotree.graphs import MAX_SWEEP_COST, WeightedGraph, bent_2tree, straight_2tree

FACTOR = 2
SIZES = (6, 40, 200, 1000, 2000)
# Sizes past SIZES, by route tag; the engine's are (n, k) of bent chains.
LARGER = {
    "alternating": (10_000, 100_000),
    "product": (10_000, 100_000),
    "formula": (10_000, 100_000),
    "float": (10_000, 100_000),
    "exact": (3000, 5000),
}
ENGINE_BENDS = ((3000, 1500), (3000, 3), (10_000, 5000))
SHUFFLED_SIZES = (200, 400)
BAND_SIZES = (500, 1000)
MIRRORED_BEND = 2000
CALIBRATE = Path(__file__).resolve().parents[1] / "bench" / "calibrate.py"


def _load_calibrate():
    """bench/calibrate.py as a module, read without writing bytecode next to it."""
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("_bench_calibrate", CALIBRATE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


calibrate = _load_calibrate()


def _centre(n: int) -> int:
    return min(max(3, n // 2), n - 3)


def cases():
    """(family, tag, n, k, i, j) of every timed record."""
    for (family, tag), route in cli._ROUTES.items():
        points = [(n, _centre(n) if family == "bent" else None) for n in SIZES + LARGER.get(tag, ())]
        if (family, tag) == ("bent", "engine"):
            points += ENGINE_BENDS
        for n, k in points:
            if route.cost(n, k) > MAX_SWEEP_COST:
                continue
            if family == "bent" or tag in cli.ENDS_ONLY:
                yield family, tag, n, k, 1, n
            else:
                yield family, tag, n, k, 2, n - 1


def median_seconds(call) -> tuple[float, float]:
    """The median of three timed calls after one untimed one, raw and
    normalised by the calibration kernel sampled on each side of each call."""

    def once() -> float:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    once()
    raw, normalised = [], []
    before = calibrate.sample()
    for _ in range(3):
        seconds = once()
        after = calibrate.sample()
        raw.append(seconds)
        normalised.append(calibrate.scale(seconds, before, after))
        before = after
    return statistics.median(raw), statistics.median(normalised)


def _record(family, tag, n, k, i, j):
    def call():
        record = cli.build_record("resistance", family, n, k, i, j, [tag], 12)
        cli.emit_records([record], "json", io.StringIO())

    return call


def shuffled_chain(n: int) -> tuple[WeightedGraph, list[int]]:
    label = list(range(1, n + 1))
    random.Random(5).shuffle(label)
    chain = straight_2tree(n)
    return WeightedGraph(n, [(label[a - 1], label[b - 1], w) for a, b, w in chain.edges]), label


def weighted_band(n: int) -> WeightedGraph:
    """Every edge (a, b) with 0 < b - a <= 2, weighted a/b with a, b <= 9."""
    rng = random.Random(7)
    pairs = [(a, b) for a in range(1, n) for b in (a + 1, a + 2) if b <= n]
    return WeightedGraph(n, [(a, b, Fraction(rng.randint(1, 9), rng.randint(1, 9))) for a, b in pairs])


def mirrored_bend(n: int) -> WeightedGraph:
    """The centred bent chain with vertex v relabelled n + 1 - v: no builder's
    bend, so `chain_shape` does not recognise it."""
    return WeightedGraph(n, [(n + 1 - a, n + 1 - b, w) for a, b, w in bent_2tree(n, _centre(n)).edges])


def general_cases():
    """(label, graph, i, j) of every library call timed on the general path."""
    for n in SHUFFLED_SIZES:
        g, label = shuffled_chain(n)
        yield "shuffled", g, label[1], label[-2]
    for n in BAND_SIZES:
        yield "weighted band", weighted_band(n), 1, n
    yield "mirrored", mirrored_bend(MIRRORED_BEND), 1, MIRRORED_BEND


def general_price(g: WeightedGraph, i: int, j: int) -> float:
    """The price `resistance_exact` checks on the general path, in seconds."""
    return resistance.general_work(g, resistance._check_query(g, i, j, j))[0] * 1e-9


def measure() -> list[tuple]:
    """One row per case: the case, its raw and normalised medians and its
    price, all in seconds."""
    rows = []
    for family, tag, n, k, i, j in cases():
        seconds = median_seconds(_record(family, tag, n, k, i, j))
        rows.append((family, tag, n, k, i, j, *seconds, cli._ROUTES[family, tag].cost(n, k) * 1e-9))
    for family, g, i, j in general_cases():
        seconds = median_seconds(lambda: resistance.resistance_exact(g, i, j))
        rows.append((family, "exact", g.n, None, i, j, *seconds, general_price(g, i, j)))
    return rows


def table(rows) -> str:
    lines = [
        f"{'route':<20} {'n':>7} {'k':>6} {'pair':>11} {'median ms':>11} {'norm. ms':>11} {'price ms':>11} {'ratio':>6}"
    ]
    for family, tag, n, k, i, j, seconds, normalised, price in rows:
        lines.append(
            f"{family + ' ' + tag:<20} {n:>7} {'' if k is None else k:>6} {f'({i},{j})':>11}"
            f" {seconds * 1e3:>11.3f} {normalised * 1e3:>11.3f} {price * 1e3:>11.3f} {seconds / price:>6.2f}"
        )
    return "\n".join(lines)


def test_every_price_bounds_its_median():
    rows = measure()
    print("\n" + table(rows))
    over = [row for row in rows if row[6] > FACTOR * row[-1]]
    assert not over, f"median over {FACTOR}x price:\n" + table(over)


if __name__ == "__main__":
    print(table(measure()))
