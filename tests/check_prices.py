"""Calibration check: every route's price bounds the time of one record.

    python -m pytest tests/check_prices.py -s
    PYTHONPATH=src python tests/check_prices.py      # the table alone

The CLI prices each route before any route runs (`_ROUTES` in
twotree.cli, about 1 ns a unit) and refuses a request over MAX_SWEEP_COST.
This check times warm records of all nine routes through `build_record`
and `emit_records` (JSON), the median of three after one untimed record, at
n = 6, 40, 200, 1000 and 2000 (up to each route's guard), also at 10^4 and
10^5 for the closed forms and at 3000 with a centred and an edge bend for
the engine.  It prints the table and fails when a median exceeds FACTOR
times its price.  Bent chains take the centred bend of `sweep --k-policy
center`; straight routes take the interior pair (2, n - 1), except the
engine, which only answers (1, n).  The file name keeps it out of the
default test collection; it takes about half a minute.
"""

import io
import statistics
import time

from twotree import cli
from twotree.graphs import GraphError

FACTOR = 2
SIZES = (6, 40, 200, 1000, 2000)
CLOSED_FORM_SIZES = (10_000, 100_000)


def _centre(n: int) -> int:
    return min(max(3, n // 2), n - 3)


def cases():
    """(family, tag, n, k, i, j) of every timed record."""
    for (family, tag), route in cli._ROUTES.items():
        for n in SIZES + (CLOSED_FORM_SIZES if route.guard is None else ()):
            if route.guard is not None:
                try:
                    route.guard(n)
                except GraphError:
                    break
            if family == "bent":
                yield family, tag, n, _centre(n), 1, n
            elif route.ends_only:
                yield family, tag, n, None, 1, n
            else:
                yield family, tag, n, None, 2, n - 1
        if (family, tag) == ("bent", "engine"):
            yield family, tag, 3000, _centre(3000), 1, 3000
            yield family, tag, 3000, 3, 1, 3000


def median_seconds(family: str, tag: str, n: int, k, i: int, j: int) -> float:
    def once() -> float:
        start = time.perf_counter()
        record = cli.build_record("resistance", family, n, k, i, j, [tag], 12)
        cli.emit_records([record], "json", io.StringIO())
        return time.perf_counter() - start

    once()
    return statistics.median(once() for _ in range(3))


def measure() -> list[tuple]:
    """One row per case: the case, its median and its price, both in seconds."""
    rows = []
    for family, tag, n, k, i, j in cases():
        seconds = median_seconds(family, tag, n, k, i, j)
        price = cli._ROUTES[family, tag].cost(n, k) * 1e-9
        rows.append((family, tag, n, k, i, j, seconds, price))
    return rows


def table(rows) -> str:
    lines = [f"{'route':<20} {'n':>7} {'k':>6} {'pair':>11} {'median ms':>11} {'price ms':>11} {'ratio':>6}"]
    for family, tag, n, k, i, j, seconds, price in rows:
        lines.append(
            f"{family + ' ' + tag:<20} {n:>7} {'' if k is None else k:>6} {f'({i},{j})':>11}"
            f" {seconds * 1e3:>11.3f} {price * 1e3:>11.3f} {seconds / price:>6.2f}"
        )
    return "\n".join(lines)


def test_every_price_bounds_its_median():
    rows = measure()
    print("\n" + table(rows))
    over = [row for row in rows if row[6] > FACTOR * row[7]]
    assert not over, f"median over {FACTOR}x price:\n" + table(over)


if __name__ == "__main__":
    print(table(measure()))
