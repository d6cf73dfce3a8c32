"""Batch command-line interface.

Subcommands: `resistance` (one query, several methods, cross-checked),
`sweep` (parameter grids, deterministic order), `verify` (identity
catalogue as JSON lines), `reduce` (chain reduction with an optional
step-by-step log).  Exit codes: 0 success, 1 verification failure (routes
that disagree, a failed identity, a broken engine invariant), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .formulas import (
    BentParams,
    bent_resistance_alternating,
    bent_resistance_product,
    straight_pair_resistance,
)
from .graphs import GraphError, WeightedGraph, bent_2tree, straight_2tree
from .rational import decimal_string, ratio_string
from .reduction import ReductionError, check_engine_size, reduce_bent, reduce_straight_state
from .resistance import check_oracle_size, resistance_exact, resistance_float

FLOAT_RELATIVE_TOLERANCE = 1e-9
ORACLE_DEFAULT_CUTOFF = 200
# A sweep holds every record in memory until it prints them, so larger
# grids are refused before any record is computed.
MAX_SWEEP_RECORDS = 10_000
# The summed cost of a query's or sweep's routes (about 1 ns a unit, see
# _ROUTES): few but costly records are refused before they run for hours.
MAX_SWEEP_COST = 100_000_000_000
# Every decimal is held until the records print, so longer ones are refused.
MAX_DIGITS = 10_000
# identities.PROFILES, repeated so that only `verify` loads the catalogue;
# a test keeps the two equal.
PROFILES = ("small", "standard", "deep")

CSV_COLUMNS = ("command", "family", "n", "k", "i", "j", "exact", "decimal", "methods", "agree")


class UsageError(ValueError):
    """Bad parameters; reported with a diagnostic and exit code 2."""


class _Route:
    """call(n, k, i, j, chain) gives the value; guard(n), if set, refuses n past
    its bound; cost(n, k) bounds the time of one record, rendering included,
    about 1 ns a unit.  An ends_only route answers only the end pair (1, n).
    A route is a default for (1, n) if default_at_ends, and for other pairs
    while n <= default_inside_up_to.  An oracle runs on the chain the oracles
    share.
    """

    __slots__ = ("call", "guard", "cost", "ends_only", "default_at_ends", "default_inside_up_to", "oracle")

    def __init__(self, call, guard, cost, ends_only, default_at_ends, default_inside_up_to, oracle):
        self.call, self.guard, self.cost, self.ends_only = call, guard, cost, ends_only
        self.default_at_ends, self.default_inside_up_to, self.oracle = default_at_ends, default_inside_up_to, oracle


# Each price below is a fixed term per record (building, rendering and
# checking it), a term per vertex, and the orders of the route's big-integer
# or float work.  tests/check_prices.py times every route against its price.

def _engine_cost(n: int, k: int) -> int:
    # The engine reduces about k triangles from one end of a bent chain and
    # n - k from the other (a straight chain: k = n, all from one end), at
    # about 7 us a vertex (a transform, a merge, their int-tuple log entries)
    # up to a few hundred vertices.  Past a few thousand the big-integer work
    # of a side grows as the cube of its length, so an edge bend costs as
    # much as a straight chain and about three times a centred one.  The
    # coefficients, fitted at 15 us a vertex, stay above the slowest of
    # centre, edge and straight runs at n = 6 to 3000, and at 10,000.
    return 200_000 + 40_000 * n + 40 * n * n + (k**3 + (n - k) ** 3) // 80


def _closed_form_cost(n: int) -> int:
    # Each closed form reads a few Fibonacci/Lucas numbers of index up to
    # about 2n, then reduces and renders one fraction of O(n) bits, about
    # 0.1 ms a record at small n.  Past the 1024-index sequence tables the
    # numbers come from fast doubling, and gcd and int-to-decimal conversion
    # grow as the square of the bit length.  The coefficient puts the price
    # above the slowest measured query, rendering included: `product` with an
    # edge bend, 0.47 ms at n = 2000 and 0.40 / 4.4 / 42 s at n = 10^5 /
    # 3*10^5 / 10^6, against `alternating` at 0.29 / 1.7 / 17 s and `formula`
    # at 0.19 / 2.0 / 20 s.
    return 100_000 + 100 * n + n * n // 16


def _exact_cost(n: int) -> int:
    # Building the chain and the envelope rows costs about 20 us a vertex;
    # the O(n) row operations on O(n)-bit integers grow as n^2 past that.
    return 100_000 + 20_000 * n + 100 * n * n


def _float_cost(n: int) -> int:
    # The band, built edge by edge, then elimination and back substitution
    # inside it: a chain's half-bandwidth is at most 3, so both are linear,
    # about 4 us a vertex at n = 2000.  The coefficient leaves room for the
    # record around it and for a slow phase of the machine.
    return 200_000 + 15_000 * n


# Every route of the CLI.  A call looks its function up in this module when it
# runs, so a wrapper or stub set here reaches it.  Costs are the measured
# orders with coefficients from Python 3.11 on a 2-vCPU VM; the straight
# engine reduces the whole chain, so it only gives r(1, n).
_ROUTES = {
    ("bent", "alternating"): _Route(
        lambda n, k, i, j, g: bent_resistance_alternating(BentParams(n, k)),
        None, lambda n, k: _closed_form_cost(n), False, True, 0, False),
    ("bent", "product"): _Route(
        lambda n, k, i, j, g: bent_resistance_product(BentParams(n, k)),
        None, lambda n, k: _closed_form_cost(n), False, False, 0, False),
    ("bent", "engine"): _Route(
        lambda n, k, i, j, g: reduce_bent(n, k)[0],
        check_engine_size, lambda n, k: _engine_cost(n, k), True, True, 0, False),
    ("bent", "exact"): _Route(
        lambda n, k, i, j, g: resistance_exact(g, i, j),
        check_oracle_size, lambda n, k: _exact_cost(n), False, False, 0, True),
    ("bent", "float"): _Route(
        lambda n, k, i, j, g: resistance_float(g, i, j),
        check_oracle_size, lambda n, k: _float_cost(n), False, False, 0, True),
    ("straight", "formula"): _Route(
        lambda n, k, i, j, g: straight_pair_resistance(n - 2, i, j - i),
        None, lambda n, k: _closed_form_cost(n), False, True, math.inf, False),
    ("straight", "engine"): _Route(
        lambda n, k, i, j, g: reduce_straight_state(n)[0],
        check_engine_size, lambda n, k: _engine_cost(n, n), True, True, 0, False),
    ("straight", "exact"): _Route(
        lambda n, k, i, j, g: resistance_exact(g, i, j),
        check_oracle_size, lambda n, k: _exact_cost(n), False, False, ORACLE_DEFAULT_CUTOFF, True),
    ("straight", "float"): _Route(
        lambda n, k, i, j, g: resistance_float(g, i, j),
        check_oracle_size, lambda n, k: _float_cost(n), False, False, 0, True),
}


def _resolve_methods(requested: Optional[str], family: str, n: int, i: int, j: int) -> list[str]:
    """The routes a query runs; refuses any inapplicable, repeated or oversized one."""
    ends = (i, j) == (1, n)
    routes = {tag: r for (fam, tag), r in _ROUTES.items() if fam == family and (ends or not r.ends_only)}
    if requested is None or requested == "default":
        chosen = [t for t, r in routes.items() if (r.default_at_ends if ends else n <= r.default_inside_up_to)]
    elif requested == "all":
        chosen = list(routes)
    else:
        chosen = [m.strip() for m in requested.split(",") if m.strip()]
        if not chosen:
            raise UsageError("empty method list")
        for at, m in enumerate(chosen):
            if m not in routes:
                raise UsageError(f"method {m!r} is not applicable here; choose from {', '.join(routes)}")
            if m in chosen[:at]:
                raise UsageError(f"method {m!r} is listed twice")
    # Checked before any route runs, so that no route runs only for a later
    # one to refuse the size.
    for tag in chosen:
        if routes[tag].guard is not None:
            try:
                routes[tag].guard(n)
            except GraphError as exc:
                if requested not in (None, "default"):
                    raise
                unguarded = ",".join(t for t, r in routes.items() if r.guard is None)
                raise UsageError(
                    f"{exc}; the default methods include {tag!r}, so pass"
                    f" --methods {unguarded} for the closed forms alone"
                ) from None
    return chosen


def _validate_query(family: str, n: int, k: Optional[int], i: Optional[int], j: Optional[int]):
    qi = 1 if i is None else i
    qj = n if j is None else j
    if family == "bent":
        if k is None:
            raise UsageError("bent queries need --k")
        BentParams(n, k)  # raises with the precondition named
        if (qi, qj) != (1, n):
            raise UsageError("bent-chain resistance is only supported between vertices 1 and n")
        return qi, qj
    if n < 3:
        raise UsageError("straight chains need n >= 3")
    if k is not None:
        raise UsageError("--k applies to the bent family only")
    if not (1 <= qi < qj <= n):
        raise UsageError(f"need 1 <= i < j <= n, got i={qi}, j={qj}")
    return qi, qj


def build_record(
    command: str,
    family: str,
    n: int,
    k: Optional[int],
    i: int,
    j: int,
    methods: list[str],
    digits: int,
) -> dict:
    graph = None
    if any(_ROUTES[family, tag].oracle for tag in methods):
        graph = bent_2tree(n, k) if family == "bent" else straight_2tree(n)
    values: dict[str, Fraction | float] = {}
    for tag in methods:
        values[tag] = _ROUTES[family, tag].call(n, k, i, j, graph)
    return _record_from_values(command, family, n, k, i, j, values, digits)


def _record_from_values(
    command: str,
    family: str,
    n: int,
    k: Optional[int],
    i: int,
    j: int,
    values: dict[str, Fraction | float],
    digits: int,
) -> dict:
    """One output record: the first exact value, and whether all routes agree."""
    rational = {t: v for t, v in values.items() if isinstance(v, Fraction)}
    reference = next(iter(rational.values()), None)
    agree: Optional[bool] = None
    if len(values) >= 2:
        agree = all(v == reference for v in rational.values())
        if reference is not None:
            ref = float(reference)
            for t, v in values.items():
                if isinstance(v, float):
                    agree = agree and abs(v - ref) <= FLOAT_RELATIVE_TOLERANCE * abs(ref)
    exact = ratio_string(reference) if reference is not None else None
    return {
        "command": command,
        "family": family,
        "n": n,
        "k": k,
        "i": i,
        "j": j,
        "exact": exact,
        "decimal": decimal_string(reference, digits) if reference is not None else None,
        "methods": {
            t: ((exact if v == reference else ratio_string(v)) if isinstance(v, Fraction) else repr(v))
            for t, v in values.items()
        },
        "agree": agree,
    }


def _record_to_text(record: dict) -> str:
    where = f"r({record['i']},{record['j']})"
    head = f"{record['family']} n={record['n']}"
    if record["k"] is not None:
        head += f" k={record['k']}"
    methods = ",".join(record["methods"])
    agree = {True: "yes", False: "NO", None: "n/a"}[record["agree"]]
    value = f"{record['exact'] or 'n/a'} = {record['decimal'] or 'n/a'}"
    return f"{head} {where} = {value} [{methods}] agree={agree}"


def _record_to_csv_row(record: dict) -> list[str]:
    methods = ";".join(f"{t}={v}" for t, v in record["methods"].items())
    agree = "" if record["agree"] is None else str(record["agree"]).lower()
    return [
        record["command"],
        record["family"],
        str(record["n"]),
        "" if record["k"] is None else str(record["k"]),
        str(record["i"]),
        str(record["j"]),
        record["exact"] or "",
        record["decimal"] or "",
        methods,
        agree,
    ]


def emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record) + "\n")
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(_record_to_csv_row(record))
        out.write(buffer.getvalue())
    else:
        for record in records:
            out.write(_record_to_text(record) + "\n")


def _run_points(command: str, family: str, points, args, out) -> int:
    """Answer the (n, k, i, j) `points` in order once the whole batch is admitted:
    at most MAX_SWEEP_RECORDS records and MAX_SWEEP_COST units."""
    points = list(itertools.islice(points, MAX_SWEEP_RECORDS + 1))
    if len(points) > MAX_SWEEP_RECORDS:
        raise UsageError(f"sweep of more than {MAX_SWEEP_RECORDS} records exceeds MAX_SWEEP_RECORDS")
    # A batch of several points is a sweep of end pairs (1, n), whose default
    # routes do not depend on n, so the routes chosen at the last and largest
    # n serve every point, and the guards bound n.
    methods = []
    if points:
        n, _, i, j = points[-1]
        methods = _resolve_methods(args.methods, family, n, i, j)
    cost = sum(_ROUTES[family, tag].cost(n, k) for n, k, _, _ in points for tag in methods)
    if cost > MAX_SWEEP_COST:
        what, hint = (
            (f"sweep of {len(points)} records", "split it") if command == "sweep" else ("query", "ask a smaller n")
        )
        raise UsageError(
            f"{what} costs about {cost:.1e} units, over MAX_SWEEP_COST = {MAX_SWEEP_COST:.1e};"
            f" {hint} or pass cheaper --methods"
        )
    records = [build_record(command, family, n, k, i, j, methods, args.digits) for n, k, i, j in points]
    emit_records(records, args.format, out)
    disagree = sum(1 for record in records if record["agree"] is False)
    if disagree:
        print(f"error: routes disagree on {disagree} of {len(records)} records", file=sys.stderr)
        return 1
    return 0


# -- subcommand drivers -------------------------------------------------------

def _cmd_resistance(args, out) -> int:
    i, j = _validate_query(args.family, args.n, args.k, args.i, args.j)
    return _run_points("resistance", args.family, [(args.n, args.k, i, j)], args, out)


def _parse_span(text: str) -> tuple[int, int]:
    lo_text, colon, hi_text = text.partition(":")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if colon else lo
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or LO:HI") from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _sweep_points(family: str, lo: int, hi: int, policy: str, k: Optional[int]):
    """The (n, k, 1, n) of each record of a sweep, in output order."""
    if family == "straight":
        return ((n, None, 1, n) for n in range(lo, hi + 1))
    if policy == "fixed":
        return ((n, k, 1, n) for n in (range(max(lo, k + 3), hi + 1) if k >= 3 else ()))
    if policy == "center":
        return ((n, min(max(3, n // 2), n - 3), 1, n) for n in range(lo, hi + 1))
    return ((n, bend, 1, n) for n in range(lo, hi + 1) for bend in range(3, n - 2))


def _cmd_sweep(args, out) -> int:
    lo, hi = _parse_span(args.n)
    if args.family == "straight" and args.k is not None:
        raise UsageError("--k applies to the bent family only")
    if args.family == "straight" and args.k_policy is not None:
        raise UsageError("--k-policy applies to the bent family only")
    least = 3 if args.family == "straight" else 6
    if lo < least:
        raise UsageError(f"{args.family} chains need n >= {least}")
    policy = args.k_policy or "all"
    if args.family == "bent" and policy == "fixed" and args.k is None:
        raise UsageError("k-policy 'fixed' needs --k")
    if args.family == "bent" and policy != "fixed" and args.k is not None:
        raise UsageError(f"--k applies to k-policy 'fixed' only, not {policy!r}")
    return _run_points("sweep", args.family, _sweep_points(args.family, lo, hi, policy, args.k), args, out)


def _cmd_verify(args, out) -> int:
    from .identities import run_all

    reports = run_all(profile=args.profile)
    failures = 0
    for report in reports:
        out.write(json.dumps(report.to_json_dict()) + "\n")
        if report.status != "pass":
            failures += 1
    print(
        f"checked {len(reports)} identities on the {args.profile} profile: "
        f"{len(reports) - failures} passed, {failures} failed",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1


def _detect_family(g: WeightedGraph) -> tuple[str, Optional[int]]:
    if any(w != 1 for _, _, w in g.edges):
        raise UsageError("only unit-weight chains are reducible; found non-unit weights")
    if g.n >= 3 and g == straight_2tree(g.n):
        return "straight", None
    # A bent chain has exactly one edge spanning three positions, {k, k+3}.
    bends = [a for a, b, _ in g.edges if b - a == 3]
    if len(bends) == 1 and 3 <= bends[0] <= g.n - 3 and g == bent_2tree(g.n, bends[0]):
        return "bent", bends[0]
    raise UsageError("unsupported topology: not a straight or singly-bent chain")


def _cmd_reduce(args, out) -> int:
    if args.what == "file":
        try:
            with open(args.path, encoding="utf-8") as handle:
                graph = WeightedGraph.from_text(handle.read())
        except OSError as exc:
            raise UsageError(f"cannot read {args.path}: {exc}") from exc
        # Before the connectivity check, which builds a dict over all n vertices.
        check_engine_size(graph.n)
        if not graph.is_connected():
            raise UsageError("input graph is disconnected")
        family, k = _detect_family(graph)
        n = graph.n
    else:
        family, n, k = args.what, args.n, getattr(args, "k", None)
    value, state = reduce_straight_state(n) if family == "straight" else reduce_bent(n, k)
    record = _record_from_values("reduce", family, n, k, 1, n, {"engine": value}, args.digits)
    emit_records([record], args.format, out)
    if args.emit_log:
        for step in state.log:
            out.write(json.dumps(step.to_json_dict()) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotree",
        description="Exact resistance distance in straight and bent linear 2-trees.",
        epilog="Environment: TWO_TREE_CACHE_LIMIT caps the largest sequence index served.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--digits", type=int, default=12, help="significant digits for decimals")

    p_res = sub.add_parser("resistance", help="one resistance query, cross-checked")
    p_res.add_argument("family", choices=("straight", "bent"))
    p_res.add_argument("--n", type=int, required=True)
    p_res.add_argument("--k", type=int)
    p_res.add_argument("--i", type=int)
    p_res.add_argument("--j", type=int)
    p_res.add_argument("--methods", help="comma list, 'all', or 'default'")
    add_common(p_res)
    p_res.set_defaults(run=_cmd_resistance)

    p_sweep = sub.add_parser("sweep", help="grid of queries in deterministic order")
    p_sweep.add_argument("family", choices=("straight", "bent"))
    p_sweep.add_argument("--n", required=True, help="single N or range LO:HI")
    p_sweep.add_argument("--k", type=int)
    p_sweep.add_argument("--k-policy", choices=("all", "fixed", "center"), help="bent family only (default all)")
    p_sweep.add_argument("--methods", help="comma list, 'all', or 'default'")
    add_common(p_sweep)
    p_sweep.set_defaults(run=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the identity catalogue")
    p_verify.add_argument("--profile", choices=PROFILES, default="standard")
    p_verify.set_defaults(run=_cmd_verify)

    p_reduce = sub.add_parser("reduce", help="chain reduction with optional step log")
    p_reduce.set_defaults(run=_cmd_reduce)
    reduce_sub = p_reduce.add_subparsers(dest="what", required=True)
    p_red_s = reduce_sub.add_parser("straight")
    p_red_s.add_argument("n", type=int)
    p_red_b = reduce_sub.add_parser("bent")
    p_red_b.add_argument("n", type=int)
    p_red_b.add_argument("k", type=int)
    p_red_f = reduce_sub.add_parser("file")
    p_red_f.add_argument("path")
    for p in (p_red_s, p_red_b, p_red_f):
        p.add_argument("--emit-log", action="store_true")
        add_common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = sys.stdout
    try:
        # Checked before any route runs; `verify` has no --digits.
        if getattr(args, "digits", 1) < 1:
            raise UsageError("digits must be at least 1")
        if getattr(args, "digits", 1) > MAX_DIGITS:
            raise UsageError(f"digits must be at most MAX_DIGITS = {MAX_DIGITS}")
        return args.run(args, out)
    except ReductionError as exc:
        # The CLI only hands the engine valid chains, so this is a broken
        # invariant inside it, never a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
