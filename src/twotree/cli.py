"""Batch command-line interface.

Subcommands: `resistance` (one query, several methods, cross-checked),
`sweep` (parameter grids, deterministic order), `verify` (identity
catalogue as JSON lines), `reduce` (chain reduction with an optional
step-by-step log).  Exit codes: 0 success, 1 verification failure (routes
that disagree, a failed identity, a broken engine invariant), 2 usage or
input error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from typing import Optional

from .formulas import (
    BentParams,
    bent_resistance_alternating,
    bent_resistance_product,
    closed_form_work,
    straight_pair_resistance,
)
from .graphs import MAX_SWEEP_COST, GraphError, WeightedGraph, bent_2tree, chain_shape, check_work, straight_2tree, units
from .rational import decimal_string, ratio_string
from .reduction import ReductionError, engine_work, reduce_bent, reduce_straight_state
from .resistance import chain_work, float_work, resistance_exact, resistance_float

FLOAT_RELATIVE_TOLERANCE = 1e-9
# A sweep holds every record in memory until it prints them, so larger
# grids are refused before any record is computed.
MAX_SWEEP_RECORDS = 10_000
# Every decimal is held until the records print, so longer ones are refused.
MAX_DIGITS = 10_000
# identities.PROFILES, repeated so that only `verify` loads the catalogue;
# a test keeps the two equal.
PROFILES = ("small", "standard", "deep")

# A record's fields in order: the keys of a JSON record, the columns of a CSV row.
RECORD_FIELDS = ("command", "family", "n", "k", "i", "j", "exact", "decimal", "methods", "agree")


class UsageError(ValueError):
    """Bad parameters; reported with a diagnostic and exit code 2."""


_Route = namedtuple("_Route", ("call", "cost"))

# Every route of the CLI.  call(n, k, i, j, chain) gives the value; cost(n, k)
# is the work of one record by the work function of the route's module, about
# 1 ns a unit, summed over a batch against MAX_SWEEP_COST.  A call looks its
# function up in this module when it runs, so a wrapper or stub set here
# reaches it.  `exact` shoots a chain, priced by `chain_work`; `float` prices
# a chain by the half-bandwidth of its grounded Laplacian, 3 with a bend and 2
# without.  tests/check_prices.py times every route against its price.
_ROUTES = {
    ("bent", "alternating"): _Route(
        lambda n, k, i, j, g: bent_resistance_alternating(BentParams(n, k)),
        lambda n, k: closed_form_work(n)),
    ("bent", "product"): _Route(
        lambda n, k, i, j, g: bent_resistance_product(BentParams(n, k)),
        lambda n, k: closed_form_work(n)),
    ("bent", "engine"): _Route(
        lambda n, k, i, j, g: reduce_bent(n, k, keep_log=False)[0],
        engine_work),
    ("bent", "exact"): _Route(
        lambda n, k, i, j, g: resistance_exact(g, i, j),
        lambda n, k: chain_work(n)),
    ("bent", "float"): _Route(
        lambda n, k, i, j, g: resistance_float(g, i, j),
        lambda n, k: float_work(n, 3)),
    ("straight", "formula"): _Route(
        lambda n, k, i, j, g: straight_pair_resistance(n - 2, i, j - i),
        lambda n, k: closed_form_work(n)),
    ("straight", "engine"): _Route(
        lambda n, k, i, j, g: reduce_straight_state(n, keep_log=False)[0],
        lambda n, k: engine_work(n, n)),
    ("straight", "exact"): _Route(
        lambda n, k, i, j, g: resistance_exact(g, i, j),
        lambda n, k: chain_work(n)),
    ("straight", "float"): _Route(
        lambda n, k, i, j, g: resistance_float(g, i, j),
        lambda n, k: float_work(n, 2)),
}
# The engine reduces the whole chain, so it only gives r(1, n).
ENDS_ONLY = {"engine"}
# The oracles share the one chain that build_record builds.
ORACLES = {"exact", "float"}


def _default_methods(family: str, ends: bool) -> list[str]:
    """The routes a query runs unless --methods names others: the closed form
    and the engine at (1, n); `formula` and `exact` at another pair, which
    only a straight chain has."""
    if ends:
        return ["alternating" if family == "bent" else "formula", "engine"]
    return ["formula", "exact"]


def _applicable_routes(family: str, ends: bool) -> dict[str, _Route]:
    return {tag: r for (fam, tag), r in _ROUTES.items() if fam == family and (ends or tag not in ENDS_ONLY)}


def _resolve_methods(requested: Optional[str], family: str, n: int, i: int, j: int) -> list[str]:
    """The routes a query runs; refuses any inapplicable or repeated one."""
    ends = (i, j) == (1, n)
    if requested is None or requested == "default":
        return _default_methods(family, ends)
    routes = _applicable_routes(family, ends)
    if requested == "all":
        return list(routes)
    chosen = [m.strip() for m in requested.split(",") if m.strip()]
    if not chosen:
        raise UsageError("empty method list")
    for at, m in enumerate(chosen):
        if m not in routes:
            raise UsageError(f"method {m!r} is not applicable here; choose from {', '.join(routes)}")
        if m in chosen[:at]:
            raise UsageError(f"method {m!r} is listed twice")
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
    if not ORACLES.isdisjoint(methods):
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
    decimal = decimal_string(reference, digits) if reference is not None else None
    methods = {
        t: ((exact if v == reference else ratio_string(v)) if isinstance(v, Fraction) else repr(v))
        for t, v in values.items()
    }
    return dict(zip(RECORD_FIELDS, (command, family, n, k, i, j, exact, decimal, methods, agree)))


def _record_to_text(record: dict) -> str:
    where = f"r({record['i']},{record['j']})"
    head = f"{record['family']} n={record['n']}"
    if record["k"] is not None:
        head += f" k={record['k']}"
    methods = ",".join(record["methods"])
    agree = {True: "yes", False: "NO", None: "n/a"}[record["agree"]]
    value = f"{record['exact'] or 'n/a'} = {record['decimal'] or 'n/a'}"
    return f"{head} {where} = {value} [{methods}] agree={agree}"


def _record_to_csv_row(record: dict) -> list:
    # csv writes None as an empty cell and an int as its text.
    methods = ";".join(f"{t}={v}" for t, v in record["methods"].items())
    cells = dict(record, methods=methods, agree={True: "true", False: "false"}.get(record["agree"]))
    return [cells[field] for field in RECORD_FIELDS]


def emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(map(_record_to_csv_row, records))
    else:
        for record in records:
            out.write(_record_to_text(record) + "\n")


def _run_points(command: str, family: str, points, args, out) -> int:
    """Answer the (n, k, i, j) `points` in order once the whole batch is admitted:
    at most MAX_SWEEP_RECORDS records and MAX_SWEEP_COST units."""
    points = list(itertools.islice(points, MAX_SWEEP_RECORDS + 1))
    if len(points) > MAX_SWEEP_RECORDS:
        raise UsageError(f"sweep of more than {MAX_SWEEP_RECORDS} records exceeds MAX_SWEEP_RECORDS")
    methods = []
    if points:
        n, _, i, j = points[-1]
        methods = _resolve_methods(args.methods, family, n, i, j)

    def batch_cost(tag: str) -> int:
        cost = _ROUTES[family, tag].cost
        return sum(cost(pn, pk) for pn, pk, _, _ in points)

    costs = {tag: batch_cost(tag) for tag in methods}
    if sum(costs.values()) > MAX_SWEEP_COST:
        what = f"sweep of {len(points)} records" if command == "sweep" else "query"
        hint = f"{'split it' if command == 'sweep' else 'ask a smaller n'} or pass cheaper --methods"
        if args.methods in (None, "default"):
            fit, left = [], MAX_SWEEP_COST
            for tag in _applicable_routes(family, (i, j) == (1, n)):
                cost = batch_cost(tag)
                if cost <= left:
                    fit.append(tag)
                    left -= cost
            if fit:
                hint = f"the default methods do not fit, so pass --methods {','.join(fit)}"
        work = ", ".join(f"{tag} {units(cost)}" for tag, cost in costs.items())
        raise UsageError(
            f"{what} costs about {units(sum(costs.values()))} units ({work}),"
            f" over MAX_SWEEP_COST = {units(MAX_SWEEP_COST)}; {hint}"
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


def _cmd_reduce(args, out) -> int:
    if args.what == "file":
        try:
            with open(args.path, encoding="utf-8") as handle:
                graph = WeightedGraph.from_text(handle.read())
        except OSError as exc:
            raise UsageError(f"cannot read {args.path}: {exc}") from exc
        n, k = graph.n, None
    else:
        n, k = args.n, getattr(args, "k", None)
        # Checked before it is priced: a bend off the chain is a usage error.
        _validate_query(args.what, n, k, None, None)
    # Priced before anything of size n is built; a file as a straight chain,
    # the engine's worst case, before `chain_shape` reads it.  A side's j-th
    # log records carry integers of about 1.4 j bits, so the log's text
    # grows as the squares of the side lengths: 55 MB, written in 1.3 s,
    # for a straight chain of 4000 vertices.
    bend = n if k is None else k
    work = {"engine": engine_work(n, bend)}
    if args.emit_log:
        work["step log"] = 250 * (bend**2 + (n - bend) ** 2)
    parts = ", ".join(f"{what} {units(w)}" for what, w in work.items())
    check_work(f"reduce on {n} vertices ({parts})", sum(work.values()))
    if args.what == "file":
        # A chain `chain_shape` names is connected and unit-weight by
        # construction; only a graph it refuses is walked, then scanned, to
        # say why.
        shape = chain_shape(graph)
        if shape is None:
            if not graph.is_connected():
                raise UsageError("input graph is disconnected")
            if any(w != 1 for _, _, w in graph.edges):
                raise UsageError("only unit-weight chains are reducible; found non-unit weights")
            raise UsageError("unsupported topology: not a straight or singly-bent chain")
        family, k = shape
    else:
        family = args.what
    if family == "straight":
        value, state = reduce_straight_state(n, keep_log=args.emit_log)
    else:
        value, state = reduce_bent(n, k, keep_log=args.emit_log)
    record = _record_from_values("reduce", family, n, k, 1, n, {"engine": value}, args.digits)
    emit_records([record], args.format, out)
    if args.emit_log:
        for step in state.log:
            out.write(json.dumps(step.to_json_dict()) + "\n")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later `main`
    call in the process; it holds no state of a parse."""
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
    try:
        args = build_parser().parse_args(argv)
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
    except BrokenPipeError:
        # The reader closed stdout.  Pointed at the null device, stdout's exit
        # flush stays quiet; 141 is the shell's code for a SIGPIPE stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
