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
import json
import sys
from fractions import Fraction
from typing import Optional

from .formulas import (
    BentParams,
    bent_resistance_alternating,
    bent_resistance_product,
    straight_end_resistance,
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
# identities.PROFILES, repeated so that only `verify` loads the catalogue;
# a test keeps the two equal.
PROFILES = ("small", "standard", "deep")

CSV_COLUMNS = ("command", "family", "n", "k", "i", "j", "exact", "decimal", "methods", "agree")


class UsageError(ValueError):
    """Bad parameters; reported with a diagnostic and exit code 2."""


# Each route takes (n, k, i, j, graph); `graph` is the chain the oracles
# share, built once per record and only when an oracle runs.
_BENT_METHODS = {
    "alternating": lambda n, k, i, j, g: bent_resistance_alternating(BentParams(n, k)),
    "product": lambda n, k, i, j, g: bent_resistance_product(BentParams(n, k)),
    "engine": lambda n, k, i, j, g: reduce_bent(n, k)[0],
    "exact": lambda n, k, i, j, g: resistance_exact(g, i, j),
    "float": lambda n, k, i, j, g: resistance_float(g, i, j),
}

_STRAIGHT_METHODS = {
    "formula": lambda n, k, i, j, g: (
        straight_end_resistance(n - 2) if (i, j) == (1, n) else straight_pair_resistance(n - 2, i, j - i)
    ),
    "engine": lambda n, k, i, j, g: reduce_straight_state(n)[0],
    "exact": lambda n, k, i, j, g: resistance_exact(g, i, j),
    "float": lambda n, k, i, j, g: resistance_float(g, i, j),
}

_ORACLES = ("exact", "float")

# Checked before any route runs, so that no route runs only for a later
# one to refuse the size.
_SIZE_GUARDS = {"engine": check_engine_size, "exact": check_oracle_size, "float": check_oracle_size}


def _applicable_methods(family: str, n: int, i: int, j: int) -> list[str]:
    if family == "bent":
        return list(_BENT_METHODS)
    # The straight engine reduces the whole chain, so it only gives r(1, n).
    return [m for m in _STRAIGHT_METHODS if m != "engine" or (i, j) == (1, n)]


def _default_methods(family: str, n: int, i: int, j: int) -> list[str]:
    if family == "bent":
        return ["alternating", "engine"]
    if (i, j) == (1, n):
        return ["formula", "engine"]
    if n <= ORACLE_DEFAULT_CUTOFF:
        return ["formula", "exact"]
    return ["formula"]


def _resolve_methods(requested: Optional[str], family: str, n: int, i: int, j: int) -> list[str]:
    applicable = _applicable_methods(family, n, i, j)
    if requested is None or requested == "default":
        return _default_methods(family, n, i, j)
    if requested == "all":
        return applicable
    chosen = [m.strip() for m in requested.split(",") if m.strip()]
    if not chosen:
        raise UsageError("empty method list")
    for m in chosen:
        if m not in applicable:
            raise UsageError(
                f"method {m!r} is not applicable here; choose from {', '.join(applicable)}"
            )
    return chosen


def _check_sizes(requested: Optional[str], family: str, methods: list[str], n: int) -> None:
    for tag in methods:
        if tag in _SIZE_GUARDS:
            try:
                _SIZE_GUARDS[tag](n)
            except GraphError as exc:
                if requested not in (None, "default"):
                    raise
                table = _BENT_METHODS if family == "bent" else _STRAIGHT_METHODS
                unguarded = ",".join(m for m in table if m not in _SIZE_GUARDS)
                raise UsageError(
                    f"{exc}; the default methods include {tag!r}, so pass"
                    f" --methods {unguarded} for the closed forms alone"
                ) from None


def _validate_query(family: str, n: int, k: Optional[int], i: Optional[int], j: Optional[int]):
    if family == "bent":
        if k is None:
            raise UsageError("bent queries need --k")
        BentParams(n, k)  # raises with the precondition named
        qi = 1 if i is None else i
        qj = n if j is None else j
        if (qi, qj) != (1, n):
            raise UsageError("bent-chain resistance is only supported between vertices 1 and n")
        return qi, qj
    if n < 3:
        raise UsageError("straight chains need n >= 3")
    if k is not None:
        raise UsageError("--k applies to the bent family only")
    qi = 1 if i is None else i
    qj = n if j is None else j
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
    table = _BENT_METHODS if family == "bent" else _STRAIGHT_METHODS
    graph = None
    if any(tag in _ORACLES for tag in methods):
        graph = bent_2tree(n, k) if family == "bent" else straight_2tree(n)
    values: dict[str, Fraction | float] = {}
    for tag in methods:
        values[tag] = table[tag](n, k, i, j, graph)
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
    return {
        "command": command,
        "family": family,
        "n": n,
        "k": k,
        "i": i,
        "j": j,
        "exact": ratio_string(reference) if reference is not None else None,
        "decimal": decimal_string(reference, digits) if reference is not None else None,
        "methods": {
            t: (ratio_string(v) if isinstance(v, Fraction) else repr(v))
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
    return f"{head} {where} = {record['exact']} = {record['decimal']} [{methods}] agree={agree}"


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


def _agreement_status(records: list[dict]) -> int:
    """Exit status of a query batch: 1 when any record's routes disagree."""
    disagree = sum(1 for record in records if record["agree"] is False)
    if disagree:
        print(f"error: routes disagree on {disagree} of {len(records)} records", file=sys.stderr)
        return 1
    return 0


# -- subcommand drivers -------------------------------------------------------

def _cmd_resistance(args, out) -> int:
    i, j = _validate_query(args.family, args.n, args.k, args.i, args.j)
    methods = _resolve_methods(args.methods, args.family, args.n, i, j)
    _check_sizes(args.methods, args.family, methods, args.n)
    record = build_record("resistance", args.family, args.n, args.k, i, j, methods, args.digits)
    emit_records([record], args.format, out)
    return _agreement_status([record])


def _parse_span(text: str) -> tuple[int, int]:
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def _sweep_size(family: str, lo: int, hi: int, policy: str, k: Optional[int]) -> int:
    """Number of records a sweep over n in [lo, hi] produces, in O(1)."""
    rows = hi - lo + 1
    if family == "straight" or policy == "center":
        return rows
    if policy == "fixed":
        return max(0, hi - max(lo, k + 3) + 1) if k >= 3 else 0
    return rows * (lo + hi - 10) // 2  # n - 5 bends at each n


def _cmd_sweep(args, out) -> int:
    lo, hi = _parse_span(args.n)
    if args.family == "straight" and args.k is not None:
        raise UsageError("--k applies to the bent family only")
    least = 3 if args.family == "straight" else 6
    if lo < least:
        raise UsageError(f"{args.family} chains need n >= {least}")
    if args.family == "bent" and args.k_policy == "fixed" and args.k is None:
        raise UsageError("k-policy 'fixed' needs --k")
    if args.family == "bent" and args.k_policy != "fixed" and args.k is not None:
        raise UsageError(f"--k applies to k-policy 'fixed' only, not {args.k_policy!r}")
    size = _sweep_size(args.family, lo, hi, args.k_policy, args.k)
    if size > MAX_SWEEP_RECORDS:
        raise UsageError(f"sweep of {size} records exceeds MAX_SWEEP_RECORDS = {MAX_SWEEP_RECORDS}")
    if size:
        # Every n of a sweep selects the same routes, and the guards bound n.
        _check_sizes(args.methods, args.family, _resolve_methods(args.methods, args.family, hi, 1, hi), hi)
    records = []
    for n in range(lo, hi + 1):
        if args.family == "straight":
            i, j = 1, n
            methods = _resolve_methods(args.methods, "straight", n, i, j)
            records.append(build_record("sweep", "straight", n, None, i, j, methods, args.digits))
            continue
        if args.k_policy == "all":
            bends = range(3, n - 2)
        elif args.k_policy == "fixed":
            bends = [args.k] if 3 <= args.k <= n - 3 else []
        else:  # center
            bends = [min(max(3, n // 2), n - 3)]
        for k in bends:
            methods = _resolve_methods(args.methods, "bent", n, 1, n)
            records.append(build_record("sweep", "bent", n, k, 1, n, methods, args.digits))
    emit_records(records, args.format, out)
    return _agreement_status(records)


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
    if args.what == "straight":
        n, k = args.n, None
        if n is None:
            raise UsageError("reduce straight needs N")
    elif args.what == "bent":
        n, k = args.n, args.k
        if n is None or k is None:
            raise UsageError("reduce bent needs N and K")
    else:
        try:
            with open(args.path, encoding="utf-8") as handle:
                graph = WeightedGraph.from_text(handle.read())
        except OSError as exc:
            raise UsageError(f"cannot read {args.path}: {exc}") from exc
        if not graph.is_connected():
            raise UsageError("input graph is disconnected")
        family, k = _detect_family(graph)
        n = graph.n
        args.what = family

    if args.what == "straight":
        value, state = reduce_straight_state(n)
    else:
        value, state = reduce_bent(n, k)
    record = _record_from_values("reduce", args.what, n, k, 1, n, {"engine": value}, args.digits)
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

    p_sweep = sub.add_parser("sweep", help="grid of queries in deterministic order")
    p_sweep.add_argument("family", choices=("straight", "bent"))
    p_sweep.add_argument("--n", required=True, help="single N or range LO:HI")
    p_sweep.add_argument("--k", type=int)
    p_sweep.add_argument("--k-policy", choices=("all", "fixed", "center"), default="all")
    p_sweep.add_argument("--methods", help="comma list, 'all', or 'default'")
    add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run the identity catalogue")
    p_verify.add_argument("--profile", choices=PROFILES, default="standard")

    p_reduce = sub.add_parser("reduce", help="chain reduction with optional step log")
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
        if args.cmd == "resistance":
            return _cmd_resistance(args, out)
        if args.cmd == "sweep":
            return _cmd_sweep(args, out)
        if args.cmd == "verify":
            return _cmd_verify(args, out)
        if args.cmd == "reduce":
            return _cmd_reduce(args, out)
        parser.error(f"unknown command {args.cmd!r}")
    except ReductionError as exc:
        # The CLI only hands the engine valid chains, so this is a broken
        # invariant inside it, never a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
