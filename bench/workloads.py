"""The four workloads: seeded inputs, one op each, and output checks.

Every workload draws its ops in rounds.  A round visits every cell of the
workload once, in a seeded order.  A cell is a small set of neighbouring
sizes of similar cost; rounds cycle through them from a seeded start, and
the rest of each op (bend, vertex pair) is drawn from the seed.  So every
seed spends its time on the same mix of sizes and the run-to-run spread
stays small, while the concrete inputs differ with the seed.

An op returns its raw output; `check` compares it with the reference route
of `reference.py` after the timed region and returns the number of items it
completed, or raises `OpFailure`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import reference

QUERY_TIMEOUT_S = 120
_GOLDEN = 0.6180339887498949


class OpFailure(Exception):
    """An op's output is missing, malformed or wrong."""


def _log_points(lo: int, hi: int, count: int) -> list[list[int]]:
    """`count` log-spaced sizes over [lo, hi], each with neighbours 2% either side."""
    centres = [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]
    return [[round(c * 0.98), round(c), round(c * 1.02)] for c in centres]


def _rounds(cells, seed: int):
    """Endless rounds; each draws one op from every cell, in seeded order.

    A cell is (sizes, make).  Round r takes size number r + offset of the
    cell, with a seeded offset per cell, and a position u in [0, 1) from a
    golden-ratio sequence with a seeded start, which `make` turns into the
    bend.  So a run spends the same share of ops on each size and bend
    position whatever the seed; `make` draws the rest of the op from `rng`.
    """
    rng = random.Random(seed)
    offsets = [(rng.randrange(len(sizes)), rng.random()) for sizes, _ in cells]
    for r in itertools.count():
        order = list(range(len(cells)))
        rng.shuffle(order)
        for i in order:
            sizes, make = cells[i]
            size_offset, u_offset = offsets[i]
            yield make(rng, sizes[(r + size_offset) % len(sizes)], (u_offset + r * _GOLDEN) % 1.0)


# -- op makers ------------------------------------------------------------------

def _bent(methods=None):
    def make(rng, n, u):
        argv = ["resistance", "bent", "--n", str(n), "--k", str(3 + int(u * (n - 5)))]
        if methods:
            argv += ["--methods", methods]
        return argv + ["--format", "json"]

    return make


def _straight(interior: bool, methods=None):
    def make(rng, n, u):
        argv = ["resistance", "straight", "--n", str(n)]
        if interior:
            i, j = 1, n
            while (i, j) == (1, n):
                i, j = sorted(rng.sample(range(1, n + 1), 2))
            argv += ["--i", str(i), "--j", str(j)]
        if methods:
            argv += ["--methods", methods]
        return argv + ["--format", "json"]

    return make


def _sweep(rng, n, u):
    return ["sweep", "bent", "--n", f"{n}:{n}", "--k-policy", "all", "--methods", "all", "--format", "json"]


def _slice(identity_id: str, param: str, value: int, rest: dict):
    box = {param: (value, value), **rest}
    return [None], lambda rng, size, u: (identity_id, box)


# -- running ops -------------------------------------------------------------------

def run_in_process(cli, argv):
    """One `twotree.cli.main` call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_query(root: str, argv, traced: bool):
    """One fresh CLI process, as a shell user runs it; traced ops go through the tracer entry."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if traced:
        cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"), "cli-traced"]
    else:
        cmd = [sys.executable, "-m", "twotree.cli"]
    proc = subprocess.run(
        cmd + list(argv), cwd=root, env=env, capture_output=True, text=True, timeout=QUERY_TIMEOUT_S
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- checks ---------------------------------------------------------------------------

def _arg(argv, flag):
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


def _records(code: int, stdout: str, expected: int) -> list[dict]:
    if code != 0:
        raise OpFailure(f"exit code {code}")
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise OpFailure(f"unparsable output: {exc}") from None
    if len(records) != expected:
        raise OpFailure(f"{len(records)} records, expected {expected}")
    return records


def _check_record(record: dict, methods: int, want: Fraction) -> None:
    if record.get("agree") is not True:
        raise OpFailure(f"routes disagree: {record.get('methods')}")
    if len(record.get("methods") or {}) != methods:
        raise OpFailure(f"{len(record.get('methods') or {})} methods, expected {methods}")
    if Fraction(record["exact"]) != want:
        raise OpFailure(f"exact {record['exact']} differs from the reference {want}")


def resistance_reference(argv) -> Fraction:
    n = _arg(argv, "--n")
    if argv[1] == "bent":
        return reference.bent_end_to_end(n, _arg(argv, "--k"))
    i, j = _arg(argv, "--i") or 1, _arg(argv, "--j") or n
    return reference.straight_pair(n, i, j)


def check_resistance(argv, output) -> int:
    (record,) = _records(*output[:2], expected=1)
    methods = argv[argv.index("--methods") + 1].count(",") + 1 if "--methods" in argv else 2
    _check_record(record, methods, resistance_reference(argv))
    return 1


def check_sweep(argv, output) -> int:
    n = int(argv[argv.index("--n") + 1].split(":")[0])
    records = _records(*output[:2], expected=n - 5)
    if [r["k"] for r in records] != list(range(3, n - 2)):
        raise OpFailure("bend positions out of order or missing")
    for record in records:
        _check_record(record, 5, reference.bent_end_to_end(n, record["k"]))
    return len(records)


def check_verify(op, report) -> int:
    identity_id, box = op
    if report.identity_id != identity_id or report.status != "pass":
        raise OpFailure(f"{identity_id}: status {report.status}, counterexample {report.counterexample}")
    points = 1
    for lo, hi in box.values():
        points *= hi - lo + 1
    return points


# -- the workloads -------------------------------------------------------------------


class Workload:
    """How one workload draws its ops and checks their outputs."""

    def __init__(self, name: str, cells, check, fresh_process: bool = False):
        self.name, self.cells, self.check, self.fresh_process = name, cells, check, fresh_process

    def ops(self, seed: int):
        return _rounds(self.cells, seed)

    def round_length(self) -> int:
        return len(self.cells)


def _query_cells():
    bands = [list(range(lo, hi + 1)) for lo, hi in ((3, 17), (18, 31), (32, 46), (47, 60))]
    cells = [(sizes, _bent()) for sizes in [list(range(6, 19))] + bands[1:]]
    cells += [(sizes, _straight(interior=False)) for sizes in bands]
    cells += [(sizes, _straight(interior=True)) for sizes in bands]
    return cells


def _verify_cells(identities):
    """One cell per slice of the standard box of each run_all identity."""
    cells = []
    for entry in identities.REGISTRY.values():
        if not entry.in_run_all:
            continue
        standard = entry.ranges["standard"]
        first, rest = entry.params[0], {p: standard[p] for p in entry.params[1:]}
        lo, hi = standard[first]
        cells.extend(_slice(entry.id, first, v, rest) for v in range(lo, hi + 1))
    return cells


def make(name: str, identities) -> Workload:
    """The named workload; `identities` is twotree's catalogue module."""
    if name == "query":
        return Workload(name, _query_cells(), check_resistance, fresh_process=True)
    if name == "sweep":
        return Workload(name, [([n, n + 1], _sweep) for n in range(10, 40, 2)], check_sweep)
    if name == "deep":
        cells = [(sizes, _bent("alternating,product,engine")) for sizes in _log_points(300, 3000, 12)]
        cells += [(sizes, _straight(False, "formula,engine")) for sizes in _log_points(300, 3000, 6)]
        return Workload(name, cells, check_resistance)
    if name == "verify":
        return Workload(name, _verify_cells(identities), check_verify)
    raise ValueError(f"unknown workload {name!r}")


def run_op(workload: Workload, op, cli, identities, root: str, traced: bool):
    """Execute one op and return its raw output for `check`."""
    if workload.name == "verify":
        identity_id, box = op
        return identities.check_identity(identity_id, ranges=box)
    if workload.fresh_process:
        return run_query(root, op, traced)
    return run_in_process(cli, op)
