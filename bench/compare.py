"""Compare two result sets of bench/run.py, one row per (workload, metric).

    python3 bench/run.py compare RESULTS_DIR_A RESULTS_DIR_B

A is the parent, B the change.  Each row gives each side's median and
quartiles over its runs, the pairs B won (runs are paired by seed; ties
count for neither side) and a verdict:

- gain: B wins at least nine tenths of at least ten pairs, and the medians
  differ by more than the distance between A's quartiles;
- better: every run of B beats every run of A;
- unresolved: a side's quartile spread, as a share of its median, is wider
  than the metric's bound, so a change within the bound cannot be seen;
- regressed: B's median is worse than A's by more than the bound;
- within bound: none of the above.

Bounds and directions come from BENCHMARK.json.  Per-layer metrics have no
bound; their rows show only the pair rule.  Counts compare two versions of
one program; report them as counts, not as speed-ups.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP_KEYS = ("python", "numpy", "nproc", "cpus_allowed", "machine", "TWO_TREE_CACHE_LIMIT", "seconds")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"no result files in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(a: dict, b: dict, better: str, bound) -> tuple[str, str]:
    """(pairs column, verdict) for one metric; a and b map seed -> value."""
    sign = 1 if better == "higher" else -1
    pairs = sorted(set(a) & set(b))
    wins = sum(1 for s in pairs if sign * (b[s] - a[s]) > 0)
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    med_a, med_b = qa[1], qb[1]
    gain = (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(med_b - med_a) > qa[2] - qa[0]
    )
    if gain:
        result = "gain"
    elif min(sign * v for v in b.values()) > max(sign * v for v in a.values()):
        result = "better"
    elif bound is None:
        result = "-"
    else:
        spread = max(_share(q[2] - q[0], q[1]) for q in (qa, qb))
        worse_by = _share(-sign * (med_b - med_a), med_a)
        if spread > bound:
            result = "unresolved"
        elif worse_by > bound:
            result = "regressed"
        else:
            result = "within bound"
    return f"{wins}/{len(pairs)}", result


def _fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    directions = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(d) for d in argv]
    for label, directory, runs in zip("AB", argv, sides):
        commits = sorted({r["git_commit"] for r in runs})
        print(f"{label}: {len(runs)} runs from {directory}, commit {', '.join(commits)}")
    for key in STAMP_KEYS:
        values = {str(r.get(key)) for runs in sides for r in runs}
        if len(values) > 1:
            print(f"warning: runs differ in {key}: {', '.join(sorted(values))}; the sets are not comparable")
    header = ("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
    rows = [header]
    groups = sorted({(r["workload"], r["trace"]) for runs in sides for r in runs})
    for workload, trace in groups:
        per_side = [
            {r["seed"]: r for r in runs if r["workload"] == workload and r["trace"] == trace} for runs in sides
        ]
        if not all(per_side):
            continue
        first = next(iter(per_side[0].values()))["metrics"]
        for name, metric in first.items():
            values = [
                {seed: r["metrics"][name]["value"] for seed, r in side.items() if name in r["metrics"]}
                for side in per_side
            ]
            if not all(values):
                continue
            better, bound = directions.get(name, ("lower", None))
            pairs, result = verdict(values[0], values[1], better, bound)
            a, b = (_fmt(quartiles(list(v.values()))) for v in values)
            rows.append((workload, name, metric["unit"], a, b, pairs, result))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0
