"""twotree benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload {query,sweep,deep,verify} --seed N \\
        --seconds S --trace {0,1} [--label NAME]
    python3 bench/run.py compare RESULTS_DIR_A RESULTS_DIR_B

Run from the root of a twotree checkout.  Every workload is a closed loop
driven by one client in one process, without threads.  With `--trace 0` a
fresh worker runs ops for S seconds and the run reports op latency, items
per second, the share of ops that passed their checks, set-up time and
peak memory; times are normalised for CPU speed phases (calibrate.py).
With `--trace 1` two fresh workers run the same first round of ops,
untraced and then traced, and the run reports the per-layer metrics and
the tracing overhead (traced minus untraced op time).

Each run writes a stamped result file to bench/results/LABEL/; `compare`
prints two such result sets side by side (see compare.py).  The last line
on stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
RESULTS = os.path.join(BENCH_DIR, "results")
WORKLOADS = ("query", "sweep", "deep", "verify")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker(workload: str, seed: int, seconds: float, mode: str, spans_path=None) -> dict:
    cmd = [sys.executable, WORKER, "run", workload, str(seed), repr(seconds), mode]
    if spans_path:
        cmd.append(spans_path)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(setups: list[dict], run: dict) -> tuple[dict, dict]:
    """(metrics, details) of a timed run: the printed result and the result file's extras.

    Times in the metrics are normalised by calibrate.py; the raw wall-clock
    figures go to the details.  Latency and throughput cover the complete
    rounds of the run, so every seed weighs each op size the same; the ops
    of the last, partial round still count as attempted and are checked.
    """
    attempted = len(run["op_s"])
    whole = attempted // run["round_length"] * run["round_length"] or attempted
    op_s, norm_s = run["op_s"][:whole], run["op_norm_s"][:whole]
    p90 = _p90(norm_s)
    items = sum(run["items"][:whole])
    metrics = {
        "op_p50_ms": (statistics.median(norm_s) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "items_per_s": (items / sum(norm_s), "1/s"),
        "ok_frac": (1 - run["failed"] / attempted, "fraction"),
        "setup_s": (statistics.median(s["setup_norm_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    details = {
        "failed_frac": run["failed"] / attempted,
        "op_samples": whole,
        "ops_attempted": attempted,
        "op_samples_beyond_p90": sum(1 for t in norm_s if t > p90),
        "items": items,
        "raw_op_p50_ms": statistics.median(op_s) * 1e3,
        "raw_op_p90_ms": _p90(op_s) * 1e3,
        "raw_items_per_s": items / sum(op_s),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "kernel_median_s": statistics.median(run["kernel_s"]),
        "kernel_samples": len(run["kernel_s"]),
        "measured_s": sum(op_s),
        "loop_s": run["loop_s"],
        "setup_samples_s": [s["setup_norm_s"] for s in setups],
    }
    return metrics, details


def per_layer(fixed: dict, traced: dict) -> tuple[dict, dict]:
    metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
    metrics["cli.import_s"] = (traced["import_s"], "s")
    untraced_s, traced_s = sum(fixed["op_norm_s"]), sum(traced["op_norm_s"])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "fraction")
    details = {
        "untraced_op_s": untraced_s,
        "traced_op_s": traced_s,
        "spans": traced["spans"],
        "spans_dropped": traced["spans_dropped"],
        "notes": {
            "sequences.table_hit_frac": "proxy: share of fib/lucas calls whose |index| is at most the largest "
            "index that sequence was asked for earlier in the run, computed from the call arguments",
            "resistance.exact_dense_ops": "computed: sum of (order of the grounded Laplacian)^3",
        },
    }
    return metrics, details


def run_benchmark(args) -> dict:
    os.makedirs(os.path.join(RESULTS, args.label), exist_ok=True)
    stem = os.path.join(RESULTS, args.label, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        fixed = worker(args.workload, args.seed, args.seconds, "fixed")
        traced = worker(args.workload, args.seed, args.seconds, "traced", stem + ".spans.jsonl")
        metrics, details = per_layer(fixed, traced)
        runs = [fixed, traced]
    else:
        setups = [worker(args.workload, args.seed, args.seconds, "setup") for _ in range(SETUP_REPEATS - 1)]
        timed = worker(args.workload, args.seed, args.seconds, "timed")
        metrics, details = end_to_end(setups + [timed], timed)
        runs = [timed]
    attempted = sum(len(r["op_s"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stamped = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "label": args.label,
        "started_utc": args.started,
        "python": runs[-1]["python"],
        "numpy": runs[-1]["numpy"],
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "TWO_TREE_CACHE_LIMIT": os.environ.get("TWO_TREE_CACHE_LIMIT", "unset"),
        **result,
        "details": details,
        "failures": [f for r in runs for f in r["failures"]],
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(stamped, handle, indent=1)
    return stamped


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest", help="result set directory under bench/results/")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not all(c.isalnum() or c in "_.-" for c in args.label):
        parser.error("--label may hold letters, digits, '_', '.' and '-' only")
    return args


def main(argv) -> int:
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    args = parse_args(argv)
    args.started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    if not os.path.isfile(os.path.join(ROOT, "src", "twotree", "cli.py")):
        print(f"error: no twotree sources at {os.path.join(ROOT, 'src', 'twotree')}", file=sys.stderr)
        return 2
    try:
        stamped = run_benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details = stamped["details"]
    for name, metric in stamped["metrics"].items():
        extra = ""
        if name == "op_p90_ms":
            extra = f"  ({details['op_samples']} samples, {details['op_samples_beyond_p90']} beyond p90)"
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{extra}")
    if not args.trace:
        print(f"{args.workload} failed_frac = {details['failed_frac']:.6g}")
    for failure in stamped["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({k: stamped[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if stamped["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
