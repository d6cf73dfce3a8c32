"""Smoke test of the benchmark harness itself.

    python3 -m pytest bench/tests/check_smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run prints every metric BENCHMARK.json names and that no op failed.
A corrupted reference value must be counted as a failed op.  The file name
keeps it out of the package's default test collection, because it takes
about a minute.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--label", "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 1
    with open(os.path.join(BENCH, "results", "smoke", f"{workload}-seed7-trace0.json"), encoding="utf-8") as handle:
        stamped = json.load(handle)
    assert stamped["details"]["failed_frac"] == 0
    for key in ("python", "numpy", "git_commit", "nproc", "seed", "TWO_TREE_CACHE_LIMIT"):
        assert key in stamped


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _run(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"] is True and result["failed"] == 0


def test_corrupted_reference_counts_as_failure(monkeypatch):
    true_value = reference.bent_end_to_end
    monkeypatch.setattr(reference, "bent_end_to_end", lambda n, k: true_value(n, k) + Fraction(1, 10**30))
    cores = os.sched_getaffinity(0)
    try:
        report = worker.run("sweep", 7, 0.01, "timed")
    finally:
        os.sched_setaffinity(0, cores)  # the worker pins its process to one core
    assert len(report["op_s"]) >= 1
    assert report["failed"] == len(report["op_s"])
    assert "differs from the reference" in report["failures"][0]
