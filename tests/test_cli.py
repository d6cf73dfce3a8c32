"""End-to-end command-line behaviour, driven in-process."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twotree import (
    REGISTRY,
    BentParams,
    ReductionError,
    bent_2tree,
    bent_resistance_alternating,
    ratio_string,
)
from twotree import cli
from twotree.cli import main
from twotree.identities import Identity


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resistance_bent_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "resistance", "bent", "--n", "6", "--k", "3", "--methods", "all", "--format", "json"
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["exact"] == "6/5"
    assert record["agree"] is True
    assert set(record["methods"]) == {"alternating", "product", "engine", "exact", "float"}
    assert record["methods"]["product"] == "6/5"


def test_resistance_straight_triangle(capsys):
    code, out, _ = run_cli(
        capsys, "resistance", "straight", "--n", "3", "--i", "1", "--j", "3", "--format", "json"
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["exact"] == "2/3"


def test_resistance_bent_bad_bend(capsys):
    code, _, err = run_cli(capsys, "resistance", "bent", "--n", "6", "--k", "5")
    assert code == 2
    assert "3 <= k <= n-3" in err


def test_resistance_rejects_unknown_method(capsys):
    code, _, err = run_cli(
        capsys, "resistance", "bent", "--n", "6", "--k", "3", "--methods", "sorcery"
    )
    assert code == 2
    assert "not applicable" in err


def test_sweep_bent_record_count(capsys):
    code, out, _ = run_cli(capsys, "sweep", "bent", "--n", "6:12", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 28
    order = [(r["n"], r["k"]) for r in records]
    assert order == sorted(order)
    assert all(r["agree"] for r in records)


def test_sweep_straight_record_count(capsys):
    code, out, _ = run_cli(capsys, "sweep", "straight", "--n", "3:5", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert [r["n"] for r in records] == [3, 4, 5]


def test_sweep_center_policy(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "bent", "--n", "8:10", "--k-policy", "center", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["n"], r["k"]) for r in records] == [(8, 4), (9, 4), (10, 5)]


def test_sweep_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "sweep", "bent", "--n", "6:8", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    exact_at = header.index("exact")
    n_at, k_at = header.index("n"), header.index("k")
    for row in body:
        n, k = int(row[n_at]), int(row[k_at])
        expected = ratio_string(bent_resistance_alternating(BentParams(n, k)))
        assert row[exact_at] == expected


def test_sweep_closed_form_only_large(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "bent",
        "--n",
        "2000:2000",
        "--k-policy",
        "center",
        "--methods",
        "alternating",
        "--format",
        "json",
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["agree"] is None  # single method, nothing to compare
    assert Fraction(record["exact"]) > 400  # grows like (n+1)/5


def test_verify_standard_profile_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--profile", "small")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 19
    assert all(r["status"] == "pass" for r in reports)
    assert "19 passed" in err


def test_verify_mutated_registry_fails(capsys, monkeypatch):
    from twotree import fib

    def broken(m):
        return [(fib(2 * m), fib(m) * fib(m + 1))]

    monkeypatch.setitem(
        REGISTRY,
        "I-2.1",
        Identity(
            id="I-2.1",
            statement="mutated for the harness self-test",
            params=("m",),
            fn=broken,
            ranges={p: {"m": (1, 20)} for p in ("small", "standard", "deep")},
        ),
    )
    code, out, _ = run_cli(capsys, "verify", "--profile", "small")
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    bad = [r for r in reports if r["status"] == "fail"]
    assert len(bad) == 1
    assert bad[0]["counterexample"] is not None


def test_verify_unknown_profile_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--profile", "huge")
    assert code == 2


def test_reduce_straight_triangle(capsys):
    code, out, _ = run_cli(capsys, "reduce", "straight", "3", "--emit-log", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    record = json.loads(lines[0])
    assert record["exact"] == "2/3"
    steps = [json.loads(line) for line in lines[1:]]
    assert sum(1 for s in steps if s["kind"] == "delta_y") == 1


def test_reduce_bent_log_counts(capsys):
    code, out, _ = run_cli(capsys, "reduce", "bent", "8", "4", "--emit-log", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    record = json.loads(lines[0])
    assert record["exact"] == "22/13"
    steps = [json.loads(line) for line in lines[1:]]
    left = [s for s in steps if s["kind"] == "delta_y" and s["side"] == "left"]
    right = [s for s in steps if s["kind"] == "delta_y" and s["side"] == "right"]
    assert (len(left), len(right)) == (2, 3)
    assert sum(1 for s in steps if s["kind"] == "parallel") == 1
    assert record["agree"] is None
    code, out, _ = run_cli(capsys, "resistance", "bent", "--n", "8", "--k", "4", "--format", "json")
    assert code == 0
    assert set(record) == set(json.loads(out.strip()))


def test_reduce_file_round_trip(capsys, tmp_path):
    path = tmp_path / "bent.txt"
    for n, k in [(8, 4), (6, 3), (12, 9), (600, 597)]:
        path.write_text(bent_2tree(n, k).to_text(), encoding="utf-8")
        code, out, _ = run_cli(capsys, "reduce", "file", str(path), "--format", "json")
        assert code == 0
        record = json.loads(out.strip())
        assert (record["family"], record["n"], record["k"]) == ("bent", n, k)
        assert record["exact"] == ratio_string(bent_resistance_alternating(BentParams(n, k)))


def test_sweep_fixed_policy_skips_out_of_range(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "bent", "--n", "6:9", "--k-policy", "fixed", "--k", "4", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    # k=4 is valid only from n=7 on
    assert [(r["n"], r["k"]) for r in records] == [(7, 4), (8, 4), (9, 4)]


def test_oversized_sweep_is_refused_before_any_record(capsys, monkeypatch):
    def no_records(*args):
        pytest.fail("an oversized sweep computed a record")

    monkeypatch.setattr(cli, "build_record", no_records)
    for argv in (
        ("bent", "--n", "6:100000"),
        ("bent", "--n", "6:100000", "--k-policy", "center"),
        ("bent", "--n", "6:100000", "--k-policy", "fixed", "--k", "4"),
        ("straight", "--n", "3:100000"),
    ):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert "MAX_SWEEP_RECORDS" in err


def test_sweep_k_needs_the_fixed_policy(capsys):
    for argv in (
        ("bent", "--n", "8:8", "--k", "4"),
        ("bent", "--n", "8:8", "--k-policy", "center", "--k", "4"),
        ("straight", "--n", "8:8", "--k", "4"),
    ):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert "--k applies to" in err


@pytest.mark.parametrize(
    "argv, size",
    [
        (("bent", "--n", "6:9"), 10),  # 1 + 2 + 3 + 4 bends
        (("bent", "--n", "6:15", "--k-policy", "center"), 10),
        (("bent", "--n", "6:16", "--k-policy", "fixed", "--k", "6"), 8),  # n = 9..16
        (("straight", "--n", "3:12"), 10),
    ],
)
def test_sweep_bound_counts_records_exactly(capsys, monkeypatch, argv, size):
    monkeypatch.setattr(cli, "MAX_SWEEP_RECORDS", size)
    code, out, _ = run_cli(capsys, "sweep", *argv, "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == size
    monkeypatch.setattr(cli, "MAX_SWEEP_RECORDS", size - 1)
    code, out, err = run_cli(capsys, "sweep", *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert "MAX_SWEEP_RECORDS" in err


def test_reduce_straight_file(capsys, tmp_path):
    from twotree import straight_2tree

    path = tmp_path / "straight.txt"
    path.write_text(straight_2tree(6).to_text(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "reduce", "file", str(path), "--format", "json")
    assert code == 0
    record = json.loads(out.strip())
    assert record["family"] == "straight"
    assert record["exact"] == "15/11"


def test_reduce_non_unit_weights_rejected(capsys, tmp_path):
    path = tmp_path / "weighted.txt"
    path.write_text("3 3\n1 2 1/2\n1 3 1/1\n2 3 1/1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "reduce", "file", str(path))
    assert code == 2
    assert "unit-weight" in err


def test_reduce_disconnected_file_rejected(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("4 2\n1 2 1/1\n3 4 1/1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "reduce", "file", str(path))
    assert code == 2
    assert "disconnected" in err


def test_reduce_unsupported_topology_rejected(capsys, tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("4 4\n1 2 1/1\n2 3 1/1\n3 4 1/1\n1 4 1/1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "reduce", "file", str(path))
    assert code == 2
    assert "unsupported topology" in err


def test_digits_flag(capsys):
    code, out, _ = run_cli(
        capsys, "resistance", "straight", "--n", "3", "--digits", "4", "--format", "json"
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["decimal"] == "0.6667"


def test_bad_digits_are_refused_before_any_record(capsys, monkeypatch):
    def no_records(*args):
        pytest.fail("a record was computed for --digits 0")

    monkeypatch.setattr(cli, "build_record", no_records)
    monkeypatch.setattr(cli, "reduce_bent", no_records)
    for argv in (
        ("resistance", "bent", "--n", "3000", "--k", "1500", "--digits", "0"),
        ("sweep", "straight", "--n", "3:5", "--digits", "-1"),
        ("reduce", "bent", "8", "4", "--digits", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "digits must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resistance", "bent", "--n", "8", "--k", "4"),
        ("sweep", "bent", "--n", "6:8", "--k-policy", "center"),
    ],
)
def test_disagreeing_routes_exit_1(capsys, monkeypatch, argv):
    monkeypatch.setattr("twotree.cli.reduce_bent", lambda n, k: (Fraction(1), None))
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(r["agree"] is False for r in records)
    assert all(r["methods"]["engine"] == "1/1" for r in records)
    assert "disagree" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resistance", "bent", "--n", "8", "--k", "4"),
        ("sweep", "bent", "--n", "6:8"),
        ("reduce", "bent", "8", "4"),
    ],
)
def test_engine_invariant_failure_exits_1(capsys, monkeypatch, argv):
    def broken(n, k):
        raise ReductionError("tail bookkeeping disagrees with the collapsed circuit")

    monkeypatch.setattr("twotree.cli.reduce_bent", broken)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "tail bookkeeping disagrees" in err


@pytest.mark.parametrize(
    "family,make_chain,argv,methods,builds",
    [
        ("bent", "bent_2tree", ("--n", "8", "--k", "4"), "all", 1),
        ("bent", "bent_2tree", ("--n", "8", "--k", "4"), "default", 0),
        ("straight", "straight_2tree", ("--n", "9", "--i", "2", "--j", "5"), "all", 1),
        ("straight", "straight_2tree", ("--n", "9", "--i", "2", "--j", "5"), "default", 1),
    ],
)
def test_oracles_share_one_chain(capsys, monkeypatch, family, make_chain, argv, methods, builds):
    made = []
    real = getattr(cli, make_chain)
    monkeypatch.setattr(cli, make_chain, lambda *a: made.append(a) or real(*a))
    code, out, _ = run_cli(capsys, "resistance", family, *argv, "--methods", methods, "--format", "json")
    assert code == 0
    assert json.loads(out)["agree"] is True
    assert len(made) == builds


def test_oversized_exact_request_is_usage_error(capsys):
    for method in ("exact", "float"):
        code, out, err = run_cli(
            capsys, "resistance", "straight", "--n", "2001", "--i", "2", "--j", "9", "--methods", method
        )
        assert code == 2
        assert out == ""
        assert "guarded at n <= 2000" in err


# Runs in a fresh interpreter, since this test session has already loaded numpy.
# After each step it records the exit code, the stdout and whether numpy is loaded.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import twotree
from twotree.cli import main

steps = [("import", None, "numpy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    steps.append((argv, code, "numpy" in sys.modules, out.getvalue()))
print(json.dumps(steps))
"""


def test_numpy_loads_only_for_the_float_oracle():
    argvs = [
        ["resistance", "bent", "--n", "8", "--k", "4", "--format", "json"],
        ["resistance", "straight", "--n", "12", "--i", "2", "--j", "9", "--format", "json"],
        ["reduce", "bent", "8", "4"],
        ["resistance", "straight", "--n", "2001", "--i", "2", "--j", "9", "--methods", "float"],
        ["resistance", "bent", "--n", "8", "--k", "4", "--methods", "all", "--format", "json"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported, default_bent, interior, reduce_, refused, everything = json.loads(proc.stdout)
    assert imported[2] is False
    for _, code, numpy_loaded, _ in (default_bent, interior, reduce_):
        assert code == 0
        assert numpy_loaded is False
    assert "exact" in json.loads(interior[3])["methods"]
    assert refused[1:3] == [2, False]
    _, code, numpy_loaded, out = everything
    assert code == 0
    assert numpy_loaded is True
    record = json.loads(out)
    assert "float" in record["methods"] and record["agree"] is True
