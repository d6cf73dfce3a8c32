"""End-to-end command-line behaviour, driven in-process."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from twotree import (
    REGISTRY,
    BentParams,
    ReductionError,
    bent_2tree,
    bent_resistance_alternating,
    bent_resistance_product,
    ratio_string,
)
import twotree.identities
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


def test_repeated_method_is_refused_before_any_route(capsys, monkeypatch):
    def no_route(*args):
        pytest.fail("a route ran for a repeated method")

    monkeypatch.setattr(cli, "reduce_bent", no_route)
    monkeypatch.setattr(cli, "bent_resistance_alternating", no_route)
    for argv in (
        ("resistance", "bent", "--n", "8", "--k", "4", "--methods", "engine,engine"),
        ("resistance", "bent", "--n", "8", "--k", "4", "--methods", "alternating, engine ,engine"),
        ("sweep", "bent", "--n", "6:8", "--methods", "alternating,alternating"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "listed twice" in err


def test_float_only_record_prints_n_a_as_text(capsys):
    argv = ("resistance", "bent", "--n", "8", "--k", "4", "--methods", "float")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "bent n=8 k=4 r(1,8) = n/a = n/a [float] agree=n/a\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    record = json.loads(out)
    assert (record["exact"], record["decimal"], record["agree"]) == (None, None, None)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert out.splitlines()[1].startswith("resistance,bent,8,4,1,8,,,float=")


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


def test_cli_profiles_are_the_catalogue_profiles():
    # cli repeats the tuple so that its parser does not load the catalogue.
    assert cli.PROFILES == twotree.identities.PROFILES


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


def test_costly_sweep_is_refused_before_any_record(capsys, monkeypatch):
    # Few records, but hours of work: 9995 engine runs at n = 10,000, or
    # 1995 records of every route at n = 2000.
    def no_records(*args):
        pytest.fail("a sweep over the cost budget computed a record")

    monkeypatch.setattr(cli, "build_record", no_records)
    for argv in (
        ("bent", "--n", "10000:10000", "--k-policy", "all"),
        ("bent", "--n", "2000:2000", "--k-policy", "all", "--methods", "all"),
        ("straight", "--n", "3:10000"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == ""
        assert "MAX_SWEEP_COST" in err


def test_cost_budget_admits_a_sweep_at_the_engine_guard(capsys, monkeypatch):
    # About 20 s when run, so the records are stubbed: only admission counts.
    built = []
    monkeypatch.setattr(cli, "build_record", lambda *args: built.append(args[2:4]) or {"agree": None})
    monkeypatch.setattr(cli, "emit_records", lambda records, fmt, out: None)
    code, _, err = run_cli(capsys, "sweep", "bent", "--n", "9990:10000", "--k-policy", "center")
    assert (code, err) == (0, "")
    assert built == [(n, n // 2) for n in range(9990, 10001)]


def test_fixed_sweep_past_every_bend_is_empty_at_once(capsys):
    # The bend fits no n of the range, so the sweep has no record; it must
    # not walk the 10^9 values of n to find that out.
    for k in ("2000000000", "1"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sweep", "bent", "--n", "6:1000000000", "--k-policy", "fixed", "--k", k
        )
        assert time.perf_counter() - start < 1, k
        assert (code, out, err) == (0, "", ""), k


def test_costly_query_is_refused_before_any_route(capsys, monkeypatch):
    # The formula sums j - i terms of n-bit integers for an interior pair:
    # hours of work at n = 200,000, refused like a costly sweep.
    def no_records(*args):
        pytest.fail("a query over the cost budget computed a record")

    monkeypatch.setattr(cli, "build_record", no_records)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "resistance", "straight", "--n", "200000", "--i", "2", "--j", "190000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "MAX_SWEEP_COST" in err


def test_cost_budget_admits_an_interior_query_of_seconds(capsys, monkeypatch):
    # About 9 s when run, so the record is stubbed: only admission counts.
    built = []
    monkeypatch.setattr(cli, "build_record", lambda *args: built.append(args[2:7]) or {"agree": None})
    monkeypatch.setattr(cli, "emit_records", lambda records, fmt, out: None)
    code, _, err = run_cli(capsys, "resistance", "straight", "--n", "20000", "--i", "2", "--j", "19000")
    assert (code, err) == (0, "")
    assert built == [(20000, None, 2, 19000, ["formula"])]


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


def test_reduce_file_past_the_engine_guard_is_refused_from_its_header(capsys, monkeypatch, tmp_path):
    # A 10-byte file announcing 10^9 vertices; the connectivity check would
    # build a dict over all of them before the engine refused the size.
    monkeypatch.setattr(cli.WeightedGraph, "is_connected", lambda self: pytest.fail("connectivity was checked"))
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "reduce", "file", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "the reduction engine is guarded at n <= 10000" in err


def test_digits_flag(capsys):
    code, out, _ = run_cli(
        capsys, "resistance", "straight", "--n", "3", "--digits", "4", "--format", "json"
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["decimal"] == "0.6667"
    code, out, _ = run_cli(
        capsys, "resistance", "straight", "--n", "3", "--digits", str(cli.MAX_DIGITS), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["decimal"] == "0." + "6" * (cli.MAX_DIGITS - 1) + "7"


def test_bad_digits_are_refused_before_any_record(capsys, monkeypatch):
    def no_records(*args):
        pytest.fail("a record was computed for a refused --digits")

    monkeypatch.setattr(cli, "build_record", no_records)
    monkeypatch.setattr(cli, "reduce_bent", no_records)
    too_many = str(cli.MAX_DIGITS + 1)
    for argv, message in (
        (("resistance", "bent", "--n", "3000", "--k", "1500", "--digits", "0"), "at least 1"),
        (("sweep", "straight", "--n", "3:5", "--digits", "-1"), "at least 1"),
        (("reduce", "bent", "8", "4", "--digits", "0"), "at least 1"),
        (("resistance", "bent", "--n", "8", "--k", "4", "--methods", "alternating", "--digits", "100000000"), "at most"),
        (("sweep", "straight", "--n", "3:5", "--digits", too_many), "at most"),
        (("reduce", "bent", "8", "4", "--digits", too_many), "at most"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "digits must be " + message in err


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


def test_oversized_engine_request_is_usage_error(capsys, monkeypatch):
    def no_chain(*args):
        pytest.fail("a chain was built past the engine guard")

    monkeypatch.setattr("twotree.reduction.bent_2tree", no_chain)
    monkeypatch.setattr("twotree.reduction.straight_2tree", no_chain)
    for argv in (
        ("resistance", "bent", "--n", "10001", "--k", "5000"),
        ("resistance", "straight", "--n", "10001"),
        ("reduce", "bent", "10001", "5000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "engine is guarded at n <= 10000, got n = 10001" in err
    code, out, _ = run_cli(
        capsys, "resistance", "bent", "--n", "10001", "--k", "5000", "--methods", "product", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["exact"] == ratio_string(bent_resistance_product(BentParams(10001, 5000)))


@pytest.mark.parametrize(
    "argv, closed_forms",
    [
        (("resistance", "bent", "--n", "20000", "--k", "10000"), "alternating,product"),
        (("resistance", "straight", "--n", "20000"), "formula"),
        (("sweep", "straight", "--n", "10001:10001"), "formula"),
    ],
)
def test_refused_default_query_names_methods(capsys, argv, closed_forms):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "engine is guarded at n <= 10000" in err
    assert f"--methods {closed_forms}" in err


def test_product_answers_past_the_int_digit_limit(capsys):
    # Its numerator and denominator have more than the 4300 digits that
    # str() of an int allows by default.
    code, out, _ = run_cli(
        capsys, "resistance", "bent", "--n", "30000", "--k", "15000", "--methods", "product", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["exact"] == ratio_string(bent_resistance_product(BentParams(30000, 15000)))
    assert len(record["exact"]) > 2 * 4300


def test_oversized_requests_are_refused_before_any_route(capsys):
    # Checked only after the routes ran, the alternating form or the smaller
    # sizes of a sweep would take seconds to minutes before the refusal.
    for argv in (
        ("resistance", "bent", "--n", "100000", "--k", "50000"),
        ("resistance", "straight", "--n", "100000"),
        ("resistance", "bent", "--n", "2001", "--k", "1000", "--methods", "alternating,exact"),
        ("sweep", "bent", "--n", "100000:100000", "--k-policy", "center"),
        ("sweep", "bent", "--n", "9990:10001", "--k-policy", "center"),
        ("sweep", "straight", "--n", "1990:2001", "--methods", "formula,float"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == ""
        assert "guarded at n <=" in err


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (("bent", "300", "120"), 894, "b8100c378e0758ffbd101cd273190cccbdb05914c600207b85a856e30ab2f0c0"),
        (("straight", "300"), 895, "18af516010941fbb477f58057200bdbdd67f3e80c1da042ab2c5cfcd3af9e061"),
    ],
)
def test_reduce_step_log_is_pinned(capsys, argv, lines, digest):
    code, out, _ = run_cli(capsys, "reduce", *argv, "--emit-log", "--format", "json")
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs in a fresh interpreter, since this test session has already loaded
# numpy and the identity catalogue.  After the import and after each command
# it records the exit code, which of the watched modules are loaded, and the
# stdout.
_IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "twotree.identities", "dataclasses", "inspect") if m in sys.modules]

import twotree
from twotree.cli import main

steps = [("import", None, loaded(), "")]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    steps.append((argv, code, loaded(), out.getvalue()))
print(json.dumps(steps))
"""


def _probe(argvs):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loads_only_for_the_float_oracle():
    imported, default_bent, interior, reduce_, refused, everything = _probe([
        ["resistance", "bent", "--n", "8", "--k", "4", "--format", "json"],
        ["resistance", "straight", "--n", "12", "--i", "2", "--j", "9", "--format", "json"],
        ["reduce", "bent", "8", "4"],
        ["resistance", "straight", "--n", "2001", "--i", "2", "--j", "9", "--methods", "float"],
        ["resistance", "bent", "--n", "8", "--k", "4", "--methods", "all", "--format", "json"],
    ])
    assert "numpy" not in imported[2]
    for _, code, loaded, _ in (default_bent, interior, reduce_):
        assert code == 0
        assert "numpy" not in loaded
    assert "exact" in json.loads(interior[3])["methods"]
    assert refused[1] == 2 and "numpy" not in refused[2]
    _, code, loaded, out = everything
    assert code == 0
    assert "numpy" in loaded
    record = json.loads(out)
    assert "float" in record["methods"] and record["agree"] is True


def test_queries_never_load_the_catalogue():
    # Only `verify` needs twotree.identities, and no value class is a
    # dataclass, so a query never pays for dataclasses and inspect either.
    *queries, verify = _probe([
        ["resistance", "bent", "--n", "8", "--k", "4"],
        ["resistance", "straight", "--n", "12"],
        ["resistance", "straight", "--n", "12", "--i", "2", "--j", "9"],
        ["sweep", "bent", "--n", "6:10"],
        ["reduce", "straight", "9", "--emit-log"],
        ["verify", "--profile", "small"],
    ])
    for argv, code, loaded, _ in queries:
        assert code in (None, 0), argv
        assert loaded == [], argv
    assert verify[1] == 0
    assert "twotree.identities" in verify[2]


def test_package_serves_the_catalogue_on_access():
    assert twotree.run_all is twotree.identities.run_all
    assert twotree.REGISTRY is twotree.identities.REGISTRY
    namespace = {}
    exec("from twotree import *", namespace)
    assert set(twotree.__all__) <= set(namespace)
    assert namespace["run_all"] is twotree.identities.run_all
    with pytest.raises(AttributeError, match="no_such_name"):
        twotree.no_such_name
