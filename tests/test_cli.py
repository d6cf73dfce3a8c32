"""End-to-end command-line behaviour, driven in-process."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotree import (
    REGISTRY,
    BentParams,
    ReductionError,
    bent_2tree,
    bent_resistance_alternating,
    bent_resistance_product,
    ratio_string,
    reduce_straight_state,
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


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_reduce_step_log_is_json_lines_in_every_format(capsys, fmt):
    # The record comes first in the chosen format; the step log stays JSON lines.
    code, out, err = run_cli(capsys, "reduce", "bent", "8", "4", "--emit-log", "--format", fmt)
    assert (code, err) == (0, "")
    _, plain, _ = run_cli(capsys, "reduce", "bent", "8", "4", "--format", fmt)
    _, logged, _ = run_cli(capsys, "reduce", "bent", "8", "4", "--emit-log", "--format", "json")
    assert out.startswith(plain)
    assert "22/13" in plain and len(plain.splitlines()) == (2 if fmt == "csv" else 1)
    steps = out[len(plain):].splitlines()
    assert steps == logged.splitlines()[1:] and len(steps) > 5
    assert [json.loads(step)["index"] for step in steps] == list(range(1, len(steps) + 1))


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


@pytest.mark.parametrize("span", ["5:", ":5", "a:b", "5:6:7", "x"])
def test_malformed_sweep_span_is_a_usage_error(capsys, span):
    code, out, err = run_cli(capsys, "sweep", "bent", "--n", span)
    assert (code, out) == (2, "")
    assert err == f"error: bad range {span!r}; expected N or LO:HI\n"


def test_k_policy_applies_to_bent_sweeps_only(capsys):
    for policy in ("all", "center", "fixed"):
        code, out, err = run_cli(capsys, "sweep", "straight", "--n", "3:3", "--k-policy", policy)
        assert (code, out) == (2, ""), policy
        assert err == "error: --k-policy applies to the bent family only\n"
    # Without the option a bent sweep runs every bend, as with `all`.
    code, default, err = run_cli(capsys, "sweep", "bent", "--n", "6:9", "--format", "json")
    assert (code, err) == (0, "")
    code, every, err = run_cli(capsys, "sweep", "bent", "--n", "6:9", "--k-policy", "all", "--format", "json")
    assert (code, err) == (0, "")
    assert default == every and len(default.splitlines()) == 10


@pytest.mark.parametrize(
    "argv, methods",
    [
        (("bent", "--n", "8", "--k", "4"), ["alternating", "engine"]),
        (("straight", "--n", "8"), ["formula", "engine"]),
        (("straight", "--n", str(cli.ORACLE_DEFAULT_CUTOFF), "--i", "2", "--j", "150"), ["formula", "exact"]),
        (("straight", "--n", str(cli.ORACLE_DEFAULT_CUTOFF + 1), "--i", "2", "--j", "150"), ["formula"]),
        (("straight", "--n", str(cli.ORACLE_DEFAULT_CUTOFF + 1)), ["formula", "engine"]),
        (("straight", "--n", "12", "--i", "2", "--j", "9", "--methods", "all"), ["formula", "exact", "float"]),
    ],
)
def test_default_methods(capsys, argv, methods):
    code, out, err = run_cli(capsys, "resistance", *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert list(json.loads(out)["methods"]) == methods


# Routes priced at most this run on every drawn chain: about a third of a
# second each, so the engine to about 2400 vertices, `exact` to about 1400
# and `float` past 10^4.
ROUTE_PRICE_BOUND = 300_000_000


def _log_uniform(low, high=20_000):
    return st.floats(math.log(low), math.log(high)).map(lambda x: min(high, max(low, round(math.exp(x)))))


@st.composite
def _chain_queries(draw):
    """A bent (n, k) at its ends, or a straight (n, i, j), ends half the time."""
    if draw(st.booleans()):
        n = draw(_log_uniform(6))
        return "bent", n, draw(st.integers(3, n - 3)), 1, n
    n = draw(_log_uniform(3))
    if draw(st.booleans()):
        return "straight", n, None, 1, n
    i = draw(st.integers(1, n - 1))
    return "straight", n, None, i, draw(st.integers(i + 1, n))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(query=_chain_queries())
def test_every_route_within_its_price_agrees(query):
    family, n, k, i, j = query
    routes = cli._applicable_routes(family, (i, j) == (1, n))
    methods = [tag for tag, route in routes.items() if route.cost(n, k) <= ROUTE_PRICE_BOUND]
    record = cli.build_record("resistance", family, n, k, i, j, methods, 12)
    assert list(record["methods"]) == methods
    if len(methods) >= 2:
        assert record["agree"] is True, (query, methods)


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
    # Few records, but hours of work: 9995 engine runs at n = 10,000,
    # 1995 records of every route at n = 2000, or 1000 closed forms of 5 to
    # 30 s each at n = 10^6.
    def no_records(*args):
        pytest.fail("a sweep over the cost budget computed a record")

    monkeypatch.setattr(cli, "build_record", no_records)
    for argv in (
        ("bent", "--n", "10000:10000", "--k-policy", "all"),
        ("bent", "--n", "2000:2000", "--k-policy", "all", "--methods", "all"),
        ("straight", "--n", "3:10000"),
        ("bent", "--n", "999001:1000000", "--k-policy", "center", "--methods", "product"),
        ("bent", "--n", "999001:1000000", "--k-policy", "center", "--methods", "alternating"),
        ("straight", "--n", "999001:1000000", "--methods", "formula"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == ""
        assert "MAX_SWEEP_COST" in err


def test_cost_budget_admits_a_sweep_at_the_engine_guard(capsys, monkeypatch):
    # About 30 s when run, so the records are stubbed: only admission counts.
    built = []
    monkeypatch.setattr(cli, "build_record", lambda *args: built.append(args[2:4]) or {"agree": None})
    monkeypatch.setattr(cli, "emit_records", lambda records, fmt, out: None)
    code, _, err = run_cli(capsys, "sweep", "bent", "--n", "9990:10000", "--k-policy", "center")
    assert (code, err) == (0, "")
    assert built == [(n, n // 2) for n in range(9990, 10001)]


def test_engine_price_follows_the_bend(capsys, monkeypatch):
    # An edge bend costs the engine about three times a centred one at
    # n = 10,000, so the centred sweep above is admitted and this one is not.
    def no_records(*args):
        pytest.fail("a sweep over the cost budget computed a record")

    monkeypatch.setattr(cli, "build_record", no_records)
    code, out, err = run_cli(capsys, "sweep", "bent", "--n", "9990:10000", "--k-policy", "fixed", "--k", "4")
    assert (code, out) == (2, "")
    assert "MAX_SWEEP_COST" in err


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
    # A lower budget stands in, so that a failing check runs a query of
    # seconds, not minutes: a query is priced like a sweep of one record.
    def no_records(*args):
        pytest.fail("a query over the cost budget computed a record")

    monkeypatch.setattr(cli, "build_record", no_records)
    monkeypatch.setattr(cli, "MAX_SWEEP_COST", 10**9)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "resistance", "bent", "--n", "200000", "--k", "100000", "--methods", "alternating"
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "MAX_SWEEP_COST" in err


def test_work_past_the_float_range_is_refused(capsys):
    # A price of about 10^800 units overflows a float; it must still be
    # refused as a usage error, not crash the message that names it.
    n = str(10**400)
    for argv in (
        ("resistance", "bent", "--n", n, "--k", "5", "--methods", "product"),
        ("sweep", "straight", "--n", f"{n}:{n}"),
        ("reduce", "straight", n),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "units" in err and "MAX_SWEEP_COST" in err, argv


def test_closed_forms_answer_a_centred_bend_past_the_tables(capsys):
    # About 1 s: the alternating sum over 60,000 bend positions is closed.
    code, out, err = run_cli(
        capsys, "resistance", "bent", "--n", "120000", "--k", "60000", "--methods", "alternating,product",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["agree"] is True
    assert list(record["methods"]) == ["alternating", "product"]


def test_cost_budget_admits_an_interior_query_of_seconds(capsys, monkeypatch):
    # About 0.2 s when run; the record is stubbed, since only admission counts.
    built = []
    monkeypatch.setattr(cli, "build_record", lambda *args: built.append(args[2:7]) or {"agree": None})
    monkeypatch.setattr(cli, "emit_records", lambda records, fmt, out: None)
    code, _, err = run_cli(capsys, "resistance", "straight", "--n", "20000", "--i", "2", "--j", "19000")
    assert (code, err) == (0, "")
    assert built == [(20000, None, 2, 19000, ["formula"])]


def test_interior_pair_far_past_the_tables_answers(capsys):
    # The closed form is not symmetric in its indices, so the mirrored pair
    # r(i, j) = r(n + 1 - j, n + 1 - i) is a real check.
    records = []
    for i, j in ((2, 190000), (10001, 199999)):
        code, out, err = run_cli(
            capsys, "resistance", "straight", "--n", "200000", "--i", str(i), "--j", str(j), "--format", "json"
        )
        assert (code, err) == (0, "")
        records.append(json.loads(out))
    assert records[0]["methods"] == {"formula": records[0]["exact"]}
    assert records[0]["exact"] == records[1]["exact"]


def test_each_value_is_rendered_once(capsys, monkeypatch):
    rendered = []
    real = cli.ratio_string
    monkeypatch.setattr(cli, "ratio_string", lambda value: rendered.append(value) or real(value))
    code, out, _ = run_cli(capsys, "resistance", "straight", "--n", "12", "--methods", "formula,engine")
    assert code == 0
    assert rendered == [reduce_straight_state(12)[0]]
    assert out.startswith(f"straight n=12 r(1,12) = {real(rendered[0])} = ")


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
    assert "reduce on 1000000000 vertices (engine 1.3e+25) is about 1.3e+25 units of work, over MAX_SWEEP_COST" in err


def test_reduce_prices_its_step_log(capsys, monkeypatch):
    # The engine alone fits at n = 16,000 (about a minute, so it is stubbed);
    # the text of its step log, which grows as n^2, does not.
    monkeypatch.setattr(cli, "reduce_straight_state", lambda n, keep_log: (Fraction(1), None))
    code, out, err = run_cli(capsys, "reduce", "straight", "16000", "--emit-log")
    assert (code, out) == (2, "")
    assert "step log" in err and "MAX_SWEEP_COST" in err
    code, out, _ = run_cli(capsys, "reduce", "straight", "16000")
    assert code == 0 and out


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
    monkeypatch.setattr("twotree.cli.reduce_bent", lambda n, k, keep_log=True: (Fraction(1), None))
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
    def broken(n, k, keep_log=True):
        raise ReductionError("tail bookkeeping disagrees with the collapsed circuit")

    monkeypatch.setattr("twotree.cli.reduce_bent", broken)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "tail bookkeeping disagrees" in err


def test_only_reduce_keeps_the_engine_log(capsys, monkeypatch):
    # `resistance`, `sweep` and `reduce` without `--emit-log` read only the
    # engine's value; `reduce --emit-log` prints its log.
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append((name, kwargs.get("keep_log", True)))
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(cli, "reduce_bent", spy("bent", cli.reduce_bent))
    monkeypatch.setattr(cli, "reduce_straight_state", spy("straight", cli.reduce_straight_state))
    for argv, expected in (
        (("resistance", "bent", "--n", "8", "--k", "4", "--methods", "engine"), [("bent", False)]),
        (("sweep", "bent", "--n", "6:7", "--methods", "engine"), [("bent", False)] * 3),
        (("resistance", "straight", "--n", "8", "--methods", "engine"), [("straight", False)]),
        (("sweep", "straight", "--n", "3:4", "--methods", "all"), [("straight", False)] * 2),
        (("reduce", "bent", "8", "4"), [("bent", False)]),
        (("reduce", "straight", "8"), [("straight", False)]),
        (("reduce", "bent", "8", "4", "--emit-log"), [("bent", True)]),
        (("reduce", "straight", "8", "--emit-log"), [("straight", True)]),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        assert calls == expected, argv
        calls.clear()
    # The record is the same with or without the log printed after it.
    for argv in (("reduce", "bent", "8", "4", "--format", "json"), ("reduce", "straight", "8")):
        _, record, _ = run_cli(capsys, *argv)
        _, logged, _ = run_cli(capsys, *argv, "--emit-log")
        assert logged.startswith(record) and logged != record


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
    # The exact oracle's price grows as n^3 on a chain, though its shooting
    # does not; the float one's band solve grows as n.
    for method, n in (("exact", "20000"), ("float", "20000000")):
        code, out, err = run_cli(
            capsys, "resistance", "straight", "--n", n, "--i", "2", "--j", "9", "--methods", method
        )
        assert code == 2
        assert out == ""
        assert f"({method} " in err and "MAX_SWEEP_COST" in err


def test_oversized_engine_request_is_usage_error(capsys, monkeypatch):
    def no_chain(*args):
        pytest.fail("a chain was built for work over the bound")

    monkeypatch.setattr("twotree.reduction.bent_2tree", no_chain)
    monkeypatch.setattr("twotree.reduction.straight_2tree", no_chain)
    for argv in (
        ("resistance", "bent", "--n", "40001", "--k", "20000"),
        ("resistance", "straight", "--n", "20001"),
        ("reduce", "bent", "40001", "20000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "engine " in err and "MAX_SWEEP_COST" in err
    code, out, _ = run_cli(
        capsys, "resistance", "bent", "--n", "40001", "--k", "20000", "--methods", "product", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["exact"] == ratio_string(bent_resistance_product(BentParams(40001, 20000)))


@pytest.mark.parametrize(
    "argv, closed_forms",
    [
        (("resistance", "bent", "--n", "100000", "--k", "50000"), "alternating,product"),
        (("resistance", "straight", "--n", "20000"), "formula"),
        (("sweep", "straight", "--n", "20000:20000"), "formula"),
    ],
)
def test_refused_default_query_names_methods(capsys, argv, closed_forms):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "engine " in err and "MAX_SWEEP_COST" in err
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
        ("resistance", "bent", "--n", "20000", "--k", "10000", "--methods", "alternating,exact"),
        ("sweep", "bent", "--n", "100000:100000", "--k-policy", "center"),
        ("sweep", "bent", "--n", "19990:20001", "--k-policy", "center"),
        ("sweep", "straight", "--n", "19990:20001", "--methods", "formula,exact"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == ""
        assert "MAX_SWEEP_COST" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "bent", "--n", "6:9", "--methods", "all"),
        ("resistance", "straight", "--n", "12", "--i", "2", "--j", "9", "--methods", "all"),
        ("resistance", "bent", "--n", "8", "--k", "4", "--methods", "float"),
    ],
)
def test_json_records_and_csv_rows_share_one_layout(capsys, argv):
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    records = [json.loads(line) for line in json_out.splitlines()]
    header, *rows = csv.reader(io.StringIO(csv_out))
    assert header == list(cli.RECORD_FIELDS)

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, dict):
            return ";".join(f"{t}={v}" for t, v in value.items())
        return str(value)

    for record, row in zip(records, rows, strict=True):
        assert list(record) == header
        assert row == [cell(record[field]) for field in header]


@pytest.mark.parametrize(
    "fmt, lines, digest",
    [
        ("json", 28, "46682eb5f93fb8e5a913a57792f95718dfb0dd9b86b68e4043e403ec5afa4e84"),
        ("csv", 29, "3766757d90e45c0af5e1647d9e32d02276fed327e38b3d70893077b30d85c5d4"),
    ],
)
def test_sweep_records_are_pinned(capsys, fmt, lines, digest):
    code, out, _ = run_cli(capsys, "sweep", "bent", "--n", "6:12", "--methods", "all", "--format", fmt)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        # About 680 KB, written after the record; and a sweep's records of
        # about 220 KB, written by emit_records.  Both outgrow a pipe's buffer.
        ("reduce", "straight", "400", "--emit-log", "--format", "json"),
        ("sweep", "bent", "--n", "6:400", "--k-policy", "center", "--format", "json"),
    ],
)
def test_a_closed_stdout_exits_141_quietly(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "twotree.cli", *argv], env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        err = proc.stderr.read()
    assert first.startswith(b"{")
    assert code == 141, err.decode()
    assert err == b""


# Runs in a fresh interpreter, since this test session has already loaded
# the identity catalogue.  numpy is blocked first, so an import of it fails
# loudly.  After the import and after each command it records the exit code,
# which of the watched modules are loaded, and the stdout.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None

def loaded():
    watched = ("numpy", "twotree.identities", "dataclasses", "inspect")
    return [m for m in watched if sys.modules.get(m) is not None]

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


def test_no_command_loads_numpy():
    imported, default_bent, interior, reduce_, refused, everything = _probe([
        ["resistance", "bent", "--n", "8", "--k", "4", "--format", "json"],
        ["resistance", "straight", "--n", "12", "--i", "2", "--j", "9", "--format", "json"],
        ["reduce", "bent", "8", "4"],
        ["resistance", "straight", "--n", "20000000", "--i", "2", "--j", "9", "--methods", "float"],
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
    assert "numpy" not in loaded
    record = json.loads(out)
    assert "float" in record["methods"] and record["agree"] is True


# Runs each argv in turn in one fresh interpreter, so every call after the
# first is parsed by the parser the first one built; it prints each call's
# exit code, stdout and stderr.
_SHARED_PARSER_PROBE = """
import contextlib, io, json, sys
from twotree.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_calls_in_one_process_share_a_parser_and_answer_as_fresh_ones():
    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["resistance", "bent", "--n", "eight"],
        ["--help"],
        ["resistance", "bent", "--n", "8", "--k", "4", "--format", "json"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")

    def run(*args):
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = run("-c", _SHARED_PARSER_PROBE, json.dumps(argvs))
    assert code == 0, err
    shared = json.loads(out)
    assert [code for code, _, _ in shared] == [2, 0, 0]
    for argv, result in zip(argvs, shared):
        assert tuple(result) == run("-m", "twotree.cli", *argv), argv


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
    assert "twotree.identities" in verify[2] and "numpy" not in verify[2]


def test_package_serves_the_catalogue_on_access():
    assert twotree.run_all is twotree.identities.run_all
    assert twotree.REGISTRY is twotree.identities.REGISTRY
    namespace = {}
    exec("from twotree import *", namespace)
    assert set(twotree.__all__) <= set(namespace)
    assert namespace["run_all"] is twotree.identities.run_all
    with pytest.raises(AttributeError, match="no_such_name"):
        twotree.no_such_name
