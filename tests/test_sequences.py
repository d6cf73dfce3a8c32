"""Fibonacci and Lucas generators over signed indices."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from twotree import fib, identities, lucas, sequences
from twotree.sequences import _FILL_CUTOFF, ENV_CACHE_LIMIT, index_limit


def test_fib_examples():
    assert fib(10) == 55
    assert fib(0) == 0
    assert fib(-4) == -3


def test_lucas_examples():
    assert lucas(5) == 11
    assert lucas(1) == 1
    assert lucas(6) == 18
    assert lucas(0) == 2


def test_recurrences_hold():
    for n in range(2, 400):
        assert fib(n) == fib(n - 1) + fib(n - 2)
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_negative_index_rules():
    for r in range(0, 80):
        assert fib(-r) == (fib(r) if r % 2 == 1 else -fib(r))
        assert lucas(-r) == (lucas(r) if r % 2 == 0 else -lucas(r))
        assert fib(-r) + (-1) ** r * fib(r) == 0


def test_cross_identities():
    for n in range(1, 301):
        assert lucas(n) == fib(n + 1) + fib(n - 1)
        assert fib(2 * n) == lucas(n) * fib(n)


def test_large_index_magnitude():
    # F_500 has 105 digits; exactness at this size is the whole point.
    value = fib(500)
    assert len(str(value)) == 105
    assert value % 10 == 5


def test_million_index_supported():
    big = fib(10**6)
    # log2(phi) * 1e6 = 694241.6... bits
    assert abs(big.bit_length() - 694242) <= 2
    assert big == fib(10**6 - 1) + fib(10**6 - 2)


def test_doubling_and_table_routes_agree():
    # Split a large index across the table/doubling boundary and recombine
    # through the index-addition law, exercising both computation routes.
    m, k = 900, _FILL_CUTOFF - 1
    assert fib(m + k) == fib(m) * fib(k + 1) + fib(m - 1) * fib(k)
    assert lucas(m + k) * 2 == lucas(m) * lucas(k) + 5 * fib(m) * fib(k)


def test_rules_hold_across_the_table_cutoff():
    # 4 * cutoff + 3 takes two doubling steps, one of them from an odd index.
    for r in (*range(_FILL_CUTOFF - 1, _FILL_CUTOFF + 3), 4 * _FILL_CUTOFF + 3):
        assert fib(r) == fib(r - 1) + fib(r - 2)
        assert lucas(r) == lucas(r - 1) + lucas(r - 2)
        assert fib(-r) == fib(2 - r) - fib(1 - r)
        assert lucas(-r) == lucas(2 - r) - lucas(1 - r)
        assert fib(-r) == (fib(r) if r % 2 == 1 else -fib(r))
        assert lucas(-r) == (lucas(r) if r % 2 == 0 else -lucas(r))


def test_indices_past_the_cutoff_are_not_stored():
    fib(_FILL_CUTOFF)
    lucas(_FILL_CUTOFF)
    tracemalloc.start()
    try:
        for step in range(100):
            fib(_FILL_CUTOFF + 10 + 37 * step)
            lucas(-(_FILL_CUTOFF + 11 + 41 * step))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each value here is about 2 KB, so storing even a few per call would
    # retain hundreds of KB.
    assert retained < 64 * 1024


_COLD_QUERIES = """
import tracemalloc
from twotree import BentParams, bent_resistance_alternating, straight_pair_resistance
tracemalloc.start()
bent_resistance_alternating(BentParams(12400, 6200))
straight_pair_resistance(12398, 3, 9000)
print(tracemalloc.get_traced_memory()[0])
"""


def test_cold_queries_past_the_table_retain_nothing():
    # A fresh process, so that no earlier test has read these indices.  Both
    # queries read Lucas numbers near index 24,800; tables grown that far
    # would retain about 55 MB.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_QUERIES],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024


def test_identity_catalogue_stays_on_the_tables(monkeypatch):
    # Every index an identity reads is linear in its parameters, so the
    # largest |index| of a box is reached on the first or the last slice of
    # its first parameter.
    def past_the_table(r):
        raise AssertionError(f"index {r} is past the table")

    monkeypatch.setattr(sequences, "_fib_pair", past_the_table)
    monkeypatch.setattr(sequences, "_lucas_pair", past_the_table)
    for entry in identities.REGISTRY.values():
        if not entry.in_run_all:
            continue
        box = entry.ranges["deep"]
        first = entry.params[0]
        for end in box[first]:
            report = identities.check_identity(entry.id, ranges={**box, first: (end, end)})
            assert report.status == "pass", (entry.id, first, end)


def test_concurrent_readers_consistent():
    from concurrent.futures import ThreadPoolExecutor

    expected = {n: fib(n) for n in range(0, 50)}

    def worker(seed):
        out = {}
        for n in range(seed, 3000, 7):
            out[n] = fib(n)
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(8)))
    for out in results:
        for n, value in out.items():
            if n in expected:
                assert value == expected[n]
            assert value == fib(n)


def test_default_index_limit(monkeypatch):
    # Past the bound, fib and lucas refuse before any doubling starts.
    monkeypatch.delenv(ENV_CACHE_LIMIT, raising=False)
    assert index_limit() == 2_000_000

    def never(r):
        pytest.fail(f"index {r} was computed")

    monkeypatch.setattr(sequences, "_fib_pair", never)
    monkeypatch.setattr(sequences, "_lucas_pair", never)
    with pytest.raises(ValueError, match=r"^sequence index 2000001 is past TWO_TREE_CACHE_LIMIT = 2000000$"):
        fib(2_000_001)
    with pytest.raises(ValueError, match=r"^sequence index -2000001 is past TWO_TREE_CACHE_LIMIT = 2000000$"):
        lucas(-2_000_001)


def test_cache_limit_env(monkeypatch):
    monkeypatch.setenv(ENV_CACHE_LIMIT, "100")
    assert index_limit() == 100
    assert fib(100) > 0
    with pytest.raises(ValueError):
        fib(101)
    with pytest.raises(ValueError):
        lucas(-101)
    monkeypatch.setenv(ENV_CACHE_LIMIT, "bogus")
    with pytest.raises(ValueError):
        fib(5)
