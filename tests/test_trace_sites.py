"""The benchmark's traced run wraps package attributes by name; keep them resolvable.

`bench/tracing.py` replaces functions at the module attributes their callers
look them up through.  A rename or deletion in the package would otherwise
show up only when the benchmark runs with `--trace 1`.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import twotree.cli
import twotree.reduction

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped_sites(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [site for _, names, _, _ in tracing.WRAPS for site in names]


def test_every_wrapped_site_resolves(monkeypatch):
    sites = _wrapped_sites(monkeypatch)
    assert "twotree.sequences:index_limit" in sites
    assert "twotree.reduction:series_combine" in sites
    assert "twotree.graphs:WeightedGraph.laplacian" in sites
    for site in sites:
        module_name, attr_path = site.split(":")
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), site


def test_engine_reaches_the_traced_sites(monkeypatch):
    # The tracer sees the engine's combinators and chain constructors only when
    # the engine looks them up through these module attributes.
    names = ("series_combine", "parallel_combine", "bent_2tree", "straight_2tree")
    calls = Counter()
    for name in names:
        real = getattr(twotree.reduction, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(twotree.reduction, name, counted)
    twotree.reduction.reduce_bent(12, 5)
    twotree.reduction.reduce_straight_state(12)
    assert all(calls[name] > 0 for name in names)


def test_cli_reaches_the_traced_sites(monkeypatch, capsys):
    # A route that bound its function when the module was imported would
    # bypass the wrapper the tracer sets on the module attribute.
    names = [site.split(":")[1] for site in _wrapped_sites(monkeypatch) if site.startswith("twotree.cli:")]
    assert "reduce_bent" in names
    calls = Counter()
    for name in names:
        real = getattr(twotree.cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(twotree.cli, name, counted)
    for argv in (
        ["resistance", "bent", "--n", "8", "--k", "4", "--methods", "all"],
        ["resistance", "straight", "--n", "12"],
        ["resistance", "straight", "--n", "12", "--i", "2", "--j", "9"],
    ):
        assert twotree.cli.main(argv) == 0
    capsys.readouterr()
    assert [name for name in names if not calls[name]] == []
