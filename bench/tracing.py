"""Spans and counters recorded from outside twotree, for the traced run.

`Tracer.install()` replaces each public function at the module attribute its
callers look it up through (for example `twotree.formulas.fib`, which the
closed forms call, or `twotree.cli.reduce_bent`, which the CLI's method
table calls).  Nothing under `src/` is edited.  Each wrapper times its call,
attributes the time to the enclosing wrapped call so that self time is span
time minus child spans, and derives exact counters from the arguments and
the returned values (step log, box sizes, matrix order).

Hot leaves (`fib`, `lucas`, `index_limit`, the two circuit combinators) run
millions of times in a catalogue sweep; they are aggregated into counters and
their time into the parent's child time, but keep no span each.  Every other
call keeps a span (id, parent id, name, start, end, op) in memory until the
run writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from time import perf_counter


def _reduction_counters(tracer: "Tracer", args, kwargs, result, elapsed) -> None:
    _, state = result
    peak = tracer.counters["reduction.peak_bits"]
    for step in state.log:
        tracer.counters["reduction.steps." + step.kind] += 1
        for q in step.inputs + step.outputs:
            peak = max(peak, q.numerator.bit_length(), q.denominator.bit_length())
    tracer.counters["reduction.peak_bits"] = peak


def _exact_oracle_counters(tracer: "Tracer", args, kwargs, result, elapsed) -> None:
    order = args[0].n - 1  # the grounded Laplacian drops one row and column
    tracer.counters["resistance.exact_dense_ops"] += order**3


def _identity_counters(tracer: "Tracer", args, kwargs, result, elapsed) -> None:
    ranges = kwargs.get("ranges") or (args[1] if len(args) > 1 else None)
    if ranges is not None:
        tracer.counters["identities.points"] += math.prod(hi - lo + 1 for lo, hi in ranges.values())
    tracer.counters["identities." + result.identity_id.replace("/", "_") + ".s"] += elapsed


# (metric name, call sites as "module:attribute" or "module:Class.attribute",
#  leaf, counter hook run after the call with its cost kept out of the parents)
WRAPS = [
    ("cli.main", ["twotree.cli:main"], False, None),
    ("cli.build_record", ["twotree.cli:build_record"], False, None),
    ("cli.emit_records", ["twotree.cli:emit_records"], False, None),
    ("sequences.fib", ["twotree.formulas:fib", "twotree.identities:fib"], True, None),
    ("sequences.lucas", ["twotree.formulas:lucas", "twotree.identities:lucas"], True, None),
    ("sequences.index_limit", ["twotree.sequences:index_limit"], True, None),
    ("formulas.bent_resistance_alternating", ["twotree.cli:bent_resistance_alternating"], False, None),
    ("formulas.bent_resistance_product", ["twotree.cli:bent_resistance_product"], False, None),
    ("formulas.straight_pair_resistance", ["twotree.cli:straight_pair_resistance"], False, None),
    ("formulas.tail_sum", ["twotree.formulas:tail_sum", "twotree.identities:tail_sum"], False, None),
    ("reduction.reduce_bent", ["twotree.cli:reduce_bent"], False, _reduction_counters),
    ("reduction.reduce_straight_state", ["twotree.cli:reduce_straight_state"], False, _reduction_counters),
    ("rational.series_combine", ["twotree.reduction:series_combine"], True, None),
    ("rational.parallel_combine", ["twotree.reduction:parallel_combine"], True, None),
    ("rational.decimal_string", ["twotree.cli:decimal_string"], False, None),
    (
        "graphs.build",
        [
            "twotree.cli:bent_2tree",
            "twotree.cli:straight_2tree",
            "twotree.reduction:bent_2tree",
            "twotree.reduction:straight_2tree",
        ],
        False,
        None,
    ),
    ("graphs.laplacian", ["twotree.graphs:WeightedGraph.laplacian"], False, None),
    ("resistance.resistance_exact", ["twotree.cli:resistance_exact"], False, _exact_oracle_counters),
    ("resistance.resistance_float", ["twotree.cli:resistance_float"], False, None),
    ("identities.check_identity", ["twotree.identities:check_identity"], False, _identity_counters),
]

SEQUENCE_NAMES = ("sequences.fib", "sequences.lucas")
MAX_SPANS = 200_000  # beyond this, spans are counted as dropped


class Tracer:
    """Call stack, per-name totals, counters and spans of one process."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, start, child s, excluded s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, s, self_s, errors
        self.counters: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = None
        self._next_id = 0
        self._max_index = {name: -1 for name in SEQUENCE_NAMES}
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, leaf: bool, hook):
        stack, stats, spans = self.stack, self.stats, self.spans
        entry = stats[name]
        track_index = name in SEQUENCE_NAMES
        tracer = self

        def wrapped(*args, **kwargs):
            if track_index:
                tracer._count_index(name, args[0])
            tracer._next_id += 1
            span_id = tracer._next_id
            frame = [span_id, 0.0, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                entry[3] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                net = end - start - frame[3]
                entry[0] += 1
                entry[1] += net
                entry[2] += net - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += net
                    parent[3] += frame[3]
                if not leaf:
                    if len(spans) < MAX_SPANS:
                        # Leaves keep no span and never enclose a spanned
                        # call, so the innermost open frame is the parent.
                        spans.append((span_id, parent and parent[0], name, start, end, tracer.op))
                    else:
                        tracer.spans_dropped += 1
            if hook is not None:
                t0 = perf_counter()
                hook(tracer, args, kwargs, result, net)
                if parent is not None:
                    parent[3] += perf_counter() - t0
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def _count_index(self, name: str, index: int) -> None:
        r = abs(index)
        if r <= self._max_index[name]:
            self.counters[name + ".table_hits"] += 1
        else:
            self._max_index[name] = r

    def install(self) -> None:
        for name, sites, leaf, hook in WRAPS:
            for site in sites:
                module_name, attr_path = site.split(":")
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, leaf, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- export and merge ---------------------------------------------------

    def export(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "max_index": dict(self._max_index),
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def merge(self, exported: dict, op) -> None:
        """Fold in the export of another process (a traced CLI subprocess)."""
        for name, (calls, total, self_s, errors) in exported["stats"].items():
            entry = self.stats[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
            entry[3] += errors
        for key, value in exported["counters"].items():
            if key == "reduction.peak_bits":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for name, value in exported["max_index"].items():
            self._max_index[name] = max(self._max_index[name], value)
        base = self._next_id
        for span_id, parent_id, name, start, end, _ in exported["spans"]:
            if len(self.spans) >= MAX_SPANS:
                self.spans_dropped += 1
                continue
            self.spans.append(
                (base + span_id, None if parent_id is None else base + parent_id, name, start, end, op)
            )
        self._next_id = base + max((s[0] for s in exported["spans"]), default=0)
        self.spans_dropped += exported["spans_dropped"]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, name, start, end, op in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "name": name, "start": start, "end": end, "op": op}
                    )
                    + "\n"
                )

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self, identity_ids) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); untouched ones read 0."""
        out: dict[str, tuple[float, str]] = {}

        def stat(name, field):
            calls, total, self_s, errors = self.stats.get(name, (0, 0.0, 0.0, 0))
            return {"calls": calls, "s": total, "self_s": self_s, "errors": errors}[field]

        def put(name, field):
            unit = "count" if field in ("calls", "errors") else "s"
            out[f"{name}.{field}"] = (stat(name, field), unit)

        put("cli.main", "self_s")
        put("cli.build_record", "self_s")
        put("cli.emit_records", "s")
        for name in ("sequences.fib", "sequences.lucas", "sequences.index_limit"):
            put(name, "calls")
            put(name, "s")
        seq_calls = sum(stat(n, "calls") for n in SEQUENCE_NAMES)
        seq_hits = sum(self.counters.get(n + ".table_hits", 0) for n in SEQUENCE_NAMES)
        out["sequences.max_abs_index"] = (max(0, *self._max_index.values()), "index")
        out["sequences.table_hit_frac"] = (seq_hits / seq_calls if seq_calls else 0.0, "fraction")
        for name in (
            "formulas.bent_resistance_alternating",
            "formulas.bent_resistance_product",
            "formulas.straight_pair_resistance",
            "formulas.tail_sum",
            "reduction.reduce_bent",
            "reduction.reduce_straight_state",
            "resistance.resistance_exact",
            "resistance.resistance_float",
            "identities.check_identity",
        ):
            put(name, "calls")
            put(name, "self_s")
        for kind in ("delta_y", "series", "parallel", "prune"):
            out["reduction.steps." + kind] = (self.counters.get("reduction.steps." + kind, 0), "count")
        out["reduction.peak_bits"] = (self.counters.get("reduction.peak_bits", 0), "bits")
        for name in ("rational.series_combine", "rational.parallel_combine", "rational.decimal_string"):
            put(name, "calls")
            put(name, "s")
        for name in ("graphs.build", "graphs.laplacian"):
            put(name, "calls")
            put(name, "s")
        out["resistance.exact_dense_ops"] = (self.counters.get("resistance.exact_dense_ops", 0), "count")
        out["identities.points"] = (self.counters.get("identities.points", 0), "count")
        for identity_id in identity_ids:
            key = "identities." + identity_id.replace("/", "_") + ".s"
            out[key] = (self.counters.get(key, 0.0), "s")
        for name, _, _, _ in WRAPS:
            put(name, "errors")
        return out
