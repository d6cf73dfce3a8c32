"""One fresh benchmark process: set up, run ops, check them, report JSON.

    worker.py run WORKLOAD SEED SECONDS MODE [SPANS_PATH]
    worker.py cli-traced ARGS...

MODE is `setup` (import and generate inputs, then stop), `timed` (run ops
for SECONDS), `fixed` (run the first round of ops untraced) or `traced` (the
same round under the tracer).  The last line on stdout is the JSON report.
`cli-traced` runs one traced `twotree.cli` invocation; its trace goes to
stderr after a marker line, for the parent worker to merge.

The worker is a fresh process, so twotree's module caches (the sequence
tables and the tail-sum memo) start cold, as they do for a CLI user.  It
pins itself to one core and samples calibrate.py's kernel around the ops,
so the parent can normalise their times.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import platform
import resource
import sys
import time
from array import array

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_MARKER = "BENCH-TRACE "
FAILURE_SAMPLES = 5
PREDRAWN_ROUNDS = 4


def import_twotree():
    """Import `twotree.cli` from this checkout's `src/`; return (modules, seconds)."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    cli = importlib.import_module("twotree.cli")
    import_s = time.perf_counter() - t0
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"twotree was imported from {here}, not from {SRC}")
    return cli, importlib.import_module("twotree.identities"), import_s


def cli_traced(argv) -> int:
    import tracing

    cli, _, import_s = import_twotree()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        exported = tracer.export()
        exported["import_s"] = import_s
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(exported) + "\n")
    return code


def _split_trace(stderr: str):
    head, marker, tail = stderr.rpartition(TRACE_MARKER)
    if not marker:
        return stderr, None
    return head, json.loads(tail)


def run(workload_name: str, seed: int, seconds: float, mode: str, spans_path=None) -> dict:
    import tracing
    import workloads

    calibrate.pin_to_one_core()
    start_sample = calibrate.sample()
    start = time.perf_counter()
    cli, identities, import_s = import_twotree()
    workload = workloads.make(workload_name, identities)
    stream = workload.ops(seed)
    # The first rounds are drawn up front, so input generation counts as
    # set-up; a timed run that gets through them draws more between ops.
    rounds = PREDRAWN_ROUNDS if mode == "timed" else 1
    ops = list(itertools.islice(stream, workload.round_length() * rounds))
    if mode == "timed":
        ops = itertools.chain(ops, stream)
    setup_s = time.perf_counter() - start
    report = {
        "setup_s": setup_s,
        "setup_norm_s": calibrate.scale(setup_s, start_sample, calibrate.sample()),
        "import_s": import_s,
        "round_length": workload.round_length(),
    }
    if mode == "setup":
        return report

    traced = mode == "traced"
    tracer = tracing.Tracer() if traced else None
    if traced:
        tracer.install()
    # Outputs are checked right after each op, outside its timed span, so the
    # worker holds no outputs and its peak memory does not grow with op count.
    op_s, items, op_sample = array("d"), array("q"), array("q")
    failures, sub_imports = [], []
    samples = [calibrate.sample()]
    sampled_at = loop_start = time.perf_counter()
    deadline = loop_start + seconds
    for index, op in enumerate(ops):
        if traced:
            tracer.op = index
        if time.perf_counter() - sampled_at >= calibrate.EVERY_S:
            samples.append(calibrate.sample())
            sampled_at = time.perf_counter()
        op_sample.append(len(samples) - 1)
        t0 = time.perf_counter()
        try:
            output = workloads.run_op(workload, op, cli, identities, ROOT, traced)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            output = exc
        t1 = time.perf_counter()
        op_s.append(t1 - t0)
        if traced and workload.fresh_process and not isinstance(output, Exception):
            stderr, exported = _split_trace(output[2])
            output = (output[0], output[1], stderr)
            if exported is not None:
                sub_imports.append(exported.pop("import_s"))
                tracer.merge(exported, index)
        try:
            if isinstance(output, Exception):
                raise workloads.OpFailure(f"{type(output).__name__}: {output}")
            items.append(workload.check(op, output))
        except Exception as exc:
            items.append(0)
            failures.append(f"op {index} {op}: {type(exc).__name__}: {exc}")
        if mode == "timed" and t1 >= deadline:
            break
    loop_s = time.perf_counter() - loop_start
    samples.append(calibrate.sample())
    if traced:
        tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if workload.fresh_process else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    report.update(
        {
            "op_s": list(op_s),
            "op_norm_s": [calibrate.scale(t, samples[k], samples[k + 1]) for t, k in zip(op_s, op_sample)],
            "kernel_s": samples,
            "items": list(items),
            "failed": len(failures),
            "failures": failures[:FAILURE_SAMPLES],
            "loop_s": loop_s,
            "peak_rss_mb": peak_rss_mb,
            "python": platform.python_version(),
            "numpy": getattr(sys.modules.get("numpy"), "__version__", "not imported"),
        }
    )
    if traced:
        if sub_imports:
            sub_imports.sort()
            report["import_s"] = sub_imports[len(sub_imports) // 2]
        catalogue = [e.id for e in identities.REGISTRY.values() if e.in_run_all]
        report["layers"] = {k: list(v) for k, v in tracer.layer_metrics(catalogue).items()}
        report["spans"] = len(tracer.spans)
        report["spans_dropped"] = tracer.spans_dropped
        if spans_path:
            tracer.write_spans(spans_path)
    return report


def main(argv) -> int:
    if argv and argv[0] == "cli-traced":
        return cli_traced(argv[1:])
    if len(argv) not in (5, 6) or argv[0] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    report = run(argv[1], int(argv[2]), float(argv[3]), argv[4], argv[5] if len(argv) > 5 else None)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
