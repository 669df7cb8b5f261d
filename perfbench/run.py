#!/usr/bin/env python3
"""hcwr benchmark: one closed-loop workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze|exhaustive|anneal \
        --seed N --seconds S --trace 0|1

One client issues one library call at a time, single-threaded, with
``workers=1``.  With ``--trace 0`` the run sets up its seeded inputs,
runs whole rounds of ops until ``--seconds`` have passed, checks every
output and reports the end-to-end metrics, with timings in nominal
seconds (see ``speed.py``) and the raw wall-clock values beside them.
With ``--trace 1`` it runs
the first round once untraced and once with spans recorded around the
library's public functions, and reports the per-layer metrics.  A table
goes to stdout, followed by one JSON line; a run record (and, when
traced, the spans) is written to ``.bench_out/`` in the repository root.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from functools import partial
from math import ceil
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, round_rng  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_PERCENTILES = (50, 75, 90, 99, 99.9)
LIBRARY_MODULES = ("complexes", "generators", "homology", "morse", "scx",
                   "search")
SPREAD_NOTE = ("One exhaustive_min(torus(2,4), Q) call read 4.2-6.0 s wall "
               "(and CPU) in four back-to-back calls in one process on a "
               "2-core machine; nominal-second scaling (speed.py), whole "
               "rounds and median latencies absorb it.")

# (module, qualname, span name) of every wrapped library function.
TRACE_TARGETS = (
    ("scx", "read_scx", "scx.read"),
    ("complexes", "build_complex", "complexes.build"),
    ("complexes", "induced_subcomplex", "complexes.induced"),
    ("complexes", "connected_components", "complexes.components"),
    ("homology", "H1Calculator.__init__", "homology.precompute"),
    ("homology", "H1Calculator.image_rank_of_vertices", "homology.query"),
    ("homology", "Echelon.add", "homology.echelon"),
    ("morse", "validate_labeling", "morse.validate"),
    ("morse", "quotient_graph", "morse.quotient_graph"),
    ("morse", "hcwr_value", "morse.hcwr_value"),
    ("search", "exhaustive_min", "search.exhaustive"),
    ("search", "anneal_min", "search.anneal"),
)


class MissingSource(RuntimeError):
    """The checkout does not hold the library sources."""


def source_dir():
    src = ROOT / "src"
    if not (src / "hcwr" / "__init__.py").is_file():
        raise MissingSource(f"no hcwr package under {src}")
    return src


def import_library():
    """Fresh import of the package from ``src/`` (dropping earlier copies),
    as a namespace of its modules."""
    src = source_dir()
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "hcwr" or k.startswith("hcwr.")]:
        del sys.modules[name]
    importlib.import_module("hcwr")
    mods = {name: importlib.import_module(f"hcwr.{name}")
            for name in LIBRARY_MODULES}
    if not mods["complexes"].__file__.startswith(str(src)):
        raise MissingSource(f"hcwr was imported from outside {src}")
    return SimpleNamespace(**mods)


def setup(workload, seed, tiny, workdir):
    """One set-up: import the library and build every seeded input
    round of the pool."""
    m = import_library()
    return [workload.build(m, round_rng(seed, workload.name, r), workdir, r,
                           tiny)
            for r in range(1 if tiny else workload.pool_rounds)]


def run_ops(rounds, seconds=None, round_count=None, wrap=None,
            after_round=None):
    """Closed loop over whole rounds, cycling the pool, until ``seconds``
    have passed (at least one round) or ``round_count`` rounds ran.  The
    reference kernel is timed before the first op and after each op.
    Returns (wall seconds, [(op, latency, output, error)], kernel times)."""
    results = []
    clock = time.perf_counter
    t_start = clock()
    refs = [speed.time_reference()]
    r = 0
    while True:
        if round_count is not None and r == round_count:
            break
        if round_count is None and r and clock() - t_start >= seconds:
            break
        for op in rounds[r % len(rounds)]:
            call = op.call if wrap is None else wrap(op.call)
            t0 = clock()
            try:
                out, err = call(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            results.append((op, clock() - t0, out, err))
            refs.append(speed.time_reference())
        r += 1
        if after_round is not None:
            after_round()
    return clock() - t_start, results, refs


def check_result(op, out, err):
    """Failure message of one op (it raised or gave a wrong output), or None."""
    if err is None:
        try:
            err = op.check(op, out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    return None if err is None else f"{op.label}: {err}"


def tail_percentile(n):
    """Highest grid percentile with at least ten samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n - ceil(p / 100 * n) >= 10:
            best = p
    return best


def nearest_rank(sorted_values, p):
    return sorted_values[max(ceil(p / 100 * len(sorted_values)) - 1, 0)]


def layer_metrics(tracer, overhead_ratio):
    """Per-layer metrics from the traced spans.  Every ``_s`` metric is a
    self time: span durations minus their direct child spans."""
    spans = tracer.summary()
    counts = tracer.counts
    present = {name for *_, name in TRACE_TARGETS} - set(tracer.missing)
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0)

    for span, with_calls in (
            ("scx.read", True), ("complexes.build", False),
            ("complexes.induced", True), ("complexes.components", True),
            ("homology.precompute", True), ("homology.query", True),
            ("morse.validate", False), ("morse.quotient_graph", True),
            ("morse.hcwr_value", False)):
        if span in present:
            if with_calls:
                put(f"{span}_calls", calls(span), "count")
            put(f"{span}_s", self_s(span), "s")
    if "homology.query" in present:
        n = calls("homology.query")
        put("homology.query_repeat_ratio",
            1 - counts["query_distinct"] / n if n else 0.0, "ratio")
    if "homology.echelon" in present:
        n = calls("homology.echelon")
        put("homology.echelon_adds", n, "count")
        put("homology.echelon_s", self_s("homology.echelon"), "s")
        put("homology.echelon_growth_ratio",
            counts["echelon_grew"] / n if n else 0.0, "ratio")
    searches = [s for s in ("search.exhaustive", "search.anneal") if s in present]
    if searches:
        put("search.calls", sum(calls(s) for s in searches), "count")
        put("search.self_s", sum(self_s(s) for s in searches), "s")
    if "search.exhaustive" in present:
        put("search.leaves", counts["leaves"], "count")
    if "search.anneal" in present:
        put("search.moves", counts["moves"], "count")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out, spans


def trace_targets(tracer):
    hooks = {"homology.query": tracer.count_query,
             "homology.echelon": tracer.count_true("echelon_grew"),
             "search.exhaustive": tracer.count_visited("leaves"),
             "search.anneal": tracer.count_visited("moves")}
    return [(mod, qual, name, hooks.get(name))
            for mod, qual, name in TRACE_TARGETS]


def git_sha():
    """HEAD of the checkout's git metadata, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace, tiny=False, tamper=None):
    """Run one workload; returns the run record (metrics included).
    ``tamper(rounds)`` may alter the inputs after set-up (self-check)."""
    workload = WORKLOADS[name]
    source_dir()
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"inputs-{os.getpid()}"
    setup_times, setup_scales = [], []
    try:
        for _ in range(SETUP_REPEATS):
            rounds = None  # let the previous set-up's inputs go first
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            refs = [speed.time_reference() for _ in range(speed.WINDOW)]
            t0 = time.perf_counter()
            rounds = setup(workload, seed, tiny, workdir)
            setup_times.append(time.perf_counter() - t0)
            refs += [speed.time_reference() for _ in range(speed.WINDOW)]
            setup_scales.append(speed.scale(refs))
        if tamper is not None:
            tamper(rounds)
        record = {
            "workload": name, "why": workload.why, "seed": seed,
            "seconds": seconds, "trace": trace, "tiny": tiny,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "note": SPREAD_NOTE,
            "wall_setup_s_samples": setup_times,
            "setup_s_samples": [t * f for t, f in zip(setup_times, setup_scales)],
            "round": [{"op": op.label, "vertices": op.vertices}
                      for op in rounds[0]],
        }
        if trace:
            _traced_run(record, rounds, seed, out_dir)
        else:
            _timed_run(record, rounds, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def _op_counts(results):
    return dict(Counter(op.label for op, *_ in results))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_run(record, rounds, seconds):
    # Peak RSS is taken through set-up and the first round, which runs
    # every kind of op once.  Later rounds only add allocator
    # fragmentation, and their number depends on the machine's speed.
    rss = []

    def after_round():
        if not rss:
            rss.append(_peak_rss_mb())

    wall, results, refs = run_ops(rounds, seconds=seconds,
                                  after_round=after_round)
    failures = [msg for op, _, out, err in results
                if (msg := check_result(op, out, err)) is not None]
    raw = [lat for _, lat, _, _ in results]
    nominal = sorted(lat * f for lat, f in zip(raw, speed.local_scales(refs)))
    raw.sort()
    n = len(raw)
    p_tail = tail_percentile(n)
    p = p_tail if p_tail is not None else 100
    record.update(
        attempted=n, failed=len(failures), failures=failures[:20],
        op_counts=_op_counts(results), rounds=n // len(rounds[0]),
        op_tail_percentile=p_tail, op_samples=n,
        metrics={
            "setup_s": {"value": statistics.median(record["setup_s_samples"]),
                        "unit": "s"},
            "ops_per_s": {"value": n / sum(nominal), "unit": "1/s"},
            "op_p50_s": {"value": nearest_rank(nominal, 50), "unit": "s"},
            "op_tail_s": {"value": nearest_rank(nominal, p), "unit": "s"},
            "peak_rss_mb": {"value": rss[0], "unit": "MB"},
        },
        wall_clock={
            "setup_s": statistics.median(record["wall_setup_s_samples"]),
            "ops_per_s": n / wall,
            "op_p50_s": nearest_rank(raw, 50),
            "op_tail_s": nearest_rank(raw, p),
            "reference_kernel_median_s": statistics.median(refs),
        },
        process_peak_rss_mb=_peak_rss_mb(),
        failed_ratio=len(failures) / n)


def _traced_run(record, rounds, seed, out_dir):
    plain_wall, plain, _ = run_ops(rounds, round_count=1)
    tracer = Tracer()
    tracer.install("hcwr", trace_targets(tracer))
    try:
        traced_wall, traced, _ = run_ops(rounds, round_count=1,
                                         wrap=partial(tracer.wrap, "op"))
    finally:
        tracer.uninstall()
    failures = []
    for (op, _, out, err), (_, _, traced_out, traced_err) in zip(plain, traced):
        msgs = [msg for msg in (check_result(op, out, err),
                                check_result(op, traced_out, traced_err))
                if msg is not None]
        if not msgs and out != traced_out:
            msgs.append(f"{op.label}: traced output differs from untraced")
        failures += msgs
    metrics, spans = layer_metrics(tracer, traced_wall / plain_wall)
    spans_path = out_dir / f"{record['workload']}-seed{seed}.spans.tsv.gz"
    tracer.write_spans(spans_path)
    attempted = len(plain) + len(traced)
    record.update(
        attempted=attempted, failed=len(failures), failures=failures[:20],
        op_counts=_op_counts(traced), untraced_wall_s=plain_wall,
        traced_wall_s=traced_wall, missing_targets=tracer.missing,
        span_count=len(tracer.name_id), spans_file=spans_path.name,
        spans=spans, metrics=metrics, failed_ratio=len(failures) / attempted)


def _print_table(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  ops {record['attempted']}  "
          f"failed {record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<34} {record['failed_ratio']:>14.6g} ratio")
    for name, value in record.get("wall_clock", {}).items():
        unit = "1/s" if name == "ops_per_s" else "s"
        print(f"  {'wall_clock.' + name:<34} {value:>14.6g} {unit}")
    if record.get("op_tail_percentile") is not None:
        print(f"  op_tail_s is p{record['op_tail_percentile']:g} of "
              f"{record['op_samples']} ops")
    for line in record["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    path = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    _print_table(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
