#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, summarised in one file.

Exports the parent revision with ``git archive`` into a temporary
directory, byte-compiles ``src`` in both trees (a fresh import reads
matching ``.pyc`` files on both sides, so ``setup_s`` compares like with
like), then runs ``perfbench/run.py`` once per side for each seed, the
side that goes first alternating from pair to pair.  The change is this
checkout as it stands.  Writes ``BENCH_<short-sha>.json`` (the short SHA
of this checkout's HEAD, with ``-dirty`` appended when ``src`` or
``perfbench`` has uncommitted changes) to the repository root: per
workload, every run's end-to-end metrics and ``op_tail_percentile``, and
per metric the median and quartiles of each side and the number of pairs
the change won.  Pairs whose two sides took ``op_tail_s`` at different
percentiles are listed and left out of the ``op_tail_s`` summary, since
their tail values are not comparable: a faster side finishes more ops,
which can move its tail from p90 to p99.
With ``--trace``, ``TRACE_RUNS`` traced runs per side on the first seed,
the side that goes first alternating, add the per-layer metrics: every
run, and per side the median of each metric.

The workloads and the length of each run are those of ``BENCHMARK.json``.

Usage: python3 scripts/bench_pairs.py --parent REV [--pairs N] [--seed0 N]
           [--trace] [--workdir DIR]
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# traced runs per side: a single one can be off by 2x in a layer
TRACE_RUNS = 3


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"git {' '.join(args)} failed")
    return proc.stdout.strip()


def export(rev, dest):
    """The files of ``rev`` under ``dest`` (no git metadata); exits with
    one line, before ``tar`` runs, when ``git archive`` fails."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def bench(tree, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run in ``tree``; returns its run record."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(int(trace))], cwd=tree, check=True,
                   capture_output=True)
    path = tree / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    return json.loads(path.read_text())


def side(record):
    return {"metrics": {k: m["value"] for k, m in record["metrics"].items()},
            "op_tail_percentile": record.get("op_tail_percentile"),
            "attempted": record["attempted"], "failed": record["failed"]}


def output_name(sha, dirty):
    """``BENCH_<short sha>.json``, marked ``-dirty`` for uncommitted code,
    so that such a run never takes a committed record's name."""
    return f"BENCH_{sha[:7]}{'-dirty' if dirty else ''}.json"


def alternating(i):
    """The order of the two sides in pair or traced run ``i``."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def trace_medians(runs):
    """Per side, the median of each per-layer metric over ``runs``."""
    return {name: {metric: statistics.median(run[name][metric]
                                             for run in runs)
                   for metric in runs[0][name]}
            for name in ("parent", "change")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def tail_mismatch(pair):
    """Whether the two sides of ``pair`` took ``op_tail_s`` at different
    percentiles."""
    return (pair["parent"]["op_tail_percentile"]
            != pair["change"]["op_tail_percentile"])


def summarise(pairs, end_to_end):
    """Per end-to-end metric, the quartiles of each side and the pairs the
    change won; ``op_tail_s`` only over the pairs whose sides took it at
    the same percentile, ``pairs_left_out`` counting the others."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        used = [p for p in pairs
                if name != "op_tail_s" or not tail_mismatch(p)]
        left_out = len(pairs) - len(used)
        if not used:
            out[name] = {"better": spec["better"], "bound": spec["bound"],
                         "pairs": 0, "pairs_left_out": left_out}
            continue
        old = [p["parent"]["metrics"][name] for p in used]
        new = [p["change"]["metrics"][name] for p in used]
        higher = spec["better"] == "higher"
        wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        out[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent": {"median": omed, "q1": oq1, "q3": oq3},
            "change": {"median": nmed, "q1": nq1, "q3": nq3},
            "change_wins": wins, "pairs": len(used),
            "pairs_left_out": left_out,
            "median_ratio": nmed / omed if omed else None,
            "median_gap_over_parent_iqr":
                abs(nmed - omed) / (oq3 - oq1) if oq3 > oq1 else None,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1001,
                    help="pair i runs seed seed0 + i on both sides")
    ap.add_argument("--trace", action="store_true",
                    help=f"add {TRACE_RUNS} traced runs per side and "
                         f"workload")
    ap.add_argument("--workdir", default=None,
                    help="where the parent tree is exported (a temp dir)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", args.parent)
    change_sha = git("rev-parse", "HEAD")
    work = Path(tempfile.mkdtemp(prefix="bench-parent-", dir=args.workdir))
    trees = {"parent": work, "change": ROOT}
    doc = {"parent": parent_sha, "change": change_sha,
           "change_dirty": bool(git("status", "--porcelain", "--", "src",
                                    "perfbench")),
           "python": sys.version.split()[0], "seconds": seconds,
           "workloads": {}}
    try:
        export(parent_sha, work)
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                           cwd=tree, check=True)
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = alternating(i)
                pair = {"seed": seed, "first": order[0]}
                for name in order:
                    pair[name] = side(bench(trees[name], workload, seed,
                                            seconds, False))
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{n} {pair[n]['metrics']['ops_per_s']:.4g} ops/s "
                    f"p{pair[n]['op_tail_percentile']}" for n in trees),
                    flush=True)
            entry = doc["workloads"][workload] = {
                "summary": summarise(pairs, spec["end_to_end"]),
                "tail_percentile_mismatch": [
                    p["seed"] for p in pairs if tail_mismatch(p)],
                "failed": sum(p[n]["failed"] for p in pairs for n in trees),
                "pairs": pairs}
            if args.trace:
                runs = []
                for i in range(TRACE_RUNS):
                    run = {"first": alternating(i)[0]}
                    for name in alternating(i):
                        run[name] = side(bench(trees[name], workload,
                                               args.seed0, seconds,
                                               True))["metrics"]
                    runs.append(run)
                entry["trace"] = {"seed": args.seed0, "runs": runs,
                                  "median": trace_medians(runs)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / output_name(change_sha, doc["change_dirty"])
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
