#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, summarised in one file.

Exports the parent revision with ``git archive`` into a temporary
directory, byte-compiles ``src`` in both trees (a fresh import reads
matching ``.pyc`` files on both sides, so ``setup_s`` compares like with
like), then runs ``perfbench/run.py`` once per side for each seed, the
side that goes first alternating from pair to pair.  The change is this
checkout as it stands.  Writes ``BENCH_<short-sha>.json`` (the short SHA
of this checkout's HEAD) to the repository root: per workload, every
run's end-to-end metrics and ``op_tail_percentile``, and per metric the
median and quartiles of each side and the number of pairs the change won.
Pairs whose two sides took ``op_tail_s`` at different percentiles are
listed, since their tail values are not comparable.  With ``--trace``,
one traced run per side adds the per-layer metrics.

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


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The files of ``rev`` under ``dest`` (no git metadata)."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


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


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(pairs, end_to_end):
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        old = [p["parent"]["metrics"][name] for p in pairs]
        new = [p["change"]["metrics"][name] for p in pairs]
        higher = spec["better"] == "higher"
        wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        out[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent": {"median": omed, "q1": oq1, "q3": oq3},
            "change": {"median": nmed, "q1": nq1, "q3": nq3},
            "change_wins": wins, "pairs": len(pairs),
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
                    help="add one traced run per side and workload")
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
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
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
                    p["seed"] for p in pairs if p["parent"]["op_tail_percentile"]
                    != p["change"]["op_tail_percentile"]],
                "failed": sum(p[n]["failed"] for p in pairs for n in trees),
                "pairs": pairs}
            if args.trace:
                entry["trace"] = {
                    name: side(bench(tree, workload, args.seed0, seconds,
                                     True))
                    ["metrics"] for name, tree in trees.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / f"BENCH_{change_sha[:7]}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
