#!/usr/bin/env python3
"""Op-by-op timing of one benchmark workload, a parent revision against
this checkout, in one process.

Exports the parent's files as ``scripts/bench_pairs.py`` does and imports
its ``src/hcwr`` and this checkout's under two package names
(``hcwr_parent``, ``hcwr_change``; the library's imports are relative).
Builds each side's seed-1 pool of the workload through this checkout's
``perfbench/workloads.py``, runs every op once on each side and exits 1
unless the outputs match op by op.  Then times each op ``--reps`` times
per side, the side that goes first alternating from run to run, and
prints each side's sum of per-op minima and the parent's sum over the
change's, then one line per op label, in pool order, with its op count,
each side's sum and their ratio, which shows which kinds of op moved.
Both sides share one interpreter, heap and clock, so a difference of a
few percent that run-to-run noise hides in ``perfbench/run.py`` pairs
shows here.  A tree timed against its own commit (``--parent HEAD`` in a
clean clone at 9bc9cf8, ``--reps 7``, three runs per workload, 2 vCPU,
CPython 3.11.7) read 0.993-1.009 on ``analyze``, 0.997-1.001 on
``exhaustive`` and 0.999-1.002 on ``anneal``, so a ratio within about 1%
of 1 is noise.  ``--tiny`` uses the benchmark's tiny self-check pool.

Usage: python3 scripts/ab_ops.py --parent REV --workload NAME [--reps N]
           [--tiny]
"""
import argparse
import importlib
import importlib.util
import shutil
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))
import run  # noqa: E402
from bench_pairs import alternating, export  # noqa: E402
from output_digest import output_text  # noqa: E402
from workloads import round_rng  # noqa: E402


def import_library(src: Path, name: str) -> SimpleNamespace:
    """The ``hcwr`` package under ``src``, imported as ``name``, as a
    namespace of its modules."""
    spec = importlib.util.spec_from_file_location(
        name, src / "hcwr" / "__init__.py",
        submodule_search_locations=[str(src / "hcwr")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in run.LIBRARY_MODULES})


def pool(m, workload, tiny: bool, workdir: Path) -> list:
    """Every op of the workload's seed-1 pool, built with the library
    ``m``, in order."""
    workdir.mkdir()
    return [op for r in range(1 if tiny else workload.pool_rounds)
            for op in workload.build(m, round_rng(SEED, workload.name, r),
                                     workdir, r, tiny)]


def mismatches(ops: dict) -> list:
    """Labels of the ops whose two sides give different outputs."""
    return [old.label for old, new in zip(ops["parent"], ops["change"])
            if output_text(old.call()) != output_text(new.call())]


def per_op_minima(ops: dict, reps: int) -> dict:
    """Side -> the least wall time of each op over ``reps`` runs."""
    clock = time.perf_counter
    best = {name: [float("inf")] * len(ops[name]) for name in ops}
    for i in range(len(ops["parent"])):
        for rep in range(reps):
            for name in alternating(rep + i):
                call = ops[name][i].call
                t0 = clock()
                call()
                best[name][i] = min(best[name][i], clock() - t0)
    return best


def by_label(ops: list, best: dict) -> dict:
    """Op label -> (op count, parent's sum, change's sum) of the per-op
    minima ``best``, labels in order of first appearance in ``ops``."""
    sums = {}
    for op, parent, change in zip(ops, best["parent"], best["change"]):
        count, p, c = sums.get(op.label, (0, 0.0, 0.0))
        sums[op.label] = (count + 1, p + parent, c + change)
    return sums


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--reps", type=int, default=5,
                    help="timed runs of each op per side (default: 5)")
    ap.add_argument("--tiny", action="store_true",
                    help="use the tiny self-check pool")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    workload = run.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix="ab-ops-"))
    try:
        (work / "parent").mkdir()
        export(args.parent, work / "parent")
        sources = {"parent": work / "parent" / "src", "change": ROOT / "src"}
        ops = {name: pool(import_library(src, f"hcwr_{name}"), workload,
                          args.tiny, work / f"pool-{name}")
               for name, src in sources.items()}
        bad = mismatches(ops)
        if bad:
            print(f"outputs differ on {len(bad)} of {len(ops['parent'])} "
                  f"ops, first {bad[0]!r}")
            return 1
        best = per_op_minima(ops, args.reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total = {name: sum(times) for name, times in best.items()}
    print(f"{args.workload}: {len(best['parent'])} ops, outputs match, "
          f"best of {args.reps} per op")
    for name in ("parent", "change"):
        print(f"{name:<7} {total[name]:.9f} s")
    print(f"parent/change {total['parent'] / total['change']:.3f}")
    for label, (count, parent, change) in by_label(ops["parent"],
                                                   best).items():
        print(f"{label}: {count} ops, parent {parent:.9f} s, change "
              f"{change:.9f} s, parent/change {parent / change:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
