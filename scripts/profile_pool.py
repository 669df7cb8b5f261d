#!/usr/bin/env python3
"""Where a benchmark workload's time goes: cProfile over its seed-1 pool.

Builds the workload's seed-1 pool with this checkout's ``perfbench/`` into
a temporary directory, as ``scripts/output_digest.py`` does, runs every op
of every round once under cProfile and prints the op count, the wall time
of that pass and the top N functions by self time, with their cumulative
time and call count.  ``--tiny`` profiles the benchmark's tiny self-check
pool instead, and ``--label PREFIX`` only the ops whose label starts with
PREFIX (such as ``'<a|a^3>'``); when no label does, it exits 2 and lists
the pool's labels.  cProfile charges every Python call, so the wall time
is above an unprofiled run's; compare shares, not seconds.

Usage: python3 scripts/profile_pool.py --workload NAME [--tiny] [--top N]
           [--label PREFIX]
"""
import argparse
import cProfile
import pstats
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def profile(ops):
    """(op count, wall seconds, pstats.Stats) of one profiled pass over
    ``ops``."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    for op in ops:
        op.call()
    profiler.disable()
    return len(ops), time.perf_counter() - t0, pstats.Stats(profiler)


def where(filename: str, line: int, name: str) -> str:
    """A function as ``path:line(name)``, the path relative to ``src/``,
    the repository root or the standard library when it lies under one."""
    if filename == "~":  # a built-in
        return name
    path = Path(filename)
    for base in (ROOT / "src", ROOT, Path(sysconfig.get_paths()["stdlib"])):
        if path.is_relative_to(base):
            path = path.relative_to(base)
            break
    return f"{path}:{line}({name})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--tiny", action="store_true",
                    help="profile the tiny self-check pool")
    ap.add_argument("--top", type=int, default=20,
                    help="functions to list (default: 20)")
    ap.add_argument("--label", metavar="PREFIX", default="",
                    help="profile only the ops whose label starts with "
                         "PREFIX")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="profile-") as work:
        rounds = run.setup(run.WORKLOADS[args.workload], SEED, args.tiny,
                           Path(work))
        pool = [op for ops in rounds for op in ops]
        ops = [op for op in pool if op.label.startswith(args.label)]
        if not ops:
            labels = ", ".join(dict.fromkeys(op.label for op in pool))
            ap.error(f"no op label starts with {args.label!r}; the "
                     f"pool's labels are: {labels}")
        count, wall, stats = profile(ops)
    print(f"{args.workload}: {count} ops in {wall:.3f} s under cProfile")
    print(f"{'self_s':>8} {'cum_s':>8} {'calls':>9}  function")
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][2])
    for (filename, line, name), (_, calls, self_s, cum_s, _) in \
            rows[:args.top]:
        print(f"{self_s:8.3f} {cum_s:8.3f} {calls:9d}  "
              f"{where(filename, line, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
