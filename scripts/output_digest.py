#!/usr/bin/env python3
"""One SHA-256 per workload over every op output of the benchmark's pools.

Builds each workload's seed-1 pool with the ``perfbench/`` of a tree (this
checkout unless ``--tree`` names another) into a temporary directory, runs
every op of every round once and hashes, in order, each op's label and
output: the report JSON of an ``analyze`` op, the ``to_json()`` of a
search result.  Equal digests mean byte-identical outputs.  With
``--parent REV``, exports REV as ``scripts/bench_pairs.py`` does, digests
both trees, each in a process of its own, and exits 1 on any mismatch.
``--tiny`` digests the benchmark's tiny self-check pools instead.

Usage: python3 scripts/output_digest.py [--parent REV] [--tiny]
           [--tree DIR]
"""
import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def output_text(out) -> str:
    """An op output as text: the analyze JSON as is, a search result as
    its ``to_json()``."""
    return out if isinstance(out, str) else json.dumps(out.to_json(),
                                                       sort_keys=True)


def digest(rounds) -> str:
    """SHA-256 over one JSON line ``[label, output]`` per op, in order."""
    h = hashlib.sha256()
    for ops in rounds:
        for op in ops:
            line = json.dumps([op.label, output_text(op.call())])
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def tree_digests(tree: Path, tiny: bool) -> dict:
    """Workload name -> digest of its pool, built by ``tree``'s perfbench
    from ``tree``'s sources."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run
    with tempfile.TemporaryDirectory(prefix="digest-") as work:
        return {name: digest(run.setup(workload, SEED, tiny, Path(work)))
                for name, workload in run.WORKLOADS.items()}


def subprocess_digests(tree: Path, tiny: bool) -> dict:
    """``tree_digests`` of ``tree`` in a child interpreter, so that each
    tree imports its own library."""
    proc = subprocess.run(
        [sys.executable, __file__, "--tree", str(tree)]
        + ["--tiny"] * tiny, check=True, capture_output=True, text=True)
    return dict(line.split() for line in proc.stdout.splitlines())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--parent", help="git revision to compare against")
    group.add_argument("--tree", type=Path, default=ROOT,
                       help="the checkout to digest (default: this one)")
    ap.add_argument("--tiny", action="store_true",
                    help="digest the tiny self-check pools")
    args = ap.parse_args()
    if args.parent is None:
        for name, sha in tree_digests(args.tree.resolve(), args.tiny).items():
            print(f"{name} {sha}")
        return 0
    sys.path.insert(0, str(ROOT / "scripts"))
    from bench_pairs import export
    work = Path(tempfile.mkdtemp(prefix="digest-parent-"))
    try:
        export(args.parent, work)
        parent = subprocess_digests(work, args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    change = subprocess_digests(ROOT, args.tiny)
    mismatched = False
    for name in sorted(parent.keys() | change.keys()):
        old, new = parent.get(name), change.get(name)
        mismatched |= old != new
        print(f"{name:<10} parent {old}  change {new}  "
              f"{'match' if old == new else 'MISMATCH'}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
