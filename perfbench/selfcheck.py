#!/usr/bin/env python3
"""Self-check of the benchmark on tiny inputs, in a few seconds.

Runs all three workloads untraced and traced (twice, to show that the
traced counts repeat), checks that every metric declared in
BENCHMARK.json is reported, and feeds one deliberately wrong expected
value to show that the run reports it as failed.  Exits 0 when all of
this holds.

    python3 perfbench/selfcheck.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, WORKLOADS, run_workload  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        untraced = run_workload(name, seed=1, seconds=0.1, trace=0, tiny=True)
        traced = [run_workload(name, seed=1, seconds=0.1, trace=1, tiny=True)
                  for _ in range(2)]
        for rec in (untraced, *traced):
            if rec["failed"]:
                problems.append(f"{name}: {rec['failures']}")
            missing = declared[rec["trace"]] - set(rec["metrics"])
            if missing:
                problems.append(f"{name} trace {rec['trace']}: no {sorted(missing)}")
        counts = [{k: v["value"] for k, v in rec["metrics"].items()
                   if v["unit"] == "count"} for rec in traced]
        if counts[0] != counts[1]:
            problems.append(f"{name}: traced counts differ {counts}")
        print(f"{name}: {untraced['attempted']} ops untraced, "
              f"{traced[0]['span_count']} spans traced, counts repeat: "
              f"{counts[0] == counts[1]}")

    def wrong_expectation(rounds):
        rounds[0][0].expect += 1  # circle(3): claim minimum 2 instead of 1

    rec = run_workload("exhaustive", seed=1, seconds=0.1, trace=0, tiny=True,
                       tamper=wrong_expectation)
    runs = rec["op_counts"]["circle(3) Q"]
    if rec["failed"] != runs or rec["failed_ratio"] <= 0:
        problems.append(f"wrong expected value not reported: {rec['failures']}")
    print(f"wrong expected value: {rec['failed']} of {rec['attempted']} ops "
          f"failed, first: {rec['failures'][:1]}")

    for line in problems:
        print(f"PROBLEM {line}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
