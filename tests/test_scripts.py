"""Smoke tests of the scripts under ``scripts/``, and the benchmark's
self-check, so that a library change the benchmark cannot run fails
here."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hcwr

ROOT = Path(__file__).resolve().parent.parent


def test_width_survey_prints_one_row_per_family():
    src = str(Path(hcwr.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "width_survey.py"),
         "--budget", "0"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.split()[0] == "complex" and set(rule) == {"-"}
    assert [row[:22].rstrip() for row in rows] == [
        "circle(3)", "circle(4)", "circle(5)", "circle(6)", "circle(8)",
        "torus(2,3)", "torus(2,4)", "torus(2,5)", "circle(4) x circle(4)",
        "<a | a^3>"]


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_marks_an_uncommitted_record():
    # names only: no benchmark is run
    bench_pairs = _script("bench_pairs")
    sha = "34f3a44c0ffee"
    assert bench_pairs.output_name(sha, False) == "BENCH_34f3a44.json"
    assert bench_pairs.output_name(sha, True) == "BENCH_34f3a44-dirty.json"


def test_bench_pairs_traced_runs_alternate_and_take_medians():
    bench_pairs = _script("bench_pairs")
    firsts = [bench_pairs.alternating(i)[0]
              for i in range(bench_pairs.TRACE_RUNS)]
    assert bench_pairs.TRACE_RUNS == 3
    assert firsts == ["parent", "change", "parent"]
    runs = [{"parent": {"query_s": p, "calls": 4},
             "change": {"query_s": c, "calls": 4}}
            for p, c in [(0.3, 0.1), (0.1, 0.9), (0.2, 0.2)]]
    assert bench_pairs.trace_medians(runs) == {
        "parent": {"query_s": 0.2, "calls": 4},
        "change": {"query_s": 0.2, "calls": 4}}


def test_benchmark_selfcheck_passes():
    # runs every workload on tiny inputs; writes only into .bench_out/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck passed"


def test_bench_pairs_leaves_mismatched_tails_out():
    # synthetic pairs: no benchmark is run
    bench_pairs = _script("bench_pairs")

    def pair(old, new, old_pct, new_pct):
        return {name: {"metrics": {"ops_per_s": ops, "op_tail_s": tail},
                       "op_tail_percentile": pct}
                for name, ops, tail, pct in (("parent", 10, old, old_pct),
                                             ("change", 12, new, new_pct))}

    # the change is faster at p90 against p90 and at p99 against p99, but
    # its third run finished enough ops to take p99 where the parent took
    # p90, and reads slower
    pairs = [pair(0.020, 0.015, 90, 90), pair(0.030, 0.025, 99, 99),
             pair(0.017, 0.019, 90, 99)]
    assert [bench_pairs.tail_mismatch(p) for p in pairs] == \
        [False, False, True]
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "op_tail_s", "better": "lower", "bound": 0.25}]
    summary = bench_pairs.summarise(pairs, end_to_end)
    assert summary["ops_per_s"]["pairs"] == 3
    assert summary["ops_per_s"]["pairs_left_out"] == 0
    assert summary["ops_per_s"]["change_wins"] == 3
    tail = summary["op_tail_s"]
    assert (tail["pairs"], tail["pairs_left_out"]) == (2, 1)
    assert tail["change_wins"] == 2
    assert tail["parent"]["median"] == pytest.approx(0.025)
    assert tail["change"]["median"] == pytest.approx(0.020)
    only_mismatched = bench_pairs.summarise(pairs[2:], end_to_end)
    assert only_mismatched["op_tail_s"] == {
        "better": "lower", "bound": 0.25, "pairs": 0, "pairs_left_out": 1}


def test_output_digest_is_stable_and_sees_a_changed_output():
    # two fresh processes digest the tiny pools alike
    runs = [subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"),
         "--tiny"], capture_output=True, text=True, timeout=300, cwd=ROOT)
        for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert [line.split()[0] for line in runs[0].stdout.splitlines()] == [
        "analyze", "exhaustive", "anneal"]
    # one op whose output changes changes the digest
    output_digest = _script("output_digest")

    def op(label, out):
        return SimpleNamespace(label=label, call=lambda: out)

    rounds = [[op("a", '{"max_rank": 1}'), op("b", '{"max_rank": 2}')]]
    changed = [[rounds[0][0], op("b", '{"max_rank": 3}')]]
    assert output_digest.digest(rounds) == output_digest.digest(rounds)
    assert output_digest.digest(rounds) != output_digest.digest(changed)


@pytest.mark.parametrize("workload", ["analyze", "exhaustive", "anneal"])
def test_profile_pool_lists_library_functions(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_pool.py"),
         "--workload", workload, "--tiny", "--top", "15"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    summary, header, *rows = proc.stdout.splitlines()
    assert summary.startswith(f"{workload}: ") and " ops in " in summary
    assert header.split() == ["self_s", "cum_s", "calls", "function"]
    assert 0 < len(rows) <= 15
    assert any(row.split()[3].startswith("hcwr/") for row in rows)


def test_profile_pool_profiles_the_ops_of_one_label():
    # the tiny exhaustive pool holds circle(3), circle(5) and torus(2,3)
    # ops; a prefix that no label starts with lists the labels instead
    script = [sys.executable, str(ROOT / "scripts" / "profile_pool.py"),
              "--workload", "exhaustive", "--tiny", "--top", "5"]
    runs = {label: subprocess.run(script + ["--label", label],
                                  capture_output=True, text=True,
                                  timeout=300, cwd=ROOT)
            for label in ("", "circle(", "torus(2,3) Q", "sphere")}
    counts = {}
    for label in ("", "circle(", "torus(2,3) Q"):
        assert runs[label].returncode == 0, runs[label].stderr
        summary = runs[label].stdout.splitlines()[0]
        counts[label] = int(re.fullmatch(r"exhaustive: (\d+) ops in .*",
                                         summary).group(1))
    assert counts[""] == counts["circle("] + counts["torus(2,3) Q"]
    assert 0 < counts["circle("] < counts[""]
    missing = runs["sphere"]
    assert missing.returncode == 2 and missing.stdout == ""
    assert ("no op label starts with 'sphere'; the pool's labels are: "
            "circle(3) Q, circle(5) Q, torus(2,3) Q") in missing.stderr


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs git history")
@pytest.mark.parametrize("workload", ["analyze", "exhaustive", "anneal"])
def test_ab_ops_times_head_against_itself(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), "--parent",
         "HEAD", "--workload", workload, "--tiny", "--reps", "2"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary, parent, change, ratio, *labels = proc.stdout.splitlines()
    assert summary.startswith(f"{workload}: ")
    assert summary.endswith(" ops, outputs match, best of 2 per op")
    times = [float(line.split()[1]) for line in (parent, change)]
    assert parent.split()[0] == "parent" and change.split()[0] == "change"
    assert all(t > 0 for t in times)
    assert float(ratio.split()[1]) == pytest.approx(times[0] / times[1],
                                                    rel=0.01)
    # one line per op label; its counts and sums add up to the totals
    rows = [re.fullmatch(r"(.+): (\d+) ops, parent ([\d.]+) s, change "
                         r"([\d.]+) s, parent/change ([\d.]+)", line)
            for line in labels]
    assert labels and all(rows)
    assert len({row[1] for row in rows}) == len(rows)
    assert sum(int(row[2]) for row in rows) == int(summary.split()[1])
    for side, total in enumerate(times):
        assert sum(float(row[3 + side]) for row in rows) == \
            pytest.approx(total, abs=1e-5 * len(rows))
    for row in rows:
        assert float(row[5]) == pytest.approx(
            float(row[3]) / float(row[4]), rel=0.01, abs=0.001)


def test_ab_ops_names_the_ops_whose_outputs_differ():
    ab_ops = _script("ab_ops")

    def op(label, out):
        return SimpleNamespace(label=label, call=lambda: out)

    ops = {"parent": [op("a", '{"max_rank": 1}'), op("b", '{"max_rank": 2}')],
           "change": [op("a", '{"max_rank": 1}'), op("b", '{"max_rank": 3}')]}
    assert ab_ops.mismatches(ops) == ["b"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs git history")
@pytest.mark.parametrize("script,args,message", [
    ("output_digest", [], "git archive nosuchrev failed"),
    ("ab_ops", ["--workload", "analyze", "--tiny"],
     "git archive nosuchrev failed"),
    ("bench_pairs", [], "git rev-parse nosuchrev failed")],
    ids=["output_digest", "ab_ops", "bench_pairs"])
def test_an_unknown_parent_exits_with_one_line(script, args, message):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), "--parent",
         "nosuchrev", *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode != 0
    assert message in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr
