"""End-to-end CLI runs through main(argv); exit codes 0/1/2."""
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hcwr
from hcwr import (FieldSpec, generate_circle, generate_torus, hcwr_value,
                  labeled_torus, presentation_complex, product_complex,
                  pullback_labeling, spread_wedge, tent_labeling, wedge)
from hcwr.cli import build_parser, main
from hcwr.complexes import MAX_FACES
from hcwr.generators import circle_tent_labeling, parse_relator
from hcwr.scx import read_scx, to_dict, write_scx


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# VmHWM, unlike getrusage's ru_maxrss, does not inherit the peak of the
# process that forked this one
_MEASURED = """import re, sys
from hcwr.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1], file=sys.stderr)
sys.exit(code)
"""


def run_measured(*argv):
    """(exit code, stderr, peak RSS in MB) of ``hcwr`` in a fresh process
    (Linux: the peak is read from ``/proc/self/status``)."""
    src = str(Path(hcwr.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _MEASURED, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    *lines, peak_kb = proc.stderr.splitlines()
    return proc.returncode, "\n".join(lines), int(peak_kb) / 1024


def test_generate_circle_to_file(tmp_path, capsys):
    out = tmp_path / "c8.scx"
    code, stdout, _ = run(capsys, "generate", "circle", "--m", "8",
                          "--labels", "tent", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["vertices"] == 8
    assert summary["betti1_q"] == 1
    L, meta = read_scx(out)
    assert L.labeling is not None
    assert meta["generator"] == "circle"


def test_generate_stdout_document(capsys):
    code, stdout, _ = run(capsys, "generate", "circle", "--m", "4")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["format"] == "scx-1" and doc["vertex_count"] == 4


def test_generate_bad_params_exit_2(capsys):
    code, _, stderr = run(capsys, "generate", "circle", "--m", "2")
    assert code == 2
    assert "error" in stderr
    code, _, _ = run(capsys, "generate", "torus", "--dim", "2")
    assert code == 2  # missing --res


def test_generate_torus_counts(tmp_path, capsys):
    out = tmp_path / "t2.scx"
    code, stdout, _ = run(capsys, "generate", "torus", "--dim", "2",
                          "--res", "4", "--labels", "tent", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["vertices"] == 16


def test_generate_presentation(capsys):
    code, stdout, _ = run(capsys, "generate", "presentation",
                          "--gens", "1", "--relator", "aaa")
    assert code == 0
    assert json.loads(stdout)["vertex_count"] == 13


@pytest.mark.parametrize("gens", ["1", "26", "200"])
def test_generate_presentation_refuses_a_non_ascii_letter(capsys, gens):
    code, stdout, stderr = run(capsys, "generate", "presentation",
                               "--gens", gens, "--relator", "ßß")
    assert code == 2 and stdout == ""
    assert stderr == "error: bad relator character 'ß'\n"


def _generated(tmp_path, capsys, name, *argv):
    """Path of the file ``hcwr generate *argv`` writes, and its summary."""
    out = tmp_path / f"{name}.scx"
    code, stdout, _ = run(capsys, "generate", *argv, "--out", str(out))
    assert code == 0
    return str(out), json.loads(stdout)


def _analyzed(capsys, path, *argv):
    code, stdout, _ = run(capsys, "analyze", path, *argv)
    assert code == 0
    return json.loads(stdout)


def test_generate_wedge_constant_matches_library(tmp_path, capsys):
    c4, _ = _generated(tmp_path, capsys, "c4", "circle", "--m", "4")
    c5, _ = _generated(tmp_path, capsys, "c5", "circle", "--m", "5")
    path, summary = _generated(tmp_path, capsys, "w", "wedge", "--in1", c4,
                               "--in2", c5, "--v2", "2", "--labels",
                               "constant")
    assert summary["betti1_q"] == 2 and summary["labels"] == [0] * 8
    L, meta = read_scx(path)
    assert meta == {"generator": "wedge"}
    assert to_dict(L.complex) == to_dict(
        wedge(generate_circle(4), 0, generate_circle(5), 2))
    assert _analyzed(capsys, path)["max_rank"] == 2


def test_generate_spread_wedge_of_tent_tori(tmp_path, capsys):
    t24, _ = _generated(tmp_path, capsys, "t24", "torus", "--dim", "2",
                        "--res", "4", "--labels", "tent")
    path, summary = _generated(tmp_path, capsys, "sw", "spread-wedge",
                               "--in1", t24, "--in2", t24, "--arc-len", "4")
    assert summary["betti1_q"] == 4
    L, _ = read_scx(path)
    library = spread_wedge(labeled_torus(2, 4), 0, labeled_torus(2, 4), 0, 4)
    assert to_dict(L.complex, L.labeling) == \
        to_dict(library.complex, library.labeling)
    assert _analyzed(capsys, path)["max_rank"] == 1


def test_generate_pullback_product_of_tent_circles(tmp_path, capsys):
    c4, _ = _generated(tmp_path, capsys, "c4", "circle", "--m", "4",
                       "--labels", "tent")
    path, summary = _generated(tmp_path, capsys, "p", "product", "--in1", c4,
                               "--in2", c4, "--labels", "pullback")
    assert summary["betti1_q"] == 2
    L, meta = read_scx(path)
    assert meta == {"generator": "product", "n2": 4}
    c = generate_circle(4)
    assert to_dict(L.complex, L.labeling) == to_dict(
        product_complex(c, c), pullback_labeling(circle_tent_labeling(4), 4))
    assert _analyzed(capsys, path)["max_rank"] == 1


def test_generate_pullback_needs_labeled_in1(tmp_path, capsys):
    c4, _ = _generated(tmp_path, capsys, "c4", "circle", "--m", "4")
    out = tmp_path / "p.scx"
    code, stdout, stderr = run(capsys, "generate", "product", "--in1", c4,
                               "--in2", c4, "--labels", "pullback",
                               "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: pullback labels need a labeled --in1\n"
    assert not out.exists()


def test_analyze_tent_of_circle_from_meta(tmp_path, capsys):
    path, _ = _generated(tmp_path, capsys, "c6", "circle", "--m", "6")
    rep = _analyzed(capsys, path, "--labels", "tent")
    library = hcwr_value(generate_circle(6), circle_tent_labeling(6),
                         FieldSpec.rationals())
    assert rep == json.loads(json.dumps(library.to_json()))
    assert rep["max_rank"] == 0


def test_analyze_tent_from_meta(tmp_path, capsys):
    out = tmp_path / "t2.scx"
    run(capsys, "generate", "torus", "--dim", "2", "--res", "4",
        "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out),
                          "--labels", "tent", "--field", "Q")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["max_rank"] == 1
    assert rep["qf"]["class"] == "circle"


def test_analyze_validates_file_labels_twice(tmp_path, capsys, monkeypatch):
    # once when the file is read, once when the quotient graph is built
    path = tmp_path / "t2.scx"
    run(capsys, "generate", "torus", "--dim", "2", "--res", "4",
        "--labels", "tent", "--out", str(path))
    original = hcwr.morse.validate_labeling
    calls = []

    def counted(K, f):
        calls.append(f)
        return original(K, f)

    for name, module in list(sys.modules.items()):
        if name.startswith("hcwr") and \
                getattr(module, "validate_labeling", None) is original:
            monkeypatch.setattr(module, "validate_labeling", counted)
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert len(calls) == 2


def test_analyze_missing_labels_exit_2(tmp_path, capsys):
    out = tmp_path / "c6.scx"
    run(capsys, "generate", "circle", "--m", "6", "--out", str(out))
    code, _, stderr = run(capsys, "analyze", str(out))
    assert code == 2
    assert "labels" in stderr


def test_analyze_constant_equals_betti1(tmp_path, capsys):
    out = tmp_path / "c5.scx"
    run(capsys, "generate", "circle", "--m", "5", "--out", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--labels", "constant")
    assert code == 0
    assert json.loads(stdout)["max_rank"] == 1


def test_analyze_bad_field_exit_2(tmp_path, capsys):
    out = tmp_path / "c5.scx"
    run(capsys, "generate", "circle", "--m", "5", "--out", str(out))
    for field in ("R", "Fp:561", "Fp:3317044064679887385961981"):
        code, stdout, stderr = run(capsys, "analyze", str(out),
                                   "--labels", "constant", "--field", field)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1


def test_analyze_field_of_5000_digits_exit_2(tmp_path, capsys):
    # int() refuses to read more than 4300 digits, and str() to print them
    out = tmp_path / "c5.scx"
    run(capsys, "generate", "circle", "--m", "5", "--out", str(out))
    code, stdout, stderr = run(capsys, "analyze", str(out), "--labels",
                               "constant", "--field", "F" + "7" * 5000)
    assert code == 2 and stdout == ""
    assert stderr == ("error: field size of 5000 digits is not below the "
                      "limit of 3317044064679887385961981\n")


def test_analyze_field_with_5000_leading_zeros(tmp_path, capsys):
    # only the significant digits are read, so int() sees "3", and all
    # zeros read as 0
    out = tmp_path / "c3.scx"
    run(capsys, "generate", "circle", "--m", "3", "--out", str(out))
    code, stdout, stderr = run(capsys, "analyze", str(out), "--labels",
                               "constant", "--field", "F" + "0" * 5000 + "3")
    assert code == 0 and stderr == ""
    assert json.loads(stdout)["field"] == "Fp:3"
    code, stdout, stderr = run(capsys, "analyze", str(out), "--labels",
                               "constant", "--field", "F" + "0" * 5000)
    assert code == 2 and stdout == ""
    assert stderr == "error: 0 is not prime\n"


@pytest.mark.parametrize("field", ["F", "Fp:", "Fx", "F3.0"])
def test_analyze_mistyped_field_names_the_field(tmp_path, capsys, field):
    out = tmp_path / "c5.scx"
    run(capsys, "generate", "circle", "--m", "5", "--out", str(out))
    code, stdout, stderr = run(capsys, "analyze", str(out),
                               "--labels", "constant", "--field", field)
    assert code == 2 and stdout == ""
    assert stderr == f"error: cannot parse field {field!r}\n"


def test_search_triangle(tmp_path, capsys):
    out = tmp_path / "tri.scx"
    run(capsys, "generate", "circle", "--m", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "search", str(out), "--mode", "exhaustive")
    assert code == 0
    res = json.loads(stdout)
    assert res["best_value"] == 1 and res["exhaustive"] is True


def test_analyze_reproduces_search_value(tmp_path, capsys):
    src = tmp_path / "c6.scx"
    run(capsys, "generate", "circle", "--m", "6", "--out", str(src))
    _, stdout, _ = run(capsys, "search", str(src), "--mode", "exhaustive")
    res = json.loads(stdout)
    L, _ = read_scx(src)
    labeled = tmp_path / "cert.scx"
    from hcwr.morse import MorseLabeling
    write_scx(labeled, L.complex, MorseLabeling(tuple(res["certificate"])))
    code, stdout, _ = run(capsys, "analyze", str(labeled))
    assert code == 0
    assert json.loads(stdout)["max_rank"] == res["best_value"]


def test_search_anneal_seeded(tmp_path, capsys):
    out = tmp_path / "c6.scx"
    run(capsys, "generate", "circle", "--m", "6", "--out", str(out))
    code, stdout, _ = run(capsys, "search", str(out), "--mode", "anneal",
                          "--seed", "7", "--steps", "3000",
                          "--restarts", "2")
    assert code == 0
    res = json.loads(stdout)
    assert res["best_value"] == 0 and res["seed"] == 7


def test_search_disconnected_exit_2(tmp_path, capsys):
    path = tmp_path / "two.scx"
    path.write_text(json.dumps({"format": "scx-1", "vertex_count": 4,
                                "maximal_simplices": [[0, 1], [2, 3]]}))
    code, _, _ = run(capsys, "search", str(path))
    assert code == 2


def test_verify_single_case(capsys):
    code, stdout, stderr = run(capsys, "verify", "--case",
                               "infinite-abelian-z")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["failures"] == 0
    assert summary["cases"][0]["status"] == "pass"
    assert re.fullmatch(r"infinite-abelian-z: pass \(\d+\.\d\ds\)\n", stderr)


def test_verify_budget_skips(capsys):
    code, stdout, _ = run(capsys, "verify", "--case", "abelian-f3-search",
                          "--budget-seconds", "0")
    assert code == 0
    assert json.loads(stdout)["cases"][0]["status"] == "skipped(budget)"


def test_verify_all_cases_pass(capsys):
    code, stdout, _ = run(capsys, "verify")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["failures"] == 0
    assert len(summary["cases"]) == 12
    assert {c["status"] for c in summary["cases"]} == {"pass"}


def test_verify_zero_budget_skips_only_searches(capsys):
    code, stdout, _ = run(capsys, "verify", "--budget-seconds", "0")
    assert code == 0
    status = {c["name"]: c["status"] for c in json.loads(stdout)["cases"]}
    searches = {"torus-lower-bound", "torus-2-5-lower-bound",
                "torus-2-6-lower-bound", "torus-k3-lower-bound",
                "free-width-zero", "infinite-abelian-z", "abelian-f3-search"}
    assert {n for n, s in status.items() if s == "skipped(budget)"} == searches
    assert {n for n, s in status.items() if s == "pass"} == \
        set(status) - searches
    assert len(status) == 12


def test_verify_unknown_case_exit_2(capsys):
    code, stdout, stderr = run(capsys, "verify", "--case", "torus-lowr-bound")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "torus-lower-bound" in stderr
    assert stderr.count("\n") == 1


def test_out_flag_writes_file(tmp_path, capsys):
    src = tmp_path / "c4.scx"
    run(capsys, "generate", "circle", "--m", "4", "--out", str(src))
    dst = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "analyze", str(src), "--labels", "constant",
                          "--out", str(dst))
    assert code == 0
    assert stdout == ""
    assert json.loads(dst.read_text())["max_rank"] == 1


CYCLE3 = {"format": "scx-1", "vertex_count": 3,
          "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}


def _without(key):
    return {k: v for k, v in CYCLE3.items() if k != key}


@pytest.mark.parametrize("doc, culprit", [
    ([CYCLE3], "object"),
    (_without("maximal_simplices"), "maximal_simplices"),
    (_without("vertex_count"), "vertex_count"),
    ({**CYCLE3, "maximal_simplices": [[0, "x"], [1, 2], [0, 2]]},
     "maximal_simplices"),
    ({**CYCLE3, "vertex_count": "3"}, "vertex_count"),
    ({**CYCLE3, "vertex_count": -2, "maximal_simplices": []}, "vertex_count"),
    ({**CYCLE3, "vertex_count": 1000000000}, "vertex_count"),
    ({**CYCLE3, "vertex_count": 30, "maximal_simplices": [list(range(30))]},
     "maximal_simplices"),
    ({**CYCLE3, "labels": [0, 0.5, 1]}, "labels"),
    ({**CYCLE3, "labels": [True, False, True]}, "labels"),
    ({**CYCLE3, "meta": []}, "meta"),
], ids=["list", "no-simplices", "no-vertex-count", "str-vertex",
        "str-vertex-count", "negative-vertex-count", "huge-vertex-count",
        "huge-simplex", "float-labels", "bool-labels", "list-meta"])
def test_malformed_scx_exit_2(tmp_path, capsys, doc, culprit):
    path = tmp_path / "bad.scx"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "analyze", str(path),
                               "--labels", "constant")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and culprit in stderr
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "{deep}"],
    ["generate", "product", "--in1", "{deep}", "--in2", "{deep}"],
], ids=["analyze", "generate-product"])
def test_deeply_nested_scx_exit_2(tmp_path, capsys, argv):
    # json.dumps cannot build a document this deep, so the text is raw;
    # json.load runs out of recursion depth on it
    path = tmp_path / "deep.scx"
    path.write_text("[" * 100000 + "]" * 100000)
    code, stdout, stderr = run(capsys, *[str(path) if a == "{deep}" else a
                                         for a in argv])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: SCX document is nested too deeply\n"


@pytest.mark.parametrize("meta, culprit", [
    ({"generator": "torus"}, "integer meta"),
    ({"generator": "circle"}, "integer meta"),
    ({"generator": "torus", "k": "2", "n": 4}, "integer meta"),
    ({"generator": "torus", "k": 2, "n": 4, "axis": None}, "integer meta"),
    ({"generator": "torus", "k": 3, "n": 4}, "does not match"),
    ({"generator": ["torus"], "k": 1, "n": 3}, "integer meta"),
], ids=["torus-no-k-n", "circle-no-m", "str-k", "null-axis", "wrong-size",
        "list-generator"])
def test_incomplete_tent_meta_exit_2(tmp_path, capsys, meta, culprit):
    path = tmp_path / "meta.scx"
    path.write_text(json.dumps({**CYCLE3, "meta": meta}))
    code, stdout, stderr = run(capsys, "analyze", str(path), "--labels", "tent")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and culprit in stderr
    assert stderr.count("\n") == 1


def test_unread_meta_is_not_checked(tmp_path, capsys):
    path = tmp_path / "meta.scx"
    path.write_text(json.dumps({**CYCLE3, "meta": {"generator": ["torus"]}}))
    code, stdout, _ = run(capsys, "analyze", str(path), "--labels", "constant")
    assert code == 0 and json.loads(stdout)


def test_huge_tent_meta_exit_2_at_once(tmp_path, capsys):
    # n^k with k = 50,000 would have 2 * 10^8 digits
    path = tmp_path / "meta.scx"
    path.write_text(json.dumps({
        "format": "scx-1", "vertex_count": 50000, "maximal_simplices": [],
        "meta": {"generator": "torus", "k": 50000, "n": 10 ** 4000}}))
    t0 = time.monotonic()
    code, stdout, stderr = run(capsys, "analyze", str(path), "--labels", "tent")
    assert time.monotonic() - t0 < 5
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "does not match" in stderr
    assert stderr.count("\n") == 1


def test_product_over_face_limit_exit_2(tmp_path, capsys):
    # one 8-vertex simplex has 255 faces, but its square has C(14, 7)
    # 15-vertex simplices of 2^15 - 1 faces each
    path = tmp_path / "s8.scx"
    path.write_text(json.dumps({"format": "scx-1", "vertex_count": 8,
                                "maximal_simplices": [list(range(8))]}))
    t0 = time.monotonic()
    code, stdout, stderr = run(capsys, "generate", "product",
                               "--in1", str(path), "--in2", str(path))
    assert time.monotonic() - t0 < 5
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "maximal_simplices" in stderr
    assert stderr.count("\n") == 1


def test_anneal_rejects_zero_restarts(tmp_path, capsys):
    out = tmp_path / "c6.scx"
    run(capsys, "generate", "circle", "--m", "6", "--out", str(out))
    code, stdout, stderr = run(capsys, "search", str(out), "--mode", "anneal",
                               "--restarts", "0")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: restarts must be >= 1\n"


@pytest.mark.parametrize("dim, res", [(30, 3), (3, 200), (100000, 3)])
def test_oversized_torus_exit_2_at_once(capsys, dim, res):
    # 3^30 and 200^3 vertices are each more faces than the cap allows;
    # 3^100000 is refused before it is raised
    t0 = time.monotonic()
    code, stdout, stderr = run(capsys, "generate", "torus", "--dim", str(dim),
                               "--res", str(res))
    assert time.monotonic() - t0 < 5
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "faces" in stderr
    assert stderr.count("\n") == 1


def _circle_args(tmp_path, m=6):
    path = tmp_path / f"c{m}.scx"
    write_scx(path, generate_circle(m), circle_tent_labeling(m))
    return ["--in1", str(path), "--in2", str(path)]


@pytest.mark.parametrize("kind, argv", [
    ("circle", ["--m", "5000000"]),
    ("spread-wedge", ["--arc-len", "5000000"]),
    ("presentation", ["--gens", "1500000", "--relator", "a"]),
    ("circle", ["--m", "2000000"]),
    ("spread-wedge", ["--arc-len", "2000000"]),
    ("product", []),
    ("torus", ["--dim", "3", "--res", "100"]),
])
def test_oversized_generator_exit_2(tmp_path, kind, argv):
    # over the vertex cap, or (the last four) under it with more faces
    # than the cap, which the generator counts before it lists a simplex;
    # the product of two 2000-vertex circles has 4,000,000 vertices and
    # 14 faces for each of its 4,000,000 pairs of edges, and torus(3,100)
    # 1,000,000 vertices and 6,000,000 tetrahedra of 15 faces each
    if kind == "spread-wedge":
        argv = argv + _circle_args(tmp_path)
    elif kind == "product":
        argv = _circle_args(tmp_path, 2000)
    t0 = time.monotonic()
    code, stderr, peak_mb = run_measured("generate", kind, *argv)
    assert time.monotonic() - t0 < 10
    assert code == 2
    assert stderr.startswith("error:") and \
        f"more than {MAX_FACES} faces" in stderr
    assert stderr.count("\n") == 0
    assert peak_mb < 64


@pytest.mark.parametrize("kind, argv", [
    ("circle", ["--m", str(MAX_FACES + 1)]),
    ("spread-wedge", ["--arc-len", str(MAX_FACES - 10)]),
    ("presentation", ["--gens", str(MAX_FACES // 2), "--relator", "a"]),
])
def test_generator_just_over_cap_lists_nothing(tmp_path, kind, argv):
    # one vertex over the cap is refused from the vertex count, before a
    # simplex or a label is listed
    if kind == "spread-wedge":
        argv = argv + _circle_args(tmp_path)
    code, stderr, peak_mb = run_measured("generate", kind, *argv)
    assert code == 2
    assert "vertices are more than" in stderr
    assert peak_mb < 64


@pytest.mark.parametrize("argv", [["analyze", "--labels", "constant"],
                                  ["search"]])
def test_isolated_vertices_exit_2_in_small_memory(tmp_path, argv):
    # 2^17 vertices and no simplex: a few bytes of SCX.  The components of
    # n isolated vertices are n masks, each as wide as its vertex id, about
    # n^2/16 bytes (1 GB here); too few edges are refused before them.  A
    # 257-vertex clique brings the edges up to n - 1 for n = 32,897, and
    # the walk that follows keeps no mask per component
    cmd, *options = argv
    for clique in (0, 257):
        edges = [[a, b] for a in range(clique) for b in range(a + 1, clique)]
        n = len(edges) + 1 if clique else 1 << 17
        path = tmp_path / f"isolated{clique}.scx"
        path.write_text(json.dumps({"format": "scx-1", "vertex_count": n,
                                    "maximal_simplices": edges}))
        code, stderr, peak_mb = run_measured(cmd, str(path), *options)
        assert code == 2
        assert stderr.startswith("error:") and \
            "requires a connected complex" in stderr
        assert stderr.count("\n") == 0
        assert peak_mb < 64


def test_wide_simplex_bad_label_exit_2_at_once(tmp_path, capsys):
    # a 21-vertex simplex has 2^21 - 1 faces; validation reads its edges
    path = tmp_path / "s21.scx"
    path.write_text(json.dumps({"format": "scx-1", "vertex_count": 21,
                                "maximal_simplices": [list(range(21))],
                                "labels": [0] * 20 + [2]}))
    t0 = time.monotonic()
    code, stdout, stderr = run(capsys, "analyze", str(path))
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "(0, 20)" in stderr
    assert stderr.count("\n") == 1


def test_anneal_rejects_budget_seconds(tmp_path, capsys):
    out = tmp_path / "c6.scx"
    run(capsys, "generate", "circle", "--m", "6", "--out", str(out))
    code, stdout, stderr = run(capsys, "search", str(out), "--mode", "anneal",
                               "--budget-seconds", "5")
    assert code == 2
    assert stdout == ""
    assert stderr == ("error: --budget-seconds applies only to "
                      "--mode exhaustive\n")


# --- malformed SCX documents: exit 0 with a report or 2 with one line ------

SCX_BASES = [
    to_dict(generate_circle(6), circle_tent_labeling(6),
            {"generator": "circle", "m": 6}),
    to_dict(generate_torus(2, 4), tent_labeling(2, 4),
            {"generator": "torus", "k": 2, "n": 4, "axis": 0}),
    to_dict(presentation_complex(1, [parse_relator("aaA", 1)])),
]
SCX_KEYS = ("format", "vertex_count", "maximal_simplices", "labels", "meta")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=40)
    | st.sampled_from([2 ** 20 + 1, 2 ** 64, -(10 ** 30)])
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
vertex_ids = st.integers(min_value=-3, max_value=40) | st.sampled_from(
    [2 ** 20, 2 ** 64, -(2 ** 64)])


def _mutate(doc, data):
    """Apply one drawn mutation to the (deep-copied) SCX document."""
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "vertex", "repeat", "nest", "labels", "meta"]))
    simplices = doc.get("maximal_simplices")
    has_simplices = isinstance(simplices, list) and any(
        isinstance(s, list) and s for s in simplices)
    if kind == "drop":
        doc.pop(data.draw(st.sampled_from(SCX_KEYS)), None)
    elif kind == "retype":
        doc[data.draw(st.sampled_from(SCX_KEYS))] = data.draw(json_values)
    elif kind in ("vertex", "repeat", "nest") and has_simplices:
        s = data.draw(st.sampled_from(
            [s for s in simplices if isinstance(s, list) and s]))
        j = data.draw(st.integers(min_value=0, max_value=len(s) - 1))
        if kind == "vertex":
            s[j] = data.draw(vertex_ids)
        elif kind == "repeat":
            s.append(s[j])
        elif data.draw(st.booleans()):
            s[j] = data.draw(json_values)
        else:
            simplices[simplices.index(s)] = data.draw(json_values)
    elif kind == "labels" and isinstance(doc.get("labels"), list):
        labels = doc["labels"]
        if labels and data.draw(st.booleans()):
            j = data.draw(st.integers(min_value=0, max_value=len(labels) - 1))
            labels[j] = data.draw(json_values | vertex_ids)
        else:
            doc["labels"] = labels[:data.draw(st.integers(
                min_value=0, max_value=len(labels) + 2))]
    elif kind == "meta":
        meta = doc.setdefault("meta", {})
        if isinstance(meta, dict):
            meta[data.draw(st.sampled_from(
                ["generator", "k", "n", "m", "axis"]))] = data.draw(
                json_values | st.sampled_from(["torus", "circle"]))


@settings(max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_scx_exits_0_or_2(tmp_path, capsys, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(SCX_BASES))))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        _mutate(doc, data)
    path = tmp_path / "fuzz.scx"
    path.write_text(json.dumps(doc))
    labels = data.draw(st.sampled_from([[], ["--labels", "constant"],
                                        ["--labels", "tent"]]))
    field = data.draw(st.sampled_from(["Q", "F2", "F3"]))
    code, stdout, stderr = run(capsys, "analyze", str(path), "--field", field,
                               *labels)
    if code == 0:
        assert isinstance(json.loads(stdout), dict)
    else:
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "Traceback" not in stderr


# --- each command takes only the options it reads --------------------------

@pytest.mark.parametrize("argv, culprit", [
    (["generate", "torus", "--dim", "2", "--res", "4", "--labels",
      "pullback"], "'pullback'"),
    (["generate", "product", "{c6}", "--labels", "tent"], "'tent'"),
    (["generate", "presentation", "--gens", "1", "--relator", "aaa",
      "--labels", "tent"], "'tent'"),
    (["generate", "circle", "--m", "6", "--axis", "5", "--arc-len", "9",
      "--v1", "3"], "--axis 5 --arc-len 9 --v1 3"),
    (["generate", "spread-wedge", "{c6}", "--arc-len", "4",
      "--labels", "constant"], "--labels"),
    (["generate", "wedge", "{c6}", "--labels", "tent"], "'tent'"),
    (["generate", "spread-wedge", "{t26-pair}", "--arc-len", "9"],
     "labeled inputs"),
    (["generate", "torus", "--dim", "2", "--res", "4", "--axis", "7"],
     "axis 7 outside 0..1"),
    (["generate", "torus", "--dim", "2", "--res", "500", "--axis", "2"],
     "axis 2 outside 0..1"),
    (["generate", "torus", "--dim", "0", "--res", "4"], "dimension"),
    (["generate", "wedge", "{c6}", "--v1", "6"], "v1=6 outside"),
    (["generate", "wedge", "{c6}", "--v2", "-1"], "v2=-1 outside"),
    (["generate", "spread-wedge", "{c6}", "--v1", "-1", "--arc-len", "9"],
     "v1=-1 outside"),
    (["generate", "spread-wedge", "{c6}", "--v2", "6", "--arc-len", "9"],
     "v2=6 outside"),
    (["search", "{t26}", "--mode", "exhaustive", "--steps", "10",
      "--restarts", "9", "--seed", "5"], "--steps"),
    (["search", "{t26}", "--budget-seconds", "nan"], "got nan"),
    (["search", "{t26}", "--budget-seconds", "-1"], "got -1"),
    (["verify", "--case", "torus-k2", "--budget-seconds", "nan"], "got nan"),
    (["verify", "--case", "torus-lower-bound", "--budget-seconds", "-0.5"],
     "got -0.5"),
], ids=["torus-pullback", "product-tent", "presentation-tent",
        "circle-foreign-options", "spread-wedge-labels", "wedge-tent",
        "spread-wedge-unlabeled", "torus-bad-axis", "big-torus-bad-axis",
        "torus-dim-0", "wedge-bad-v1", "wedge-bad-v2", "spread-wedge-bad-v1",
        "spread-wedge-bad-v2",
        "exhaustive-anneal-options", "search-nan-budget",
        "search-negative-budget", "verify-nan-budget",
        "verify-negative-budget"])
def test_unread_option_or_bad_value_exit_2(tmp_path, capsys, argv, culprit):
    c6 = tmp_path / "c6.scx"
    write_scx(c6, generate_circle(6), circle_tent_labeling(6))
    t26 = tmp_path / "t26.scx"
    write_scx(t26, generate_torus(2, 6))
    files = {"{c6}": ["--in1", str(c6), "--in2", str(c6)], "{t26}": [str(t26)],
             "{t26-pair}": ["--in1", str(t26), "--in2", str(t26)]}
    argv = [a for arg in argv for a in files.get(arg, [arg])]
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert time.monotonic() - t0 < 5
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and culprit in stderr
    assert stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, culprit", [
    (["frobnicate"], "frobnicate"),
    (["generate"], "kind"),
    (["generate", "circle"], "--m"),
    (["analyze", "x.scx", "--labels", "pullback"], "pullback"),
    (["verify", "--bogus"], "--bogus"),
    ([], "command"),
], ids=["unknown-command", "missing-kind", "missing-option",
        "invalid-choice", "unrecognized-argument", "no-command"])
def test_usage_error_returns_2(capsys, argv, culprit):
    code, stdout, stderr = run(capsys, *argv)  # raises no SystemExit
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: hcwr") and culprit in stderr
    assert stderr.count("\n") == 1


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises, as one to a
    closed pipe does; ``fileno`` is a real descriptor, for the redirect."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_exits_1_without_an_error_line(tmp_path, capsys,
                                                       monkeypatch):
    # a reader that stops early (`hcwr ... | head`) is not bad input
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["generate", "circle", "--m", "4"]) == 1
        # stdout now writes to devnull, so the flush at exit cannot fail
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_exits_1_in_a_fresh_process():
    # the reader is gone before the first write, so the write or the
    # flush meets the closed pipe every time, and nothing reaches stderr,
    # not even at interpreter exit
    read, write = os.pipe()
    os.close(read)
    src = str(Path(hcwr.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from hcwr.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "generate", "circle", "--m", "4"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv, command, extras", [
    (["generate", "circle", "--m", "6", "--axis", "5"],
     "hcwr generate circle", "--axis 5"),
    (["analyze", "x.scx", "--bogus", "3"], "hcwr analyze", "--bogus 3"),
    (["search", "x.scx", "--mode", "anneal", "--seeds", "5"], "hcwr search",
     "--seeds 5"),
], ids=["generate-circle", "analyze", "search"])
def test_unrecognized_arguments_name_the_subcommand(capsys, argv, command,
                                                    extras):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {command}: unrecognized arguments: {extras}\n"
    with pytest.raises(ValueError, match=f"^{command}: unrecognized"):
        build_parser().parse_args(argv)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "torus", "--help"])
    assert exc.value.code == 0
    assert "--axis" in capsys.readouterr().out


GENERATE_OPTIONS = {
    "--m": "6", "--dim": "2", "--res": "4", "--axis": "0", "--gens": "1",
    "--relator": "aaa", "--in1": "a.scx", "--in2": "b.scx", "--v1": "0",
    "--v2": "0", "--arc-len": "3", "--labels": "constant", "--out": "o.scx"}
KIND_OPTIONS = {
    "circle": ({"--m"}, {"--labels", "--out"}),
    "torus": ({"--dim", "--res"}, {"--axis", "--labels", "--out"}),
    "presentation": ({"--gens", "--relator"}, {"--labels", "--out"}),
    "wedge": ({"--in1", "--in2"}, {"--v1", "--v2", "--labels", "--out"}),
    "spread-wedge": ({"--in1", "--in2"},
                     {"--v1", "--v2", "--arc-len", "--out"}),
    "product": ({"--in1", "--in2"}, {"--labels", "--out"}),
}


@pytest.mark.parametrize("kind", KIND_OPTIONS)
def test_generate_kind_takes_only_its_options(kind):
    # parses only: no file is read or written
    required, optional = KIND_OPTIONS[kind]
    base = ["generate", kind]
    for opt in sorted(required):
        base += [opt, GENERATE_OPTIONS[opt]]
    accepted = set(required)
    for opt, value in GENERATE_OPTIONS.items():
        if opt not in required:
            try:
                build_parser().parse_args(base + [opt, value])
                accepted.add(opt)
            except ValueError:
                pass
    assert accepted == required | optional
    for opt in required:
        rest = [a for a in base if a not in (opt, GENERATE_OPTIONS[opt])]
        with pytest.raises(ValueError, match="required"):
            build_parser().parse_args(rest)


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines()
             if line.startswith("hcwr ")]
    assert len(lines) >= 11
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
