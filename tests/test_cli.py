"""End-to-end CLI runs through main(argv); exit codes 0/1/2."""
import json
import re
import sys
import time

import pytest

import hcwr
from hcwr.cli import main
from hcwr.scx import read_scx, write_scx


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert len(summary["cases"]) == 10
    assert {c["status"] for c in summary["cases"]} == {"pass"}


def test_verify_zero_budget_skips_only_searches(capsys):
    code, stdout, _ = run(capsys, "verify", "--budget-seconds", "0")
    assert code == 0
    status = {c["name"]: c["status"] for c in json.loads(stdout)["cases"]}
    searches = {"torus-lower-bound", "torus-2-5-lower-bound",
                "free-width-zero", "infinite-abelian-z", "abelian-f3-search"}
    assert {n for n, s in status.items() if s == "skipped(budget)"} == searches
    assert {n for n, s in status.items() if s == "pass"} == \
        set(status) - searches
    assert len(status) == 10


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


@pytest.mark.parametrize("meta, culprit", [
    ({"generator": "torus"}, "integer meta"),
    ({"generator": "circle"}, "integer meta"),
    ({"generator": "torus", "k": "2", "n": 4}, "integer meta"),
    ({"generator": "torus", "k": 2, "n": 4, "axis": None}, "integer meta"),
    ({"generator": "torus", "k": 3, "n": 4}, "does not match"),
], ids=["torus-no-k-n", "circle-no-m", "str-k", "null-axis", "wrong-size"])
def test_incomplete_tent_meta_exit_2(tmp_path, capsys, meta, culprit):
    path = tmp_path / "meta.scx"
    path.write_text(json.dumps({**CYCLE3, "meta": meta}))
    code, stdout, stderr = run(capsys, "analyze", str(path), "--labels", "tent")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and culprit in stderr
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


def test_anneal_rejects_budget_seconds(tmp_path, capsys):
    out = tmp_path / "c6.scx"
    run(capsys, "generate", "circle", "--m", "6", "--out", str(out))
    code, stdout, stderr = run(capsys, "search", str(out), "--mode", "anneal",
                               "--budget-seconds", "5")
    assert code == 2
    assert stdout == ""
    assert stderr == ("error: --budget-seconds applies only to "
                      "--mode exhaustive\n")
