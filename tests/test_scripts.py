"""Smoke tests of the scripts under ``scripts/``."""
import os
import subprocess
import sys
from pathlib import Path

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
