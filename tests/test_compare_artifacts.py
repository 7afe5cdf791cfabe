"""scripts/compare_artifacts.py on two tiny hand-made artifact roots."""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_artifacts.py"

ROOT = {
    "configs/suite/out/suite/diagnostics.csv": "t,h1_norm,accepted\n0,0.12345678901234567,true\n"
                                               "0.5,0.12345678901234999,true\n",
    "configs/suite/out/suite/summary.json": json.dumps(
        {"flags": {"bounded": True}, "n_steps": 10, "norms": {"final_h1": 0.5}}, indent=2),
    "configs/suite/stdout.txt": "identity-suite: worst residual 7.3e-16 vs threshold 1e-06 -> pass\n",
    "configs/suite/exit_status": "0\n",
}


def _root(path, **edits):
    """ROOT under path with each edit (file -> (old text, new text)) applied."""
    for name, text in ROOT.items():
        if name in edits:
            text = text.replace(*edits[name])
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text, encoding="utf-8")
    return str(path)


def _compare(tmp_path, **edits):
    old, new = _root(tmp_path / "old"), _root(tmp_path / "new", **edits)
    return subprocess.run([sys.executable, str(SCRIPT), old, new], capture_output=True, text=True)


def test_identical_roots_pass_with_nothing_moved(tmp_path):
    proc = _compare(tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["4 files: floats moved in 0 files (0 columns); 0 other differences"]


def test_a_float_digit_is_a_reported_deviation(tmp_path):
    proc = _compare(tmp_path, **{"configs/suite/out/suite/diagnostics.csv": ("4999", "4899"),
                                 "configs/suite/out/suite/summary.json": ("0.5", "0.5000000000000001")})
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    row = next(line.split() for line in lines if "h1_norm" in line)
    assert row[0] == "configs/suite/out/suite/diagnostics.csv"
    assert float(row[2]) == pytest.approx(1e-16, rel=0.1)  # max abs: one in the 16th digit
    assert float(row[3]) == pytest.approx(1e-16 / 0.12345678901234999, rel=0.1)  # max rel
    assert any("norms.final_h1" in line for line in lines)
    assert lines[-1] == "4 files: floats moved in 2 files (2 columns); 0 other differences"


@pytest.mark.parametrize("name, edit", [
    ("configs/suite/stdout.txt", ("-> pass", "-> fail")),                      # a verdict word
    ("configs/suite/out/suite/diagnostics.csv", ("5,0.12345678901234999,true",
                                                 "5,0.12345678901234999,false")),  # a flag
    ("configs/suite/exit_status", ("0", "3")),                                 # an exit status
    ("configs/suite/out/suite/summary.json", ('"n_steps": 10', '"n_steps": 11')),  # a count
    ("configs/suite/out/suite/summary.json", ('"bounded"', '"capped"')),      # a JSON key
    ("configs/suite/out/suite/diagnostics.csv", ("h1_norm", "h1")),           # a header
], ids=["verdict", "flag", "exit-status", "count", "json-key", "header"])
def test_anything_but_a_float_fails(tmp_path, name, edit):
    proc = _compare(tmp_path, **{name: edit})
    assert proc.returncode == 1, proc.stdout
    assert [line for line in proc.stdout.splitlines() if line.startswith("DIFFERS")] == [
        next(line for line in proc.stdout.splitlines() if line.startswith(f"DIFFERS {name}"))]


def test_a_missing_file_fails(tmp_path):
    old, new = _root(tmp_path / "old"), _root(tmp_path / "new")
    (pathlib.Path(new) / "configs/suite/exit_status").unlink()
    proc = subprocess.run([sys.executable, str(SCRIPT), old, new], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "DIFFERS configs/suite/exit_status: only in" in proc.stdout
