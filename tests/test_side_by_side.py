"""``tools/side_by_side.py`` runs on the standard library alone, times two trees and refuses differing outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "side_by_side.py"


def _side_by_side(parent, change, *args):
    # -S: no site-packages, so the tool needs nothing outside the standard library.
    argv = [sys.executable, "-S", "-I", "-B", str(TOOL), str(parent), str(change), *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_checkout_against_itself():
    proc = _side_by_side(ROOT, ROOT, "--runs", "3", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["workload"] for line in lines] == ["family_verify", "matching", "static_rows"]
    for line in lines:
        assert sorted(line) == [
            "change_faster", "change_ms", "parent_ms", "ratio", "runs", "seed", "workload"
        ]
        assert line["seed"] == 2 and line["runs"] == 3
        assert 0 <= line["change_faster"] <= 3
        assert line["parent_ms"] > 0 and line["change_ms"] > 0
        assert line["ratio"] == round(line["change_ms"] / line["parent_ms"], 4)


def test_differing_outputs_exit_1(tmp_path):
    # A change tree whose report gains one trailing space.
    shutil.copytree(ROOT / "src" / "dynred", tmp_path / "src" / "dynred",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "dynred" / "cli.py", "a", encoding="utf-8") as f:
        f.write("\n_unchanged = _execute\n\n\ndef _execute(args):\n"
                "    text, status = _unchanged(args)\n    return text + ' ', status\n")
    proc = _side_by_side(ROOT, tmp_path, "--workload", "matching", "--runs", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("outputs differ on reducts --input ")
