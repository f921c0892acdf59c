"""Smoke tests of tools/report_diff.py, the report byte-identity harness."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "report_diff.py"


def report_diff(base, change):
    return subprocess.run(
        [sys.executable, str(TOOL), str(base), str(change), "--seeds", "3", "--size", "smoke"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_matches_itself():
    proc = report_diff(REPO, REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith(" invocations, 0 differ")


def test_a_changed_message_is_reported(tmp_path):
    shutil.copytree(REPO / "src" / "heatseries", tmp_path / "src" / "heatseries",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "heatseries" / "cli.py"
    text = cli.read_text()
    assert text.count("backward times must be nonnegative") == 1
    cli.write_text(text.replace("backward times must be nonnegative", "negative backward time"))

    proc = report_diff(REPO, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "differs (stderr): backward --family z --t=-0.1"
    assert lines[-1].endswith(" invocations, 1 differ")
