"""tools/compare_reports.py, the two-tree report differ: exit 0 for equal
reports, 1 for reports that differ, and 2, with a message, when it cannot
compare."""

import os
import subprocess
import sys
from pathlib import Path

import chainlab

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
SRC = Path(chainlab.__file__).resolve().parents[1]


def _compare(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_equal_trees_compare_clean():
    proc = _compare(SRC, SRC, "--seeds", "0-1", "--ids", "naive_tree")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(" 0 differences")
    assert "seeds 0-1: 2 runs per side" in proc.stdout


def test_reversed_seed_range_is_a_usage_error():
    proc = _compare(SRC, SRC, "--seeds", "3-1")
    assert proc.returncode == 2
    assert "reversed seed range '3-1'" in proc.stderr


def test_tree_without_chainlab_is_a_usage_error(tmp_path):
    proc = _compare(tmp_path, SRC)
    assert proc.returncode == 2
    assert f"the parent source tree {tmp_path} holds no chainlab package" in proc.stderr


def test_crashed_child_interpreter_is_not_a_difference(tmp_path):
    package = tmp_path / "chainlab"
    package.mkdir()
    (package / "__init__.py").write_text("raise RuntimeError('this tree does not import')\n")
    proc = _compare(SRC, tmp_path, "--ids", "naive_tree")
    assert proc.returncode == 2
    assert "the change interpreter exited with 1" in proc.stderr
    assert "this tree does not import" in proc.stderr
    assert "differences" not in proc.stdout
