"""tools/compare_reports.py, the two-tree report differ: exit 0 for equal
reports, 1 for reports that differ, and 2, with a message, when it cannot
compare; its --set overrides reach every run, and each tree's run time, in
all and per experiment, goes to stderr."""

import os
import re
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


def test_run_seconds_go_to_stderr_only():
    """Each tree's total in-process run time is printed on stderr, one line
    per tree, then each experiment's time in both trees, one line per
    experiment; none of it is among the compared outputs on stdout."""
    proc = _compare(SRC, SRC, "--seeds", "0-2", "--ids", "pr_gap,naive_tree")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == ["parent", "change", "naive_tree", "pr_gap"]
    totals = []
    for line in lines[:2]:
        assert re.fullmatch(r"(parent|change): \d+\.\d{3} s in 6 runs", line), line
        totals.append(float(line.split()[1]))
        assert 0.0 < totals[-1] < 60.0
    per_experiment = []
    for line in lines[2:]:
        match = re.fullmatch(r"\w+: parent (\d+\.\d{3}) s, change (\d+\.\d{3}) s", line)
        assert match, line
        per_experiment.append([float(v) for v in match.groups()])
    # each tree's experiments add up to its total, to the printed rounding
    for side, total in enumerate(totals):
        assert abs(sum(row[side] for row in per_experiment) - total) <= 0.002
    assert " s in " not in proc.stdout and " s, change " not in proc.stdout


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


def _probe_tree(root, written):
    """A chainlab tree of one experiment, "probe", whose runs each write the
    --set items of their command line into their report.json; with written,
    they write that list instead."""
    package = root / "chainlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "experiments.py").write_text("CATALOG = {'probe': None}\n")
    (package / "cli.py").write_text(
        "import json, pathlib\n"
        "def main(argv):\n"
        "    out = pathlib.Path(argv[argv.index('--out') + 1]) / 'probe'\n"
        "    out.mkdir(parents=True, exist_ok=True)\n"
        "    sets = [argv[i + 1] for i, arg in enumerate(argv) if arg == '--set']\n"
        f"    (out / 'report.json').write_text(json.dumps({written!r} or sets))\n"
        "    return 0\n")
    return root


def test_overrides_reach_every_run_in_order(tmp_path):
    echo = _probe_tree(tmp_path / "echo", None)
    fixed = _probe_tree(tmp_path / "fixed", ["rate=2", "m=3"])
    proc = _compare(echo, fixed, "--seeds", "0-2", "--set", "rate=2", "--set", "m=3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "seeds 0-2: 3 runs per side, 3 output files, 0 differences"
    proc = _compare(echo, fixed, "--seeds", "0-2", "--set", "m=3", "--set", "rate=2")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].endswith(" 3 differences")


def test_override_without_a_value_is_a_usage_error():
    proc = _compare(SRC, SRC, "--set", "rate")
    assert proc.returncode == 2
    assert "expected KEY=VALUE, got 'rate'" in proc.stderr
