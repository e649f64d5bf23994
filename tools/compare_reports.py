"""Run every catalog experiment, at its default parameters or with the given
overrides, under two chainlab source trees and list the output files that
differ.

    python tools/compare_reports.py PARENT_SRC CHANGE_SRC --seeds 0-99
    python tools/compare_reports.py PARENT_SRC CHANGE_SRC --seeds 0-99 \
        --ids lambda_pipeline,sparse_certificate_sweep,sparse_noiseless_recovery
    python tools/compare_reports.py PARENT_SRC CHANGE_SRC --seeds 0-9 \
        --ids lambda_pipeline --set sigma_n=0.01 --set m=3

PARENT_SRC and CHANGE_SRC are directories that hold the ``chainlab``
package, such as the ``src`` folders of two checkouts. Each tree runs in one
interpreter of its own, which imports chainlab first (so BLAS is pinned to
one thread, as under ``chainlab run``) and calls ``chainlab.cli.main`` once
per experiment and seed: every catalog experiment, or only those that
``--ids`` names, comma-separated. Each ``--set KEY=VALUE`` (repeatable) is
passed to every run as ``chainlab run --set KEY=VALUE``, so that the trees
can be compared away from the defaults; a run that rejects the override
exits 2 on both sides, which is no difference. The script lists every
``report.json`` and CSV that is missing on one side or differs in its
bytes, and every run whose exit code differs. On stderr, apart from what
is compared, it prints each tree's total seconds in ``chainlab.cli.main``,
its runs timed in process, and then each experiment's seconds in both
trees, so that one paired run also shows how fast a change runs, experiment
by experiment, at any ``--set`` values. It exits 0 when there is none
and 1 when there is any. It exits 2, with a message, when it cannot compare:
a reversed seed range such as ``--seeds 3-1``, an override without ``=``, a
source tree that holds no ``chainlab`` package, or a child interpreter that
crashes (an unknown ``--ids`` entry among others).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs in each source tree's interpreter: argv is (out_dir, first_seed,
# last_seed, ids, *sets), ids comma-separated, or empty for the whole
# catalog, and sets the KEY=VALUE overrides of every run. It writes each
# run's exit code, and the seconds that each experiment's runs took.
CHILD = """
import sys
import chainlab
from chainlab.cli import main
from chainlab.experiments import CATALOG
import contextlib, io, json, pathlib, time
out, first, last = pathlib.Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
sets = [arg for item in sys.argv[5:] for arg in ("--set", item)]
ids = sorted(sys.argv[4].split(",")) if sys.argv[4] else sorted(CATALOG)
unknown = [exp_id for exp_id in ids if exp_id not in CATALOG]
if unknown:
    sys.exit(f"unknown experiment ids: {', '.join(unknown)}")
codes, seconds = {}, dict.fromkeys(ids, 0.0)
for seed in range(first, last + 1):
    for exp_id in ids:
        cfg = out / "configs" / f"{exp_id}-{seed}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(f"[experiment]\\nid = {exp_id}\\nseed = {seed}\\n")
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes[f"{exp_id} seed {seed}"] = main(["run", str(cfg), "--out",
                                                    str(out / "runs" / f"seed-{seed}"), *sets])
        seconds[exp_id] += time.perf_counter() - start
(out / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True))
(out / "seconds.json").write_text(json.dumps(seconds))
"""


def _seeds(text: str) -> tuple:
    first, _, last = text.partition("-")
    try:
        first, last = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed or a range A-B: {text!r}") from None
    if last < first:
        raise argparse.ArgumentTypeError(f"reversed seed range {text!r}")
    return first, last


def _override(text: str) -> str:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return text


def _outputs(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and (p.name == "report.json" or p.suffix == ".csv")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", default="0", type=_seeds,
                        help="one seed, or an inclusive range A-B")
    parser.add_argument("--ids", default="",
                        help="comma-separated experiment ids to compare (default: all)")
    parser.add_argument("--set", action="append", default=[], type=_override,
                        metavar="KEY=VALUE",
                        help="a parameter override passed to every run (repeatable)")
    args = parser.parse_args(argv)
    first, last = args.seeds
    sides = {"parent": args.parent_src, "change": args.change_src}
    for side, src in sides.items():
        if not Path(src, "chainlab", "__init__.py").is_file():
            parser.error(f"the {side} source tree {src} holds no chainlab package")
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        procs = {}
        for side, src in sides.items():
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            procs[side] = subprocess.Popen(
                [sys.executable, "-c", CHILD, os.path.join(tmp, side), str(first), str(last),
                 args.ids, *args.set],
                env=env, stderr=subprocess.PIPE, text=True)
        errs = {side: proc.communicate()[1] for side, proc in procs.items()}
        for side, proc in procs.items():
            if proc.returncode != 0:
                print(f"error: the {side} interpreter exited with {proc.returncode}\n"
                      f"{errs[side]}", file=sys.stderr)
                return 2
        parent, change = (Path(tmp, side) for side in sides)
        differ = []
        codes = [json.loads((root / "exit_codes.json").read_text()) for root in (parent, change)]
        for run in sorted(set(codes[0]) | set(codes[1])):
            a, b = (c.get(run) for c in codes)
            if a != b:
                differ.append(f"exit code {run}: {a} -> {b}")
        files = [_outputs(root / "runs") for root in (parent, change)]
        for rel in sorted(files[0] | files[1]):
            if rel not in files[0] or rel not in files[1]:
                differ.append(f"only in {'change' if rel in files[1] else 'parent'}: {rel}")
            elif not filecmp.cmp(parent / "runs" / rel, change / "runs" / rel, shallow=False):
                differ.append(f"differs: {rel}")
        runs, outputs = len(codes[0]), len(files[0] | files[1])
        seconds = [json.loads(Path(tmp, side, "seconds.json").read_text()) for side in sides]
        for side, side_codes, side_seconds in zip(sides, codes, seconds):
            print(f"{side}: {sum(side_seconds.values()):.3f} s in {len(side_codes)} runs",
                  file=sys.stderr)
        for exp_id, parent_s in seconds[0].items():
            print(f"{exp_id}: parent {parent_s:.3f} s, change {seconds[1][exp_id]:.3f} s",
                  file=sys.stderr)
    for line in differ:
        print(line)
    print(f"seeds {first}-{last}: {runs} runs per side, {outputs} output files, "
          f"{len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
