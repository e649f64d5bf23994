"""Command-line experiment runner.

Configs are line-oriented ``key = value`` files with bracketed sections, so
experiment snapshots are diffable and can live in the repo:

    [experiment]
    id = crb_gaussian_mean
    seed = 3

    [params]
    sigma_x = 1.0
    m = 10

Commands: ``run <config>`` (flags --seed, --out, --set key=value),
``list``, ``validate <config>``. Exit codes: 0 all verdicts pass, 1 a verdict
failed, 2 config error, 3 the experiment or its parameter check crashed (an
unexpected exception, or a non-finite number in the report or in a CSV cell,
reported on one ``error:`` line, with nothing written). ``validate`` accepts
exactly the configs that ``run`` accepts. Outputs per run: report.json,
tables/*.csv, plotdata/*.csv under <out>/<experiment id>/; the CHAINLAB_OUT
environment variable sets the default output root. Reports are
byte-identical across runs with the same (id, seed, overrides).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import BLAS_PINNED
from .errors import ChainlabError, InvalidOverride
from .experiments import CATALOG, list_experiments, resolve_params, run_experiment

DEFAULT_OUT = "chainlab-runs"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"CSV cell is not finite: {v!r}")
        return format(v, ".17g")
    return str(v)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_fmt_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class ConfigReport:
    def __init__(self):
        self.errors: list = []
        self.warnings: list = []
        self.exp_id: str | None = None
        self.seed: int = 0
        self.overrides: dict = {}

    @property
    def ok(self) -> bool:
        return not self.errors


def _set_seed(rep: ConfigReport, raw, where: str) -> None:
    try:
        seed = int(raw)
        if not (0 <= seed < 2**64):
            raise ValueError
        rep.seed = seed
    except ValueError:
        rep.errors.append(f"{where}: must be an unsigned 64-bit integer, got {raw!r}")


def load_config(path: str) -> ConfigReport:
    rep = ConfigReport()
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        rep.errors.append(f"{path}: {exc}")
        return rep
    except configparser.Error as exc:
        rep.errors.append(f"{path}: {exc}")
        return rep
    for section in parser.sections():
        if section not in ("experiment", "params"):
            rep.errors.append(f"[{section}]: unknown section")
    if not parser.has_section("experiment"):
        rep.errors.append("[experiment]: section missing")
        return rep
    exp = dict(parser.items("experiment"))
    extra = set(exp) - {"id", "seed"}
    for key in sorted(extra):
        rep.errors.append(f"[experiment] {key}: unknown key")
    if "id" not in exp:
        rep.errors.append("[experiment] id: required")
        return rep
    rep.exp_id = exp["id"].strip()
    if rep.exp_id not in CATALOG:
        rep.errors.append(f"[experiment] id: unknown experiment {rep.exp_id!r}")
        return rep
    if "seed" in exp:
        _set_seed(rep, exp["seed"], "[experiment] seed")
    else:
        rep.warnings.append("[experiment] seed: missing, defaulted to 0")
    if parser.has_section("params"):
        rep.overrides = dict(parser.items("params"))
    return rep


def _crashed(exp_id: str, exc: Exception) -> int:
    print(f"error: {exp_id} crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


def cmd_list() -> int:
    for exp_id, description, operation in list_experiments():
        print(f"{exp_id:28s} {description} [{operation}]")
    return 0


def _check_config(path: str, seed: int | None = None, sets: list = ()) -> tuple:
    """(report, exit code or None): the config at path with the command-line
    seed and --set items applied, its parameters checked by resolve_params
    (what run_experiment calls), warnings and errors printed. The code is 2
    on any error and 3 if the parameter check crashed."""
    rep = load_config(path)
    if seed is not None:
        _set_seed(rep, seed, "--seed")
    for item in sets:
        if "=" not in item:
            rep.errors.append(f"--set {item!r}: expected key=value")
            continue
        key, _, value = item.partition("=")
        rep.overrides[key.strip()] = value.strip()
    if rep.exp_id in CATALOG:
        try:
            resolve_params(rep.exp_id, rep.overrides)
        except InvalidOverride as exc:
            rep.errors.append(f"[params] {exc}")
        except Exception as exc:  # a defect in a parameter check, not a config error
            return rep, _crashed(rep.exp_id, exc)
    for w in rep.warnings:
        print(f"warning: {w}")
    for e in rep.errors:
        print(f"error: {e}", file=sys.stderr)
    return rep, None if rep.ok else 2


def cmd_validate(path: str) -> int:
    rep, code = _check_config(path)
    if code is None:
        print(f"{path}: valid (experiment {rep.exp_id}, seed {rep.seed})")
    return code or 0


def cmd_run(path: str, seed: int | None, out: str | None, sets: list) -> int:
    rep, code = _check_config(path, seed, sets)
    if code is not None:
        return code
    if not BLAS_PINNED:
        print("warning: numpy was imported before chainlab and no OpenBLAS thread setter was "
              "found, so BLAS is not pinned to one thread; report numbers that rest on a BLAS "
              "solve may differ with the thread count", file=sys.stderr)
    out_root = Path(out or os.environ.get("CHAINLAB_OUT") or DEFAULT_OUT)
    target = out_root / rep.exp_id
    try:
        report, tables, plotdata = run_experiment(rep.exp_id, rep.seed, rep.overrides)
    except ChainlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a failed verdict: keep exit 1 for verdicts
        return _crashed(rep.exp_id, exc)
    try:
        # Infinity and NaN are neither JSON nor a measured number: a runner
        # that returns them is at fault, so everything is formatted before
        # anything is written.
        files = {"report.json": json.dumps(report, indent=2, allow_nan=False) + "\n"}
        for folder, sheets in (("tables", tables), ("plotdata", plotdata)):
            for name, (header, rows) in sheets.items():
                files[f"{folder}/{name}.csv"] = _csv_text(header, rows)
    except ValueError as exc:
        return _crashed(rep.exp_id, exc)
    out_root.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{rep.exp_id}-", dir=out_root))
    try:
        for rel, text in files.items():
            (staging / rel).parent.mkdir(exist_ok=True)
            with open(staging / rel, "w", newline="") as fh:
                fh.write(text)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if target.exists():
        shutil.rmtree(target)
    staging.rename(target)
    for name, passed in report["verdicts"].items():
        print(f"{'PASS' if passed else 'FAIL'}  {rep.exp_id}.{name}")
    print(f"report: {target / 'report.json'}")
    return 0 if report["all_passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chainlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the experiment catalog")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_run = sub.add_parser("run", help="run an experiment from a config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output root (default $CHAINLAB_OUT or ./chainlab-runs)")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a parameter (repeatable)")
    return parser


# Built once at import: ``main`` may run many times in one process.
_PARSER = _build_parser()


def main(argv=None) -> int:
    # argparse's append action copies its default list before appending, so
    # one call's --set items never reach the next.
    args = _PARSER.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "validate":
        return cmd_validate(args.config)
    return cmd_run(args.config, args.seed, args.out, args.set)


if __name__ == "__main__":
    sys.exit(main())
