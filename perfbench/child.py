"""One workload run, in a fresh interpreter started by run.py.

Drives every experiment of the workload through the public entry point
``chainlab.cli.main(["run", <config>, "--out", <dir>])`` with a config that
holds only ``[experiment] id/seed``, checks each report, and writes its
measurements as JSON to ``<run dir>/child.json``. With ``--trace 1`` it makes
one untraced pass, then one traced pass, both at the first experiment seed.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 \
        --run-dir DIR --src DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from hostspeed import KERNEL_REF_S, HostSpeed
from workloads import WORKLOADS, experiment_seeds, known_failures, passes


def environment(src: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "source_sha256": digest.hexdigest(),
    }


class Workload:
    def __init__(self, name: str, seeds: list, run_dir: Path):
        import chainlab.cli

        self.cli = chainlab.cli
        self.spec = WORKLOADS[name]
        self.seeds = seeds
        self.known = known_failures()
        self.out_root = run_dir / "out"
        cfg_dir = run_dir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for exp_id in self.spec["ids"]:
            for s in self.seeds:
                cfg = cfg_dir / f"{exp_id}-{s}.ini"
                cfg.write_text(f"[experiment]\nid = {exp_id}\nseed = {s}\n")
                self.configs[(exp_id, s)] = str(cfg)
        self.speed = None  # a started HostSpeed while the timed passes run
        self.digests: dict = {}
        self.runs = 0
        self.failed: list = []
        self.bytes_written = 0

    def run_one(self, exp_id: str, seed: int, label: str) -> float:
        """Run one experiment through the CLI; check it; return the main() seconds,
        without the seconds the host-speed sampler took meanwhile."""
        out = self.out_root / label
        log = io.StringIO()
        crash = None
        sampler_s = self.speed.spent if self.speed else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = self.cli.main(["run", self.configs[(exp_id, seed)], "--out", str(out)])
        except Exception:
            rc, crash = None, traceback.format_exc().strip().splitlines()[-1]
        except SystemExit as exc:
            rc, crash = exc.code, f"SystemExit({exc.code!r})"
        dt = time.perf_counter() - t0
        if self.speed:
            dt -= self.speed.spent - sampler_s
        self.runs += 1
        reasons = self.check(exp_id, seed, out / exp_id / "report.json", rc, crash, log)
        self.bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        if reasons:
            known = self.known.get(exp_id, {})
            self.failed.append({
                "id": exp_id, "seed": seed, "run": label, "exit_code": rc,
                "reasons": reasons,
                "known": all(r.startswith("verdict ") and r[8:] in known for r in reasons),
            })
        return dt

    def check(self, exp_id, seed, report_path: Path, rc, crash, log) -> list:
        if crash is not None:
            return [f"crash {crash}"]
        if rc == 2:
            lines = log.getvalue().strip().splitlines()
            return [f"config error: {lines[-1] if lines else 'no message'}"]
        try:
            raw = report_path.read_bytes()
            report = json.loads(raw)
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable after exit code {rc}: {exc}"]
        reasons = [f"verdict {k}" for k, v in report.get("verdicts", {}).items() if not v]
        if report.get("experiment") != exp_id or report.get("seed") != seed:
            reasons.append("report.json names another (id, seed)")
        if (rc == 0) != (not reasons and report.get("all_passed") is True):
            reasons.append(f"exit code {rc} disagrees with the report's verdicts")
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault((exp_id, seed), digest)
        if digest != first:
            reasons.append("report.json differs from the first run of the same (id, seed)")
        return reasons

    def run_pass(self, label: str) -> dict:
        """One pass over the workload's experiments and seeds; per-id seconds."""
        per_id: dict = {}
        for exp_id in self.spec["ids"]:
            for s in self.seeds:
                dt = self.run_one(exp_id, s, f"{label}-{exp_id}-{s}")
                per_id.setdefault(exp_id, []).append(dt)
        return per_id


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args(argv)

    import chainlab
    from chainlab.experiments import CATALOG

    src = args.src.resolve()
    where = Path(chainlab.__file__).resolve()
    if src not in where.parents:
        print(f"error: imported chainlab from {where}, not from {src}", file=sys.stderr)
        return 2

    # A traced run measures the first experiment seed only, so that its two
    # passes stay well inside the time limit and the experiments.<id>.wall_s
    # values are for one seed.
    seeds = experiment_seeds(args.workload, args.seed)
    wl = Workload(args.workload, seeds[:1] if args.trace else seeds, args.run_dir)
    assigned = {i for spec in WORKLOADS.values() for i in spec["ids"]}
    doc = {
        "environment": environment(src),
        "experiment_seeds": wl.seeds,
        "catalog_not_in_any_workload": sorted(set(CATALOG) - assigned),
        "passes": [],
    }

    # Untraced passes: as many as workloads.passes gives for --seconds, with the
    # host's speed sampled throughout (hostspeed.py). A traced run makes one
    # untraced pass (for trace.overhead_s), then the traced pass; it samples
    # nothing, so that its two passes are measured alike.
    n_passes = 1 if args.trace else passes(args.workload, args.seconds)
    if not args.trace:
        wl.speed = HostSpeed()
        wl.speed.start()
    doc["pass_kernel_s"] = []
    try:
        for k in range(n_passes):
            n0 = len(wl.speed.samples) if wl.speed else 0
            doc["passes"].append(wl.run_pass(f"p{k}"))
            if wl.speed:
                doc["pass_kernel_s"].append(wl.speed.median_since(n0))
    finally:
        if wl.speed:
            wl.speed.stop()
            doc["kernel_samples"] = len(wl.speed.samples)
            wl.speed = None
    # Factor that brings each pass's times to the reference host speed.
    doc["pass_scale"] = [KERNEL_REF_S / k for k in doc["pass_kernel_s"]]
    if n_passes == 1 and not args.trace:
        for exp_id in wl.spec["recheck"]:
            for s in wl.seeds:
                wl.run_one(exp_id, s, f"recheck-{exp_id}-{s}")
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wl.bytes_written = 0
        try:
            doc["traced_pass"] = wl.run_pass("traced")
        finally:
            tracer.uninstall()
        doc["trace"] = {
            "layers": {name: {"calls": st.calls, "self_s": st.self_s, **st.counters}
                       for name, st in tracer.stats.items()},
            "absent": tracer.absent,
            "bytes_written": wl.bytes_written,
        }
        with open(args.run_dir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)

    doc["runs"] = wl.runs
    doc["failed"] = wl.failed
    with open(args.run_dir / "child.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
