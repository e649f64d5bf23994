"""chainlab benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload sparse_certify --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; chainlab is imported from ``src/`` of that
checkout, never from an installed copy. See perfbench/README.md for the
workloads and metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; everything else,
including the environment record, goes to
``.perfbench_runs/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 175.0
SETUP_SAMPLES = 3

# Time from interpreter start to chainlab.cli imported and the catalog registered.
SETUP_PROBE = (
    "import time, chainlab, chainlab.cli\n"
    "from chainlab.experiments import CATALOG\n"
    "print(time.monotonic(), chainlab.__file__)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env: dict, deadline: float) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        t_ready, where = proc.stdout.split(maxsplit=1)
        if SRC.resolve() not in Path(where.strip()).resolve().parents:
            raise RuntimeError(f"set-up probe imported chainlab from {where.strip()}")
        samples.append(float(t_ready) - t0)
    return samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def per_layer_metrics(doc: dict, wall_s: float, cov: dict) -> dict:
    """Metrics of the traced pass, named as in BENCHMARK.json's per_layer."""
    layers = doc["trace"]["layers"]
    traced = doc["traced_pass"]
    traced_wall = sum(sum(v) for v in traced.values())

    m: dict = {}
    for name, counters in tracer.layers():
        st = layers.get(name, {})
        m[f"{name}.calls"] = (st.get("calls", 0), "count")
        m[f"{name}.self_s"] = (st.get("self_s", 0.0), "s")
        for c in counters:
            m[f"{name}.{c}"] = (st.get(c, 0), "count")
    m["cli.bytes_written"] = (doc["trace"]["bytes_written"], "B")
    # One run of each experiment at one seed, so the 17 values sum to the catalog time.
    all_ids = sorted(i for spec in WORKLOADS.values() for i in spec["ids"])
    for exp_id in all_ids:
        times = traced.get(exp_id, [])
        m[f"experiments.{exp_id}.wall_s"] = (statistics.fmean(times) if times else 0.0, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - wall_s, "s")
    for kind, names in cov.items():
        m[f"trace.{kind}"] = (len(names), "count")
    return m


def coverage(workload: str, doc: dict) -> dict:
    """Layers the workload should call but did not, or should not call but did."""
    spec = WORKLOADS[workload]
    layers = doc["trace"]["layers"]
    absent = set(doc["trace"]["absent"])

    def is_absent(name):
        return ".".join(name.split(".")[:2]) in absent

    return {
        "absent": sorted(n for n in spec["expect_calls"] + spec["expect_none"] if is_absent(n)),
        "uncovered": [n for n in spec["expect_calls"]
                      if not is_absent(n) and layers.get(n, {}).get("calls", 0) == 0],
        "unexpected": [n for n in spec["expect_none"] if layers.get(n, {}).get("calls", 0)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "chainlab" / "cli.py").is_file():
        print(f"error: no chainlab sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**60 or args.seconds < 1:
        print("error: need 0 <= seed < 2**60 and seconds >= 1", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    setup = [] if args.trace else measure_setup(env, deadline)

    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir), "--src", str(SRC)]
    with open(run_dir / "workload.log", "w") as log:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        print((run_dir / "workload.log").read_text()[-4000:], file=sys.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads((run_dir / "child.json").read_text())
    shutil.rmtree(run_dir / "out", ignore_errors=True)

    pass_walls = [sum(sum(v) for v in p.values()) for p in doc["passes"]]
    # One pass's time, with each experiment run at its median over the passes:
    # a slow spell of the host that hits one run of a pass does not move it.
    runs_by_pass = [[t for exp_id in sorted(p) for t in p[exp_id]] for p in doc["passes"]]
    wall_s = sum(statistics.median(ts) for ts in zip(*runs_by_pass))
    # The same, with every run rescaled by how fast the host-speed kernel ran
    # during its pass (hostspeed.py). Traced runs sample no host speed.
    kernel_s, scale = doc["pass_kernel_s"], doc["pass_scale"]
    wall_ref_s = None
    if scale:
        scaled = [[t * f for t in ts] for ts, f in zip(runs_by_pass, scale)]
        wall_ref_s = sum(statistics.median(ts) for ts in zip(*scaled))
    failed = doc["failed"]
    unknown = [f for f in failed if not f["known"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"commit": git_commit(), **doc["environment"]},
        "experiment_seeds": doc["experiment_seeds"],
        "catalog_not_in_any_workload": doc["catalog_not_in_any_workload"],
        "pass_wall_s": pass_walls,
        "wall_s": wall_s,
        "pass_kernel_s": kernel_s,
        "pass_scale": scale,
        "kernel_samples": doc.get("kernel_samples", 0),
        "setup_samples_s": setup,
        "runs": doc["runs"],
        "failed_runs": failed,
    }

    print(f"workload {args.workload}  seed {args.seed}  experiment seeds "
          f"{doc['experiment_seeds']}  passes {len(pass_walls)}")
    print(f"wall_s       {wall_s:.4f} s   (per-run medians over {len(pass_walls)} passes; "
          "pass times " + ", ".join(f"{w:.3f}" for w in pass_walls) + ")")
    if wall_ref_s is not None:
        print(f"wall_ref_s   {wall_ref_s:.4f} s   (wall_s at the reference host speed; "
              "host-speed kernel " + ", ".join(f"{1e3 * k:.2f}" for k in kernel_s)
              + " ms, scale " + ", ".join(f"{f:.3f}" for f in scale) + ")")
    if setup:
        print(f"setup_s      {statistics.median(setup):.4f} s   (median of {len(setup)})")
    print(f"peak_rss_mb  {doc['peak_rss_mb']:.2f} MB")
    print(f"failed_runs  {len(failed)}/{doc['runs']} runs")
    for f in failed:
        tag = "known failure" if f["known"] else "FAILED"
        print(f"  {tag}: {f['id']} seed {f['seed']} ({f['run']}): " + "; ".join(f["reasons"]))
    if doc["catalog_not_in_any_workload"]:
        print("  catalog ids in no workload: " + ", ".join(doc["catalog_not_in_any_workload"]))

    if args.trace:
        cov = result["coverage"] = coverage(args.workload, doc)
        metrics = per_layer_metrics(doc, wall_s, cov)
        result["trace_layers"] = doc["trace"]["layers"]
        print("traced pass (per layer):")
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name:52s} {value:.6g} {unit}")
        for kind, what in (("absent", "no longer exists"),
                           ("uncovered", "expected calls, got none"),
                           ("unexpected", "expected no calls, got some")):
            for name in cov[kind]:
                print(f"  COVERAGE {kind}: {name} ({what})")
    else:
        metrics = {
            "wall_ref_s": (wall_ref_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(run_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"result file: {(run_dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unknown,
        "attempted": doc["runs"],
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
