"""Workload definitions: which catalog experiments each workload runs, at which
seeds, and which traced layers it is expected to call (or never call).

The four workloads partition the 17-experiment catalog, so the catalog wall
time is the sum of their ``wall_s``.

Each workload has:
- ``ids``: the catalog experiments of one pass, at default parameters.
- ``seeds_per_pass``: experiment seeds per pass, derived from the workload seed.
- ``pass_s``: nominal seconds of one pass on the 2-core baseline machine. A run
  makes ``round(seconds / pass_s)`` passes, at least one, so the number of
  experiment runs depends only on ``--seconds``, never on how fast the host
  happens to be.
- ``expect_calls`` / ``expect_none``: traced layers the coverage self-check
  expects to be called, or never called, on this workload.
- ``recheck``: experiments run once more after the timed pass when a run makes
  only one pass, so that every run still compares report.json files
  of the same (id, seed) byte for byte. lambda_pipeline is too long to repeat.
"""

from __future__ import annotations

import json
from pathlib import Path

# Traced layer names, as tracer.py names its spans.
L1_CONSTRAINED = "sparse.l1_map_solve.constrained"
L1_PENALIZED = "sparse.l1_map_solve.penalized"
SPARSE = (L1_CONSTRAINED, L1_PENALIZED, "sparse.operator_norm_sq",
          "sparse.lambda_pipeline_experiment", "sparse.recovery_certificate")
TRAINERS = ("domain_shift.train_mixed_restorer", "domain_shift.mixed_vs_targeted_report")
ENGINE = (
    "instances.random_chain",
    "probability.assemble_joint",
    "information.dpi_audit",
    "information.fisher_information",
    "classification.theorem_ordering_audit",
    "classification.bayes_risk",
    "classification.separability",
    "restorers.estimator_variance_mc",
)
GLUE = ("cli.main", "experiments.run_experiment")

EXACT_AUDIT_IDS = ("naive_tree", "dpi_random_chains", "crb_gaussian_mean", "crb_laplace_rate",
                   "bayes_ordering_audit", "pe_separability_identity", "pr_gap",
                   "rao_blackwell_demo", "entropy_error_bound", "crb_attainment")

WORKLOADS = {
    # The sweep's solver work varies by about 20% from seed to seed, so a pass
    # runs it at 2 seeds.
    "sparse_certify": {
        "ids": ("sparse_noiseless_recovery", "sparse_certificate_sweep"),
        "seeds_per_pass": 2,
        "pass_s": 62.0,
        "expect_calls": GLUE + (L1_CONSTRAINED, L1_PENALIZED, "sparse.operator_norm_sq",
                                "sparse.recovery_certificate"),
        "expect_none": TRAINERS,
        "recheck": ("sparse_noiseless_recovery",),
    },
    "sparse_batch": {
        "ids": ("lambda_pipeline",),
        "seeds_per_pass": 1,
        "pass_s": 17.0,
        "expect_calls": GLUE + (L1_PENALIZED, "sparse.operator_norm_sq",
                                "sparse.lambda_pipeline_experiment"),
        "expect_none": (L1_CONSTRAINED,) + TRAINERS,
        "recheck": (),
    },
    "domain_train": {
        "ids": ("mixed_vs_targeted", "double_meaning_mse", "double_meaning_l1",
                "resolution_shift"),
        "seeds_per_pass": 1,
        "pass_s": 10.5,
        "expect_calls": GLUE + TRAINERS,
        "expect_none": SPARSE,
        "recheck": ("double_meaning_mse", "double_meaning_l1", "resolution_shift"),
    },
    # One seed of these takes only about 2.5 s, so a pass runs each at 2 seeds.
    "exact_audit": {
        "ids": EXACT_AUDIT_IDS,
        "seeds_per_pass": 2,
        "pass_s": 4.6,
        "expect_calls": GLUE + ENGINE,
        "expect_none": SPARSE + TRAINERS,
        "recheck": EXACT_AUDIT_IDS,
    },
}

KNOWN_FAILURES_FILE = Path(__file__).with_name("known_failures.json")


def experiment_seeds(workload: str, seed: int) -> list:
    """Experiment seeds one pass of ``workload`` runs at, derived from ``seed``."""
    k = WORKLOADS[workload]["seeds_per_pass"]
    return [seed * k + j for j in range(k)]


def passes(workload: str, seconds: float) -> int:
    """Timed passes of one run: as many nominal passes as fit in ``seconds``."""
    return max(1, round(seconds / WORKLOADS[workload]["pass_s"]))


def known_failures() -> dict:
    """{experiment id: {verdict name: note}} of recorded, unfixed defects."""
    doc = json.loads(KNOWN_FAILURES_FILE.read_text())
    out: dict = {}
    for entry in doc["failures"]:
        out.setdefault(entry["id"], {})[entry["verdict"]] = entry["note"]
    return out
