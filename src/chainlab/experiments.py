"""Declarative experiment catalog.

Every experiment is a pure function of (params, seed) returning named
results with provenance, boolean verdicts traceable to the library's audited
invariants, and optional CSV tables / plot data. Reports are deterministic:
all randomness flows through (seed, stream-index) generators and nothing
time- or path-dependent enters the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

# The modules load in layer order, not alphabetically: the order sets the
# heap layout left by the import; at most checkout paths the alphabetical one
# read about 0.3 MB more peak RSS on the benchmark's exact_audit workload.
from .errors import ContractViolation, InvalidOverride, UnknownExperiment
from .probability import assemble_joint, condition, marginal, stage_pair
from . import information
from .channels import blur_matrix, gaussian_kernel
from .restorers import (
    _FLAG_SIGMAS,
    _MC_BLOCK,
    awgn_mean_sampler,
    constant_restorer,
    estimator_variance_mc,
    mmse_restorer,
    posterior_sampler,
    with_restorer,
)
from . import classification
from .domain_shift import (
    decimation_domains,
    double_meaning_minimizer,
    fit_linear_restorer,
    fit_median_restorer,
    mixed_vs_targeted_report,
    offset_indicator_domains,
    residual_sigma,
    resolution_shift_prediction,
    scaling_domains,
    two_blur_domains,
)
from .sparse import (
    _ADMM_BLOCK,
    _PIPELINE_COLUMNS,
    check_kernel_size,
    kernel_matrix,
    l1_map_solve,
    lambda_pipeline_experiment,
    min_spike_separation,
    problem_doc,
    random_spike_signal,
    recovery_certificate,
)
from .rng import stream_rng
from . import instances

EXACT = "exact"
MONTE_CARLO = "monte-carlo"


def _py(value: Any) -> Any:
    """Coerce numpy scalars/arrays into plain JSON-serializable Python."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_py(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    return value


def _close(value: float, expected: float, tol: float) -> bool:
    """|value - expected| <= tol |expected|: relative at every magnitude, so an
    equality claim checks as much at 1e-100 as at 1e100."""
    return abs(value - expected) <= tol * abs(expected)


def result(value, provenance: str = EXACT, n: Optional[int] = None, stderr: Optional[float] = None) -> dict:
    doc = {"value": _py(value), "provenance": provenance}
    if provenance == MONTE_CARLO:
        doc["n"] = n
        doc["stderr"] = _py(stderr)
    return doc


@dataclass(frozen=True)
class ParamSpec:
    kind: type
    default: Any
    minimum: Optional[float] = None
    exclusive: bool = True

    def coerce(self, name: str, raw: Any):
        try:
            value = self.kind(raw)
        except (TypeError, ValueError):
            raise InvalidOverride(
                f"parameter {name!r}: cannot read {raw!r} as {self.kind.__name__}"
            ) from None
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise InvalidOverride(f"parameter {name!r}: {raw!r} is not a finite number")
        if self.minimum is not None:
            bad = value <= self.minimum if self.exclusive else value < self.minimum
            if bad:
                cmp = ">" if self.exclusive else ">="
                raise InvalidOverride(f"parameter {name!r}: {value!r} violates {name} {cmp} {self.minimum}")
        return value


@dataclass(frozen=True)
class ExperimentDef:
    exp_id: str
    description: str
    operation: str  # dotted path of the library operation this exercises
    schema: dict
    runner: Callable
    check: Optional[Callable] = None  # cross-parameter invariants; raises ContractViolation


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


# Distance within which the naive tree's joint values match the known case's.
_JOINT_TOL = 5e-4


def _run_naive_tree(params: dict, seed: int):
    chain = instances.naive_tree_chain()
    joint = assemble_joint(chain)
    y_amb = instances.NAIVE_TREE_Y_AMBIGUOUS
    p_x1 = joint.prob_of(x=1, y=y_amb)
    p_x4 = joint.prob_of(x=4, y=y_amb)
    p_y = joint.prob_of(y=y_amb)
    post = condition(joint, "y", y_amb)
    p_class1 = post.prob_of(theta="class1")
    post_x = marginal(post, ["x"])
    x_map = post_x.supports[0][int(np.argmax(post_x.tensor))]
    lik_col = chain.channel.rows[:, chain.channel.output_support.index(y_amb)]
    x_ml = chain.channel.input_support[int(np.argmax(lik_col))]
    mmse = mmse_restorer(joint)
    audit = classification.theorem_ordering_audit(with_restorer(chain, mmse))
    results = {
        "joint_x1_y_ambiguous": result(p_x1),
        "joint_x4_y_ambiguous": result(p_x4),
        "mass_y_ambiguous": result(p_y),
        "posterior_class1_given_y": result(p_class1),
        "posterior_mode_source": result(x_map),
        "likelihood_mode_source": result(x_ml),
        "pe_x": result(audit.pe_x),
        "pe_y": result(audit.pe_y),
        "pe_xhat": result(audit.pe_xhat),
    }
    verdicts = {
        "joint_values_match_known_case": max(abs(p_x1 - 0.1067), abs(p_x4 - 0.0667)) <= _JOINT_TOL,
        "posterior_favors_class1": p_class1 > 0.5 and x_map in (0, 1, 2),
        "likelihood_mode_in_class2_sources": x_ml in (3, 4, 5),
        "map_and_ml_disagree": (x_map in (0, 1, 2)) != (x_ml in (0, 1, 2)),
        "error_ordering_with_mmse": audit.ordered and audit.pe_x == 0.0,
    }
    post_rows = [[str(lab), float(p)] for lab, p in zip(post_x.supports[0], post_x.tensor)]
    tables = {"posterior_sources_given_ambiguous_y": (["source", "probability"], post_rows)}
    plotdata = {"posterior_sources": (["x", "y"], post_rows)}
    return results, verdicts, tables, plotdata


# Alphabet sizes of the random-chain runners' chains: a fixed int, a (low, high)
# range for rng.integers, or None (no restorer).
_CHAIN_SIZES = {"theta": (2, 4), "x": (3, 6), "y": (3, 6), "xhat": (3, 6)}
_PE_SIZES = {"theta": 2, "x": (2, 6), "y": (2, 6), "xhat": None}
_COND_SIZES = {"theta": (2, 4), "x": (3, 6), "y": (4, 7), "xhat": None}

# Streams of the random chains: the runners' chains draw from _CHAIN_STREAM,
# bayes_ordering_audit's conditional chains from _COND_STREAM. A stream s keys
# the size generator (seed, s) and one generator (seed, s, theta, x, y, xhat)
# per drawn shape (xhat 0: no restorer), so no two keys of a run coincide,
# even padded with zeros (see rng.stream_rng).
_CHAIN_STREAM = 1
_COND_STREAM = 2


def _joint_cells(theta, x, y, xhat) -> int:
    """Most cells of one drawn chain's joint: the product of its largest alphabets."""
    return math.prod(s if isinstance(s, int) else s[1] - 1
                     for s in (theta, x, y, xhat) if s is not None)


def _random_chains(seed: int, n: int, stream: int, *, theta, x, y, xhat,
                   invertible: bool = False) -> list:
    """Random chains 0..n-1 as one ``ChainStack`` per drawn shape.

    The generator ``stream_rng(seed, stream)`` draws the alphabet sizes of
    all n chains in one ``integers`` call of shape (n, 4): row i holds chain
    i's theta, x, y and xhat (see ``_CHAIN_SIZES``; a fixed size takes no
    draw, and an xhat of 0 means no restorer). The chains of each drawn shape
    then come, in chain order, from that shape's own generator
    ``stream_rng(seed, stream, theta, x, y, xhat)`` in one
    ``instances.random_chain`` call. Chain i's sizes and tables are thus a
    contiguous run of their streams, the same for every n > i.
    """
    bounds = [(s, s + 1) if isinstance(s, int) else (0, 1) if s is None else s
              for s in (theta, x, y, xhat)]
    low, high = zip(*bounds)
    sizes = stream_rng(seed, stream).integers(low, high, size=(n, 4))
    groups: dict = {}
    for i, shape in enumerate(map(tuple, sizes.tolist())):
        groups.setdefault(shape, []).append(i)
    return [instances.random_chain(stream_rng(seed, stream, *shape), *shape[:3], shape[3] or None,
                                   invertible_channel=invertible, index=index)
            for shape, index in groups.items()]


def _by_chain(stacks: list, audits: list, fields: tuple) -> list:
    """Each field of the stacks' audits joined into chain order, as a Python list."""
    order = np.argsort(np.concatenate([s.index for s in stacks]))
    return [np.concatenate([getattr(a, f) for a in audits])[order].tolist() for f in fields]


def _run_dpi_random_chains(params: dict, seed: int):
    n = int(params["n_chains"])
    stacks = _random_chains(seed, n, _CHAIN_STREAM, **_CHAIN_SIZES)
    audits = [information.dpi_audit(s) for s in stacks]
    i_x, i_y, i_xhat, monotone = _by_chain(
        stacks, audits, ("i_theta_x", "i_theta_y", "i_theta_xhat", "monotone"))
    results = {
        "n_chains": result(n),
        "min_margin_source_vs_measurement": result(min(a - b for a, b in zip(i_x, i_y))),
        "min_margin_measurement_vs_restored": result(min(b - c for b, c in zip(i_y, i_xhat))),
    }
    verdicts = {"information_never_grows_downstream": all(monotone)}
    tables = {
        "mutual_information_by_stage": (
            ["chain", "i_theta_x", "i_theta_y", "i_theta_xhat"],
            [list(r) for r in zip(range(n), i_x, i_y, i_xhat)],
        )
    }
    plotdata = {"stage_information_drop": (["x", "y"], [list(r) for r in zip(i_x, i_xhat)])}
    return results, verdicts, tables, plotdata


def _run_crb_gaussian_mean(params: dict, seed: int):
    sigma_x = float(params["sigma_x"])
    m = int(params["m"])
    theta = float(params["theta"])
    family = information.GaussianMeanFamily(sigma_x)
    analytic = information.fisher_information(family, theta, m)
    grid = np.linspace(theta - 6 * sigma_x, theta + 6 * sigma_x, int(params["grid_points"]))
    quantized = information.quantized_gaussian_mean_family(
        sigma_x, grid, theta_domain=(theta - sigma_x, theta + sigma_x)
    )
    fd = information.fisher_information(quantized, theta, m, step=1e-4 * sigma_x)
    rel = abs(fd.J - analytic.J) / analytic.J
    results = {
        "J_analytic": result(analytic.J),
        "J_finite_difference": result(fd.J),
        "relative_error": result(rel),
        "crb": result(analytic.crb),
        "crb_expected": result(sigma_x**2 / m),
    }
    verdicts = {
        "finite_difference_matches_analytic_1pct": rel <= 0.01,
        "crb_is_sigma2_over_m": _close(analytic.crb, sigma_x**2 / m, 1e-15),
    }
    thetas = np.linspace(theta - 0.5 * sigma_x, theta + 0.5 * sigma_x, 11)
    rows = [
        [float(t), information.fisher_information(quantized, float(t), m, step=1e-4 * sigma_x).J]
        for t in thetas
    ]
    return results, verdicts, {"fd_information_by_theta": (["theta", "J"], rows)}, {
        "fd_information": (["x", "y"], rows)
    }


def _run_crb_laplace_rate(params: dict, seed: int):
    rate = float(params["rate"])
    m = int(params["m"])
    family = information.LaplaceRateFamily()
    analytic = information.fisher_information(family, rate, m)
    halfwidth = 10.0 / rate
    grid = np.linspace(-halfwidth, halfwidth, int(params["grid_points"]))
    quantized = information.quantized_laplace_rate_family(
        grid, theta_domain=(0.5 * rate, 1.5 * rate)
    )
    fd = information.fisher_information(quantized, rate, m, step=1e-4 * rate)
    rel = abs(fd.J - analytic.J) / analytic.J
    results = {
        "J_m_analytic": result(analytic.J_m),
        "J_m_expected": result(m / rate**2),
        "J_finite_difference": result(fd.J),
        "relative_error": result(rel),
    }
    verdicts = {
        "information_is_m_over_rate_squared": _close(analytic.J_m, m / rate**2, 1e-12),
        "finite_difference_matches_analytic_1pct": rel <= 0.01,
    }
    return results, verdicts, {}, {}


def _run_bayes_ordering_audit(params: dict, seed: int):
    n = int(params["n_chains"])
    n_cond = int(params["n_conditional"])
    stacks = _random_chains(seed, n, _CHAIN_STREAM, **_CHAIN_SIZES)
    audits = [classification.theorem_ordering_audit(s) for s in stacks]
    pe_x, pe_y, pe_xhat, ordered = _by_chain(stacks, audits, ("pe_x", "pe_y", "pe_xhat", "ordered"))
    cond_audits = [
        classification.theorem_ordering_audit(s, mode="conditional_perception")
        for s in _random_chains(seed, n_cond, _COND_STREAM, **_COND_SIZES, invertible=True)
    ]
    cond_gap = max(float(np.max(np.abs(a.pe_xhat - a.pe_x))) for a in cond_audits)
    results = {
        "n_chains": result(n),
        "n_conditional_chains": result(n_cond),
        "max_conditional_recovery_gap": result(cond_gap),
    }
    verdicts = {
        "error_never_improves_downstream": all(ordered),
        "class_matched_recovery_preserves_error": cond_gap <= 1e-9,
    }
    table_rows = [list(r) for r in zip(range(n), pe_x, pe_y, pe_xhat)]
    return (
        results,
        verdicts,
        {"stage_errors": (["chain", "pe_x", "pe_y", "pe_xhat"], table_rows)},
        {"stage_errors": (["x", "y"], [list(r) for r in zip(pe_x, pe_xhat)])},
    )


def _run_pe_separability_identity(params: dict, seed: int):
    n = int(params["n_chains"])
    gap = 0.0
    for stack in _random_chains(seed, n, _CHAIN_STREAM, **_PE_SIZES):
        joint = assemble_joint(stack)
        for stage in ("x", "y"):
            pair = stage_pair(joint, stage)
            rows = pair / pair.sum(axis=2, keepdims=True)
            pe = classification.bayes_risk(stack.prior, rows)
            j1 = classification.separability(stack.prior, rows)
            gap = max(gap, float(np.max(np.abs(pe - 0.5 * (1.0 - j1)))))
    results = {"n_chains": result(n), "max_identity_gap": result(gap)}
    verdicts = {"error_equals_half_one_minus_separability": gap <= 1e-10}
    return results, verdicts, {}, {}


# Scales of the overlapping domains the double-meaning runners fit, in
# increasing order: the per-row median of the l1 targets is the middle one.
_MSE_SCALES = (1.0, 2.0)
_L1_SCALES = (1.0, 1.0 + 1e-9, 4.0)


def _map_sup(fit, scale: float) -> float:
    """sup of |W - scale I| and |b|: how far a fit is from the map scale I."""
    return max(float(np.max(np.abs(fit.weights - scale * np.eye(len(fit.bias))))),
               float(np.max(np.abs(fit.bias))))


def _run_double_meaning_mse(params: dict, seed: int):
    closed_pair = double_meaning_minimizer([np.zeros(3), np.array([0.0, 0.0, 9.0])], loss="mse")
    weighted = double_meaning_minimizer([np.array([1.0]), np.array([5.0])],
                                        weights=[0.25, 0.75], loss="mse")
    # The exact fit is the mean of the exact targeted fits 1 I and 2 I.
    fit = fit_linear_restorer(scaling_domains(int(params["dim"]), _MSE_SCALES), seed,
                              int(params["batch"]))
    floor = fit.meta["param_floor"]
    map_sup = _map_sup(fit, sum(_MSE_SCALES) / len(_MSE_SCALES))
    results = {
        "closed_form_pair_mean": result(list(closed_pair)),
        "closed_form_weighted_mean": result(float(weighted[0])),
        "mixed_fit_vs_mean_map_sup": result(map_sup),
        "mean_map_margin": result(floor - map_sup),
    }
    verdicts = {
        "mean_is_exact_minimizer": bool(
            np.array_equal(closed_pair, np.array([0.0, 0.0, 4.5]))
            and weighted[0] == 4.0
        ),
        "trained_model_collapses_to_mean": map_sup <= floor,
    }
    return results, verdicts, {}, {}


def _run_double_meaning_l1(params: dict, seed: int):
    skewed = [np.array([0.0]), np.array([0.0]), np.array([9.0])]
    med = double_meaning_minimizer(skewed, loss="l1")
    mean = double_meaning_minimizer(skewed, loss="mse")
    fit = fit_median_restorer(scaling_domains(int(params["dim"]), _L1_SCALES), seed,
                              int(params["batch"]))
    meta = fit.meta
    map_sup = _map_sup(fit, _L1_SCALES[1])
    gap = meta["optimality_gap"]
    results = {
        "median_of_0_0_9": result(float(med[0])),
        "mean_of_0_0_9": result(float(mean[0])),
        "median_fit_vs_median_map_sup": result(map_sup),
        "median_map_margin": result(meta["weight_floor"] - map_sup),
        "median_fit_optimality_gap": result(gap),
        "median_bound_margin": result(meta["gap_floor"] - abs(gap)),
    }
    verdicts = {
        "l1_minimizer_is_median": med[0] == 0.0 and mean[0] == 3.0,
        "l1_fit_is_median_map": map_sup <= meta["weight_floor"],
        "l1_fit_attains_median_bound": abs(gap) <= meta["gap_floor"],
    }
    return results, verdicts, {}, {}


def _run_resolution_shift(params: dict, seed: int):
    sigma1 = float(params["sigma1"])
    sigma2 = float(params["sigma2"])
    n = int(params["n"])
    sigma_res = residual_sigma(sigma1, sigma2)
    hw = int(math.ceil(4 * sigma2)) + 2
    h1 = gaussian_kernel(sigma1, hw)
    h12 = gaussian_kernel(sigma_res, hw)
    h2 = gaussian_kernel(sigma2, 2 * hw)
    composed = np.convolve(h1, h12)
    comp_err = float(np.max(np.abs(composed - h2)))

    rng = stream_rng(seed, 0)
    x2 = blur_matrix(n, sigma1) @ rng.standard_normal(n)
    pred = resolution_shift_prediction(x2, sigma1, sigma2)
    direct_avg = double_meaning_minimizer([blur_matrix(n, sigma_res) @ x2, x2], loss="mse")
    interior = slice(3 * hw, n - 3 * hw)
    pred_err = float(np.max(np.abs(pred[interior] - direct_avg[interior])))

    # Cut at the default 3-sigma support, the blurs miss the variance-addition
    # identity by up to 1.3e-3; cut at hw, as in the composition check, by
    # about 3e-7.
    m1, m2, m_res = (blur_matrix(n, s, halfwidth=hw) for s in (sigma1, sigma2, sigma_res))
    viability = float(np.max(np.abs((m1 @ (m_res @ x2) - m2 @ x2))[interior]))
    near = resolution_shift_prediction(x2, sigma1, sigma1 * (1 + 1e-9))
    limit_err = float(np.max(np.abs(near - x2)))
    results = {
        "kernel_composition_sup_error": result(comp_err),
        "prediction_vs_target_average_sup": result(pred_err),
        "two_domain_viability_sup": result(viability),
        "equal_blur_limit_sup": result(limit_err),
    }
    verdicts = {
        "kernel_composition_holds": comp_err <= 1e-3,
        "prediction_is_average_of_reconstructions": pred_err <= 1e-3,
        "both_reconstructions_explain_observation": viability <= 1e-3,
        "prediction_degenerates_with_equal_blurs": limit_err <= 1e-6,
    }
    prof = [[i, float(v)] for i, v in enumerate(resolution_shift_prediction(
        np.eye(n)[n // 2], sigma1, sigma2))]
    return results, verdicts, {}, {"unit_spike_prediction": (["x", "y"], prof)}


def _run_mixed_vs_targeted(params: dict, seed: int):
    n, dim = int(params["n"]), int(params["offset_dim"])

    def report(domains):
        return mixed_vs_targeted_report(domains, seed=seed, batch=int(params["batch"]))

    strict = {
        "blur": report(two_blur_domains(n, float(params["sigma1"]), float(params["sigma2"]))),
        "overlapping": report(offset_indicator_domains(dim, 1.0, -1.0, disjoint=False)),
        "sampling_rate": report(decimation_domains(n)),
    }
    rep_disjoint = report(offset_indicator_domains(dim, 1.0, -1.0, disjoint=True))
    rep_single = report(scaling_domains(dim, scales=(1.5,)))
    results = {
        "blur_mixed_risks": result(list(strict["blur"].mixed_risks)),
        "blur_targeted_risks": result(list(strict["blur"].targeted_risks)),
    }
    # A verdict's margin is how far its gaps clear their round-off floors.
    margins = {}
    for name, rep in strict.items():
        margins[name] = min(g - f for g, f in zip(rep.gaps, rep.floors))
        results[f"{name}_gaps"] = result(list(rep.gaps))
        results[f"{name}_averaging_costs"] = result(list(rep.averaging_costs))
        results[f"{name}_gap_margin"] = result(margins[name])
    # The exact fits' disjoint gaps are 0: each fitted gap sits within both floors of it.
    disjoint_margin = min(f + ff - abs(g) for g, f, ff in zip(
        rep_disjoint.gaps, rep_disjoint.floors, rep_disjoint.fit_floors))
    results.update(disjoint_gaps=result(list(rep_disjoint.gaps)),
                   disjoint_gap_margin=result(disjoint_margin),
                   single_domain_gap=result(list(rep_single.gaps)))
    verdicts = {
        "mixed_blur_training_pays_per_domain": margins["blur"] > 0,
        "overlapping_offsets_force_averaging": margins["overlapping"] > 0,
        "disjoint_supports_close_the_gap": disjoint_margin >= 0,
        "single_domain_no_gap": max(abs(g) for g in rep_single.gaps) == 0.0,
        "mixed_sampling_rates_pay_per_domain": margins["sampling_rate"] > 0,
    }
    return results, verdicts, {}, {}


def _run_sparse_noiseless(params: dict, seed: int):
    n, sigma, fs = int(params["n"]), float(params["sigma"]), float(params["fs"])
    g = kernel_matrix(sigma, n, fs)
    rng = stream_rng(seed, 0)
    x = random_spike_signal(rng, n, int(params["n_spikes"]), min_spike_separation(sigma, fs))
    y = g @ x
    sol = l1_map_solve(y, g, mode="constrained", delta=0.0)
    err = float(np.max(np.abs(sol.x_hat - x)))
    # certify against the solution's own residual budget
    delta_eff = float(np.sum(np.abs(y - g @ sol.x_hat)))
    problem = problem_doc(x, sigma, fs, y, sol.x_hat,
                          recovery_certificate(x, sol.x_hat, sigma, fs, delta_eff))
    results = {
        "sup_recovery_error": result(err),
        "solver_iterations": result(sol.iterations),
        "zero_input_returns_zero": result(
            float(np.max(np.abs(l1_map_solve(np.zeros(n), g, mode="constrained", delta=0.0).x_hat)))
        ),
        "problem": result(problem),
    }
    verdicts = {
        "noiseless_recovery_is_exact": err <= 1e-6,
        "solver_converged": sol.converged,
    }
    rows = [[i, float(xv), float(rv)] for i, (xv, rv) in enumerate(zip(x, sol.x_hat))]
    return (
        results,
        verdicts,
        {"signal_vs_recovery": (["index", "truth", "recovered"], rows)},
        {"recovery": (["x", "y"], [[r[0], r[2]] for r in rows])},
    )


# Random stream of the sweep's penalty-path signal; draw i uses stream i.
_PATH_STREAM = 10_000


def _run_sparse_certificates(params: dict, seed: int):
    n, sigma, fs = int(params["n"]), float(params["sigma"]), float(params["fs"])
    draws = int(params["draws"])
    g = kernel_matrix(sigma, n, fs)
    sep = min_spike_separation(sigma, fs)
    delta = float(params["delta"])

    xs, ys = np.zeros((n, draws)), np.zeros((n, draws))
    for i in range(draws):
        rng = stream_rng(seed, i)
        xs[:, i] = random_spike_signal(rng, n, int(params["n_spikes"]), sep)
        w = rng.standard_normal(n)
        w *= delta * rng.uniform(0.5, 1.0) / np.sum(np.abs(w))
        ys[:, i] = g @ xs[:, i] + w
    # All draws are one solve, one column of y per draw.
    sol = l1_map_solve(ys, g, mode="constrained", delta=delta)
    certs = [recovery_certificate(xs[:, i], sol.x_hat[:, i], sigma, fs, delta)
             for i in range(draws)]
    lam_grid = np.geomspace(float(params["lam_max"]), 1e-4, 20)
    rng = stream_rng(seed, _PATH_STREAM)
    x = random_spike_signal(rng, n, int(params["n_spikes"]), sep)
    y = g @ x + 0.01 * rng.standard_normal(n)
    # The whole path is one solve, one column of y per penalty.
    path = l1_map_solve(np.repeat(y[:, None], len(lam_grid), axis=1), g, mode="penalized",
                        lam=lam_grid, sigma_z=1.0)
    norms = [float(np.sum(np.abs(x))) for x in path.x_hat.T]
    path_monotone = all(norms[i] <= norms[i + 1] + 1e-9 for i in range(len(norms) - 1))
    results = {
        "n_draws": result(draws),
        "worst_bound_slack": result(min(c.bound - c.achieved for c in certs)),
        "constrained_unconverged": result(sol.unconverged),
        "constrained_pivots": result(sum(sol.column_iterations)),
        "l1_norm_path": result(norms),
        "penalized_uncertified": result(path.unconverged),
        "penalized_iterations": result(list(path.column_iterations)),
    }
    verdicts = {
        # A bound checked on an inexact solve certifies nothing.
        "error_bound_never_violated": sol.unconverged == 0 and all(c.holds for c in certs),
        # The exact lasso solution's l1 norm is non-increasing in lam.
        "penalty_path_l1_monotone": path.unconverged == 0 and path_monotone,
    }
    path_rows = [[float(l), v] for l, v in zip(lam_grid, norms)]
    return (
        results,
        verdicts,
        {"certificates": (["draw", "holds", "achieved", "bound"],
                          [[i, int(c.holds), c.achieved, c.bound] for i, c in enumerate(certs)])},
        {"penalty_path": (["x", "y"], path_rows)},
    )


def _run_lambda_pipeline(params: dict, seed: int):
    lam, m, r = float(params["rate"]), int(params["m"]), int(params["replicates"])
    # One draw of signals and noise serves both restorers.
    rep, oracle = lambda_pipeline_experiment(
        lambda_true=lam,
        m=m,
        replicates=r,
        seed=seed,
        sigma_n=float(params["sigma_n"]),
        restorer=("map_l1", "norm_oracle"),
        n=int(params["n"]),
    )
    # The clean estimate m / S, S ~ Gamma(m, lam), has mean m lam / (m - 1) and MSE
    # lam^2 [m^2/((m-1)(m-2)) - 2m/(m-1) + 1] = lam^2 (m+2)/((m-1)(m-2)), finite for
    # m >= 3. Its bias b = lam/(m-1) gives the bound (1 + b')^2 / J + b^2 (Kay 1993, §3.5).
    mse_exact = lam**2 * (m + 2) / ((m - 1) * (m - 2))
    crb_biased = lam**2 * (m + 1) / (m - 1) ** 2
    # A replicate restored to zero l1 mass makes the restored MSE infinite: JSON null.
    mse_rest, se_rest = (v if math.isfinite(v) else None
                         for v in (rep.mse_restored, rep.stderr_restored))
    results = {
        "mse_from_clean": result(rep.mse_clean, MONTE_CARLO, r, rep.stderr_clean),
        "mse_from_restored": result(mse_rest, MONTE_CARLO, r, se_rest),
        "crb": result(rep.crb),
        "mse_clean_exact": result(mse_exact),
        "crb_biased": result(crb_biased),
        "oracle_gap": result(abs(oracle.mse_restored - oracle.mse_clean)),
        "penalized_uncertified": result(rep.solver_unconverged),
        "penalized_iterations": result(rep.solver_iterations),
        "penalized_finished": result(rep.solver_finished),
    }
    verdicts = {
        # An MSE measured on unconverged reconstructions says nothing of the minimizer's.
        "restoration_does_not_help": rep.solver_unconverged == 0
        and rep.mse_restored >= rep.mse_clean - _FLAG_SIGMAS * rep.stderr_paired_diff,
        "clean_estimate_respects_bound":
            rep.mse_clean >= rep.crb - _FLAG_SIGMAS * rep.stderr_clean,
        "norm_preserving_oracle_closes_gap": oracle.mse_restored == oracle.mse_clean,
        "clean_mse_matches_exact_within_4se":
            abs(rep.mse_clean - mse_exact) <= _FLAG_SIGMAS * rep.stderr_clean,
        "exact_mse_respects_biased_bound": mse_exact >= crb_biased,
    }
    return results, verdicts, {}, {}


def _run_pr_gap(params: dict, seed: int):
    chain = instances.naive_tree_chain()
    joint = assemble_joint(chain)
    partition = instances.naive_tree_partition()
    sampler = posterior_sampler(joint)
    rep_sampler = classification.pr_gap(chain, sampler, partition)
    const = constant_restorer(chain.channel.output_support, chain.family.output_support, 0)
    rep_const = classification.pr_gap(chain, const, partition)
    mmse = mmse_restorer(joint)
    rep_mmse = classification.pr_gap(chain, mmse, partition)
    results = {
        "sampler_max_gap": result(rep_sampler.max_gap),
        "constant_gap_class2": result(rep_const.gaps["class2"]),
        "mmse_out_of_partition_mass": result(rep_mmse.out_of_partition),
    }
    verdicts = {
        "posterior_sampler_preserves_class_mass": rep_sampler.max_gap <= 1e-9,
        "constant_restorer_gap_equals_prior": abs(rep_const.gaps["class2"] - 0.2) <= 1e-12,
        "conditional_mean_leaves_partition": rep_mmse.out_of_partition > 0.0,
    }
    return results, verdicts, {}, {}


def _run_rao_blackwell(params: dict, seed: int):
    family = instances.two_toss_coin_family()
    improved = information.rao_blackwellize(
        family, instances.first_toss_estimator, instances.head_count_statistic
    )
    rows = []
    reduced_everywhere = True
    mean_preserved = True
    for theta in family.theta_grid:
        p = family.pmf(theta)
        f = np.array([instances.first_toss_estimator(x) for x in family.support])
        g = np.array([improved[instances.head_count_statistic(x)] for x in family.support])
        mean_f = float(p @ f)
        mean_g = float(p @ g)
        var_f = float(p @ (f - mean_f) ** 2)
        var_g = float(p @ (g - mean_g) ** 2)
        rows.append([theta, var_f, var_g])
        reduced_everywhere &= var_g <= var_f + 1e-9
        mean_preserved &= abs(mean_f - mean_g) <= 1e-12
    results = {
        "improved_estimator": result({str(k): v for k, v in improved.items()}),
        "variance_by_theta": result(rows),
    }
    verdicts = {
        "conditioning_never_raises_variance": reduced_everywhere,
        "conditioning_preserves_mean": mean_preserved,
        "improved_values_are_half_head_count": all(
            abs(improved[t] - t / 2.0) <= 1e-12 for t in (0, 1, 2)
        ),
    }
    return results, verdicts, {"variance_by_theta": (["theta", "var_raw", "var_conditioned"], rows)}, {}


def _run_entropy_error_bound(params: dict, seed: int):
    sigma = float(params["sigma"])
    bound1 = information.entropy_error_bound_gaussian(sigma)
    bound4 = information.entropy_error_bound_gaussian(2.0 * sigma)
    grid = np.linspace(-8 * sigma, 8 * sigma, int(params["grid_points"]))
    masses = information.binned_pmf(lambda e: information.normal_cdf(e / sigma), grid)
    binw = float(grid[1] - grid[0])
    bound_grid = information.entropy_error_bound_grid(masses, binw)
    k = int(params["uniform_bins"])
    uniform_bound = information.entropy_error_bound_grid(np.full(k, 1.0 / k), 1.0 / k)
    uniform_mmse_var = 1.0 / 12.0
    results = {
        "gaussian_bound": result(bound1),
        "gaussian_bound_doubled_sigma": result(bound4),
        "gaussian_bound_from_grid": result(bound_grid),
        "uniform_bound": result(uniform_bound),
        "uniform_true_mmse_variance": result(uniform_mmse_var),
    }
    verdicts = {
        "gaussian_bound_equals_variance": _close(bound1, sigma**2, 1e-12)
        and _close(bound4, 4.0 * sigma**2, 1e-12),
        "gridded_bound_within_1pct": abs(bound_grid - sigma**2) <= 0.01 * sigma**2,
        "uniform_bound_below_true_error": uniform_bound <= uniform_mmse_var,
    }
    return results, verdicts, {}, {}


def _run_crb_attainment(params: dict, seed: int):
    sigma_x = float(params["sigma_x"])
    m = int(params["m"])
    replicates = int(params["replicates"])
    sigma_n = math.sqrt((m - 1)) * sigma_x
    sampler = awgn_mean_sampler(sigma_x, sigma_n)
    theta = float(params["theta"])
    rep_y, rep_xhat = (estimator_variance_mc(sampler, stage, theta, m, replicates, seed)
                       for stage in ("y", "xhat"))
    identical = bool(np.array_equal(rep_y.estimates, rep_xhat.estimates))
    results = {
        "mse_measurement_estimator": result(rep_y.mse, MONTE_CARLO, replicates, rep_y.mse_stderr),
        "mse_restored_estimator": result(rep_xhat.mse, MONTE_CARLO, replicates, rep_xhat.mse_stderr),
        "target_variance": result(sigma_x**2),
    }
    verdicts = {
        "variance_attains_bound_within_4se":
            abs(rep_y.mse - sigma_x**2) <= _FLAG_SIGMAS * rep_y.mse_stderr,
        "estimators_coincide_replicate_by_replicate": identical,
        # An error below the bound by more than _FLAG_SIGMAS standard errors
        # is a modeling bug, not luck.
        "no_bound_violation_flag": all(rep.mse >= sigma_x**2 - _FLAG_SIGMAS * rep.mse_stderr
                                       for rep in (rep_y, rep_xhat)),
    }
    return results, verdicts, {}, {}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _f(default, minimum=None):
    return ParamSpec(float, default, minimum)


def _i(default, minimum=None):
    return ParamSpec(int, default, minimum, False)


CATALOG: dict = {}


def _register(exp_id, description, operation, schema, runner, check=None):
    CATALOG[exp_id] = ExperimentDef(exp_id, description, operation, schema, runner, check)


def _need(ok: bool, invariant: str) -> None:
    if not ok:
        raise ContractViolation(f"need {invariant}")


def _need_scale(p: dict, name: str) -> None:
    # The runners square this scale and divide by the square.
    _need(1e-150 <= p[name] <= 1e150, f"1e-150 <= {name} <= 1e150 ({name}**2 is a normal float)")


def _check_crb_gaussian_mean(p: dict) -> None:
    _need_scale(p, "sigma_x")
    _need(abs(p["theta"]) <= 1e10 * p["sigma_x"],
          "|theta| <= 1e10 sigma_x (the finite-difference step 1e-4 sigma_x resolved at theta)")


# Entries of one float array a runner holds: 32 MiB.
_MAX_ARRAY_ENTRIES = 2**22


def _check_sparse_noiseless(p: dict) -> None:
    _need_scale(p, "sigma")
    _need(p["n"] * p["n"] <= _MAX_ARRAY_ENTRIES,
          f"n * n <= {_MAX_ARRAY_ENTRIES} (32 MiB for the n x n kernel)")
    # the runner's constructors: n >= 8 sigma fs, checked without building the
    # kernel, and room for the separated spikes
    check_kernel_size(p["sigma"], p["n"], p["fs"])
    random_spike_signal(stream_rng(0, 0), p["n"], p["n_spikes"],
                        min_spike_separation(p["sigma"], p["fs"]))


def _check_sparse_certificate_sweep(p: dict) -> None:
    _need(p["n"] <= 512, "n <= 512 (a draw's simplex keeps an (n + 1) x (n + 2) basis inverse)")
    # Draw i uses stream i; stream _PATH_STREAM belongs to the penalty path.
    _need(p["draws"] <= _PATH_STREAM,
          f"draws <= {_PATH_STREAM} (draw streams apart from the path's)")
    # The runner stacks every draw's signal and measurement, n x draws each.
    _need(p["n"] * p["draws"] <= _MAX_ARRAY_ENTRIES,
          f"n * draws <= {_MAX_ARRAY_ENTRIES} (32 MiB for the stacked draws)")
    _check_sparse_noiseless(p)


def _check_lambda_pipeline(p: dict) -> None:
    _need_scale(p, "rate")
    _need(p["sigma_n"] == 0 or 1e-150 <= p["sigma_n"] <= 1e150,
          "sigma_n == 0 or 1e-150 <= sigma_n <= 1e150 (sigma_n**2 is a normal float)")
    # The runner streams its draw through the solver a chunk of whole replicates
    # at a time, at most max(m, _PIPELINE_COLUMNS) columns, and keeps only two
    # arrays of one entry per column: the amplitudes and the l1 masses (the
    # solver keeps none). The solver stacks up to _ADMM_BLOCK active-set
    # matrices, n x n each, which also bounds the n x n kernel.
    _need(p["replicates"] * p["m"] <= _MAX_ARRAY_ENTRIES,
          f"replicates * m <= {_MAX_ARRAY_ENTRIES} (32 MiB per array of one entry per column)")
    _need(_ADMM_BLOCK * p["n"] * p["n"] <= _MAX_ARRAY_ENTRIES,
          f"{_ADMM_BLOCK} * n * n <= {_MAX_ARRAY_ENTRIES} (32 MiB for the solver's stacked "
          f"n x n active-set matrices; n <= {math.isqrt(_MAX_ARRAY_ENTRIES // _ADMM_BLOCK)})")
    _need(p["n"] * max(p["m"], _PIPELINE_COLUMNS) <= _MAX_ARRAY_ENTRIES,
          f"n * max(m, {_PIPELINE_COLUMNS}) <= {_MAX_ARRAY_ENTRIES} (32 MiB for a chunk of "
          f"measurements, whole replicates of m columns each)")


def _check_chain_count(p: dict, name: str, cells: int) -> None:
    _need(p[name] * cells <= _MAX_ARRAY_ENTRIES,
          f"{name} * {cells} <= {_MAX_ARRAY_ENTRIES} (32 MiB for the stacked joints, "
          f"up to {cells} cells per chain)")


def _check_bayes_ordering_audit(p: dict) -> None:
    _check_chain_count(p, "n_chains", _joint_cells(**_CHAIN_SIZES))
    # The class-matched restorer's stage has the source alphabet.
    restored = {**_COND_SIZES, "xhat": _COND_SIZES["x"]}
    _check_chain_count(p, "n_conditional", _joint_cells(**restored))


def _check_crb_attainment(p: dict) -> None:
    _need_scale(p, "sigma_x")
    # The runner measures errors of size sigma_x around theta and squares them.
    _need(abs(p["theta"]) <= 1e10 * p["sigma_x"],
          "|theta| <= 1e10 sigma_x (errors of size sigma_x resolved at theta)")
    _need(p["replicates"] <= _MAX_ARRAY_ENTRIES,
          f"replicates <= {_MAX_ARRAY_ENTRIES} (32 MiB for the estimates)")
    _need(2 * _MC_BLOCK * p["m"] <= _MAX_ARRAY_ENTRIES,
          f"2 * {_MC_BLOCK} * m <= {_MAX_ARRAY_ENTRIES} (32 MiB for a block of draws)")


def _check_fit(p: dict, n_domains: int) -> None:
    # The domains' dim x dim maps and the fit's [W | bias], and one (batch, dim)
    # target per domain stacked.
    _need(p["dim"] * (p["dim"] + 1) <= _MAX_ARRAY_ENTRIES,
          f"dim * (dim + 1) <= {_MAX_ARRAY_ENTRIES} (32 MiB for the weights)")
    _need(n_domains * p["batch"] * p["dim"] <= _MAX_ARRAY_ENTRIES,
          f"{n_domains} * batch * dim <= {_MAX_ARRAY_ENTRIES} (32 MiB for the stacked targets)")
    # [W | bias] has dim + 1 unknowns per output, fitted to batch rows.
    _need(p["batch"] > p["dim"], f"batch > dim = {p['dim']} (an affine fit with fewer rows "
          f"than unknowns is not unique)")


def _check_resolution_shift(p: dict) -> None:
    _need(p["n"] * p["n"] <= _MAX_ARRAY_ENTRIES,
          f"n * n <= {_MAX_ARRAY_ENTRIES} (32 MiB for an n x n blur matrix)")
    # A non-empty interior slice(3 hw, n - 3 hw), hw = ceil(4 sigma2) + 2; checked
    # first, it also bounds sigma2 so that sigma2**2 cannot overflow.
    _need(4.0 * p["sigma2"] <= (p["n"] - 1) // 6 - 2, "n > 6 * (ceil(4 sigma2) + 2)")
    residual_sigma(p["sigma1"], p["sigma2"])
    residual_sigma(p["sigma1"], p["sigma1"] * (1 + 1e-9))  # the equal-blur limit


def _check_mixed_vs_targeted(p: dict) -> None:
    _need(p["n"] * p["n"] <= _MAX_ARRAY_ENTRIES,
          f"n * n <= {_MAX_ARRAY_ENTRIES} (32 MiB for an n x n blur matrix)")
    _need(3.0 * p["sigma2"] <= (p["n"] - 1) // 2, "n >= 2 * ceil(3 sigma2) + 1")
    # The runner's probe that the blur domains differ (relative tolerance 1e-5) sees
    # the residual blur as the identity on a typical sample once its taps are below that.
    # Its first off-centre tap, before the kernel's normalization by 1 + 2 tap + ...:
    sigma_res = residual_sigma(p["sigma1"], p["sigma2"])
    tap = math.exp(-0.5 / sigma_res / sigma_res)
    _need(tap > 1e-5, f"the residual blur's first off-centre tap > 1e-5, the relative "
          f"tolerance of the probe that the domains differ (tap {tap:.3g}, std {sigma_res:.3g})")
    _need(p["n"] % 2 == 0, "an even n for the half-rate domain")
    # Each restorer is an affine least-squares fit against [y 1], batch rows per
    # domain: n + 1 columns for the blur and rate domains, offset_dim + 2 for the
    # offset ones (signal, flag, 1). A domain's flag is constant, so only the
    # stacked disjoint mixed design has full rank; in the others the flag column
    # is 0 or +-1 times the ones column, and lstsq returns the minimum-norm fit.
    # Its predictions on each domain's support, all the verdicts read, are still
    # unique with batch > offset_dim + 1 rows, more than the rank offset_dim + 1.
    bound = max(p["n"], p["offset_dim"] + 1)
    _need(p["batch"] > bound, f"batch > max(n, offset_dim + 1) = {bound} (an affine fit "
          f"with fewer rows than unknowns is not unique)")


_register(
    "naive_tree",
    "Two-class toy chain where likelihood and posterior disagree at the shared measurement",
    "classification.theorem_ordering_audit",
    {},
    _run_naive_tree,
)
_register(
    "dpi_random_chains",
    "Mutual information with the class label never grows along random chains",
    "information.dpi_audit",
    {"n_chains": _i(1000, 1)},
    _run_dpi_random_chains,
    lambda p: _check_chain_count(p, "n_chains", _joint_cells(**_CHAIN_SIZES)),
)
_register(
    "crb_gaussian_mean",
    "Gaussian location information 1/sigma^2 and bound sigma^2/m, analytic vs finite difference",
    "information.fisher_information",
    {
        "sigma_x": _f(1.0, 0.0),
        "m": _i(10, 1),
        "theta": ParamSpec(float, 0.0),
        "grid_points": _i(2001, 51),
    },
    _run_crb_gaussian_mean,
    _check_crb_gaussian_mean,
)
_register(
    "crb_laplace_rate",
    "Sparsity-rate information m/rate^2, analytic vs finite difference on a grid",
    "information.fisher_information",
    {
        "rate": _f(2.0, 0.0),
        "m": _i(50, 1),
        "grid_points": _i(2001, 51),
    },
    _run_crb_laplace_rate,
    lambda p: _need_scale(p, "rate"),
)
_register(
    "bayes_ordering_audit",
    "Bayes error ordering across chain stages; class-matched recovery preserves it",
    "classification.theorem_ordering_audit",
    {"n_chains": _i(1000, 1), "n_conditional": _i(100, 1)},
    _run_bayes_ordering_audit,
    _check_bayes_ordering_audit,
)
_register(
    "pe_separability_identity",
    "Bayes error equals (1 - separability)/2 on random binary chains",
    "classification.separability",
    {"n_chains": _i(1000, 1)},
    _run_pe_separability_identity,
    lambda p: _check_chain_count(p, "n_chains", _joint_cells(**_PE_SIZES)),
)
_register(
    "double_meaning_mse",
    "The squared-error minimizer against several valid targets is their mean, fitted exactly",
    "domain_shift.double_meaning_minimizer",
    {
        "dim": _i(8, 1),
        "batch": _i(512, 8),
    },
    _run_double_meaning_mse,
    lambda p: _check_fit(p, len(_MSE_SCALES)),
)
_register(
    "double_meaning_l1",
    "The absolute-error minimizer against several valid targets is their median, fitted exactly",
    "domain_shift.double_meaning_minimizer",
    {
        "dim": _i(4, 1),
        "batch": _i(512, 8),
    },
    _run_double_meaning_l1,
    lambda p: _check_fit(p, len(_L1_SCALES)),
)
_register(
    "resolution_shift",
    "Two blur levels explain one observation; the averaged prediction and kernel identity",
    "domain_shift.resolution_shift_prediction",
    {
        "sigma1": _f(1.0, 0.0),
        "sigma2": _f(2.0, 0.0),
        "n": _i(96, 48),
    },
    _run_resolution_shift,
    _check_resolution_shift,
)
_register(
    "mixed_vs_targeted",
    "Per-domain population risk of one shared restorer vs per-domain restorers",
    "domain_shift.mixed_vs_targeted_report",
    {
        "n": _i(48, 16),
        "sigma1": _f(1.0, 0.0),
        "sigma2": _f(2.0, 0.0),
        "offset_dim": _i(6, 1),
        "batch": _i(256, 8),
    },
    _run_mixed_vs_targeted,
    _check_mixed_vs_targeted,
)
_register(
    "sparse_noiseless_recovery",
    "Well-separated spikes are recovered exactly from noiseless blurred data",
    "sparse.l1_map_solve",
    {
        "n": _i(256, 16),
        "n_spikes": _i(5, 1),
        "sigma": _f(1.0, 0.0),
        "fs": _f(2.0, 0.0),
    },
    _run_sparse_noiseless,
    _check_sparse_noiseless,
)
_register(
    "sparse_certificate_sweep",
    "The closed-form recovery bound holds on every seeded noisy draw; penalty path is monotone",
    "sparse.recovery_certificate",
    {
        "n": _i(64, 16),
        "draws": _i(100, 1),
        "n_spikes": _i(3, 1),
        "sigma": _f(1.0, 0.0),
        "fs": _f(2.0, 0.0),
        "delta": _f(0.1, 0.0),
        "lam_max": _f(1.0, 0.0),
    },
    _run_sparse_certificates,
    _check_sparse_certificate_sweep,
)
_register(
    "lambda_pipeline",
    "Estimating the sparsity rate after reconstruction never beats the clean-signal estimate",
    "sparse.lambda_pipeline_experiment",
    {
        "rate": _f(1.0, 0.0),
        "m": _i(25, 3),
        "replicates": _i(1000, 2),
        "sigma_n": ParamSpec(float, 0.1, 0.0, False),
        "n": _i(24, 16),
    },
    _run_lambda_pipeline,
    _check_lambda_pipeline,
)
_register(
    "pr_gap",
    "Class-mass drift of restorers: posterior sampling preserves it, point maps may not",
    "classification.pr_gap",
    {},
    _run_pr_gap,
)
_register(
    "rao_blackwell_demo",
    "Conditioning a crude estimator on a sufficient statistic never raises variance",
    "information.rao_blackwellize",
    {},
    _run_rao_blackwell,
)
_register(
    "entropy_error_bound",
    "Exponentiated-entropy lower bound on squared estimation error, with Gaussian equality",
    "information.entropy_error_bound_gaussian",
    {
        "sigma": _f(1.0, 0.0),
        "grid_points": _i(4001, 101),
        "uniform_bins": _i(1000, 10),
    },
    _run_entropy_error_bound,
    lambda p: _need_scale(p, "sigma"),
)
_register(
    "crb_attainment",
    "Averaging construction where measurement- and restoration-side estimators coincide",
    "restorers.estimator_variance_mc",
    {
        "sigma_x": _f(1.0, 0.0),
        "m": _i(10, 2),
        "theta": ParamSpec(float, 0.0),
        "replicates": _i(10000, 100),
    },
    _run_crb_attainment,
    _check_crb_attainment,
)


def list_experiments() -> list:
    """Catalog entries as (id, description, operation) sorted by id."""
    return [(d.exp_id, d.description, d.operation) for d in
            sorted(CATALOG.values(), key=lambda d: d.exp_id)]


def resolve_params(exp_id: str, overrides: Optional[dict] = None) -> dict:
    if exp_id not in CATALOG:
        raise UnknownExperiment(f"unknown experiment {exp_id!r}")
    schema = CATALOG[exp_id].schema
    overrides = overrides or {}
    unknown = set(overrides) - set(schema)
    if unknown:
        raise InvalidOverride(f"unknown parameter(s) for {exp_id}: {sorted(unknown)}")
    params = {}
    for name, spec in schema.items():
        raw = overrides.get(name, spec.default)
        params[name] = spec.coerce(name, raw)
    if CATALOG[exp_id].check is not None:
        try:
            CATALOG[exp_id].check(params)
        except ContractViolation as exc:
            raise InvalidOverride(f"parameters of {exp_id}: {exc}") from None
    return params


def run_experiment(exp_id: str, seed: int = 0, overrides: Optional[dict] = None):
    """Execute one experiment; returns (report_dict, tables, plotdata)."""
    params = resolve_params(exp_id, overrides)
    results, verdicts, tables, plotdata = CATALOG[exp_id].runner(params, int(seed))
    report = {
        "experiment": exp_id,
        "seed": int(seed),
        "params": {k: _py(v) for k, v in sorted(params.items())},
        "results": results,
        "verdicts": {k: bool(v) for k, v in verdicts.items()},
        "all_passed": all(bool(v) for v in verdicts.values()),
    }
    return report, tables, plotdata
