"""Acceptance suite.

Each test certifies one exit criterion at its stated tolerance and prints a
single PASS/FAIL line (run with -s or -v to see them live). Tolerances are
pinned here, not calibrated elsewhere: closed-form numbers to 5e-4 (two-
decimal rounding of thirds), exact enumeration identities to 1e-10/1e-9,
Monte Carlo to four standard errors, trained models to their declared
training tolerances, and wall-clock budgets where stated.
"""

import json
import math
import time

import numpy as np
import pytest

import chainlab.classification as classification
import chainlab.information as information
from chainlab.channels import blur_matrix, gaussian_kernel
from chainlab.cli import main as cli_main
from chainlab.domain_shift import (
    double_meaning_minimizer,
    fit_linear_restorer,
    mixed_vs_targeted_report,
    offset_indicator_domains,
    resolution_shift_prediction,
    scaling_domains,
    two_blur_domains,
)
from chainlab.information import (
    GaussianMeanFamily,
    LaplaceRateFamily,
    dpi_audit,
    entropy_error_bound_gaussian,
    entropy_error_bound_grid,
    fisher_information,
    quantized_gaussian_mean_family,
    quantized_laplace_rate_family,
    rao_blackwellize,
    sufficiency_check,
)
from chainlab.instances import (
    first_toss_estimator,
    head_count_statistic,
    naive_tree_chain,
    naive_tree_partition,
    random_chain,
    sufficient_statistic_instance,
    two_toss_coin_family,
)
from chainlab.probability import (
    assemble_joint,
    condition,
    marginal,
    mutual_information,
)
from chainlab.restorers import (
    awgn_mean_sampler,
    estimator_variance_mc,
    posterior_sampler,
)
from chainlab.rng import stream_rng
from chainlab.sparse import (
    kernel_matrix,
    l1_map_solve,
    lambda_pipeline_experiment,
    min_spike_separation,
    random_spike_signal,
    recovery_certificate,
)


def record(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_naive_tree_numbers():
    t0 = time.monotonic()
    joint = assemble_joint(naive_tree_chain())
    p_x1 = joint.prob_of(x=1, y=1.5)
    p_x4 = joint.prob_of(x=4, y=1.5)
    post = marginal(condition(joint, "y", 1.5), ["x"])
    x_map = post.supports[0][int(np.argmax(post.tensor))]
    chain = naive_tree_chain()
    lik = chain.channel.rows[:, chain.channel.output_support.index(1.5)]
    x_ml = chain.channel.input_support[int(np.argmax(lik))]
    elapsed = time.monotonic() - t0
    ok = (
        abs(p_x1 - 0.1067) <= 5e-4
        and abs(p_x4 - 0.0667) <= 5e-4
        and x_map in (0, 1, 2)
        and x_ml in (3, 4, 5)
        and elapsed < 1.0
    )
    record(1, "naive tree joint values and mode disagreement", ok,
           f"p_x1={p_x1:.6f} p_x4={p_x4:.6f} map={x_map} ml={x_ml} {elapsed:.2f}s")


def test_criterion_02_error_separability_identity():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(1000):
        rng = stream_rng(1002, i)
        chain = random_chain(rng, 2, int(rng.integers(2, 6)), int(rng.integers(2, 6)), None)
        joint = assemble_joint(chain)
        for stage in ("x", "y"):
            pair = marginal(joint, ["theta", stage])
            rows = pair.tensor / pair.tensor.sum(axis=1, keepdims=True)
            cond = classification.ConditionalTable(chain.prior.support, pair.supports[1], rows)
            pe = classification.bayes_risk(chain.prior, cond)
            j1 = classification.separability(chain.prior, cond)
            worst = max(worst, abs(pe - 0.5 * (1.0 - j1)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    record(2, "error probability equals (1 - separability)/2", ok,
           f"worst gap {worst:.2e} on 1000 chains, {elapsed:.1f}s")


def test_criterion_03_stage_error_ordering():
    t0 = time.monotonic()
    ordered = True
    for i in range(1000):
        rng = stream_rng(1003, i)
        chain = random_chain(
            rng, int(rng.integers(2, 4)), int(rng.integers(3, 6)),
            int(rng.integers(3, 6)), int(rng.integers(3, 6)))
        audit = classification.theorem_ordering_audit(chain, tol=1e-9)
        ordered &= audit.ordered
    max_gap = 0.0
    for i in range(100):
        rng = stream_rng(1004, i)
        chain = random_chain(rng, int(rng.integers(2, 4)), int(rng.integers(3, 6)),
                             int(rng.integers(4, 7)), None, invertible_channel=True)
        audit = classification.theorem_ordering_audit(chain, mode="conditional_perception")
        max_gap = max(max_gap, abs(audit.pe_xhat - audit.pe_x))
    elapsed = time.monotonic() - t0
    ok = ordered and max_gap <= 1e-9 and elapsed < 30.0
    record(3, "Bayes error ordering and class-matched equality", ok,
           f"conditional gap {max_gap:.2e}, {elapsed:.1f}s")


def test_criterion_04_information_ordering_and_sufficiency():
    t0 = time.monotonic()
    monotone = True
    for i in range(1000):
        rng = stream_rng(1005, i)
        chain = random_chain(
            rng, int(rng.integers(2, 4)), int(rng.integers(3, 6)),
            int(rng.integers(3, 6)), int(rng.integers(3, 6)))
        monotone &= dpi_audit(chain).monotone
    matched = True
    for i in range(100):
        rng = stream_rng(1006, i)
        family, statistic, chain = sufficient_statistic_instance(rng)
        equal = dpi_audit(chain).first_equal
        sufficient = sufficiency_check(family, statistic)
        matched &= equal and sufficient
        # a lossy merge must fail both sides of the equivalence
        n_x = len(family.support)
        lossy = {x: 0 for x in family.support}
        lossy[family.support[-1]] = 1 if n_x > 1 else 0
        if n_x > 2:
            eq_lossy = abs(
                mutual_information(assemble_joint(chain), "theta", "x")
                - _merged_information(chain, lossy)
            ) <= 1e-9
            matched &= eq_lossy == sufficiency_check(family, lossy)
    elapsed = time.monotonic() - t0
    ok = monotone and matched
    record(4, "information never grows; equality tracks sufficiency", ok,
           f"{elapsed:.1f}s")


def _merged_information(chain, statistic: dict) -> float:
    joint = assemble_joint(chain)
    pair = marginal(joint, ["theta", "x"]).tensor
    values = [statistic[x] for x in joint.support_of("x")]
    labels = list(dict.fromkeys(values))
    grouped = np.zeros((pair.shape[0], len(labels)))
    for col, v in enumerate(values):
        grouped[:, labels.index(v)] += pair[:, col]
    pa, pb = grouped.sum(axis=1), grouped.sum(axis=0)
    nz = grouped > 0
    return float(np.sum(grouped[nz] * (np.log(grouped[nz]) - np.log(np.outer(pa, pb)[nz]))))


def test_criterion_05_information_closed_forms():
    sigma_x, m_g = 1.0, 10
    gauss = fisher_information(GaussianMeanFamily(sigma_x), 0.0, m_g)
    grid = np.linspace(-6 * sigma_x, 6 * sigma_x, 2001)
    fd_gauss = fisher_information(
        quantized_gaussian_mean_family(sigma_x, grid, theta_domain=(-1, 1)),
        0.0, m_g, step=1e-4 * sigma_x)
    rate, m_l = 2.0, 50
    lap = fisher_information(LaplaceRateFamily(), rate, m_l)
    fd_lap = fisher_information(
        quantized_laplace_rate_family(np.linspace(-5, 5, 2001), theta_domain=(1, 3)),
        rate, m_l, step=1e-4 * rate)
    ok = (
        gauss.J == 1.0 / sigma_x**2
        and gauss.crb == sigma_x**2 / m_g
        and lap.J_m == m_l / rate**2
        and abs(fd_gauss.J - gauss.J) <= 0.01 * gauss.J
        and abs(fd_lap.J - lap.J) <= 0.01 * lap.J
    )
    record(5, "information closed forms vs finite differences", ok,
           f"gauss fd rel {abs(fd_gauss.J - gauss.J):.1e}, laplace fd rel "
           f"{abs(fd_lap.J - lap.J) / lap.J:.1e}")


def test_criterion_06_bound_attainment_by_averaging():
    t0 = time.monotonic()
    m, sigma_x = 10, 1.0
    sampler = awgn_mean_sampler(sigma_x, math.sqrt(m - 1) * sigma_x)
    rep_y = estimator_variance_mc(sampler, "y", 0.0, m, 10_000, seed=1007)
    rep_xhat = estimator_variance_mc(sampler, "xhat", 0.0, m, 10_000, seed=1007)
    elapsed = time.monotonic() - t0
    identical = bool(np.array_equal(rep_y.estimates, rep_xhat.estimates))
    within = abs(rep_y.mse - sigma_x**2) <= 4 * rep_y.mse_stderr
    ok = identical and within and elapsed < 30.0
    record(6, "variance bound attained; both estimators coincide", ok,
           f"mse {rep_y.mse:.4f} (se {rep_y.mse_stderr:.4f}), {elapsed:.1f}s")


def test_criterion_07_double_meaning():
    mean = double_meaning_minimizer(
        [np.array([1.0, 0.0]), np.array([3.0, 8.0])], weights=[0.25, 0.75], loss="mse")
    med = double_meaning_minimizer(
        [np.array([0.0, 5.0]), np.array([0.0, -1.0]), np.array([9.0, 0.0])], loss="l1")
    exact = bool(np.array_equal(mean, np.array([2.5, 6.0]))
                 and np.array_equal(med, np.array([0.0, 0.0])))

    dom = scaling_domains(8, (1.0, 2.0))
    restorer = fit_linear_restorer(dom, seed=0, batch=512)
    u = stream_rng(1008, 0).standard_normal((256, 8))
    trained_gap = float(np.max(np.abs(restorer.predict(u) - 1.5 * u)))

    blur = two_blur_domains(48, 1.0, 2.0)
    rep_blur = mixed_vs_targeted_report(blur, seed=0, batch=256)
    disjoint = offset_indicator_domains(6, 1.0, -1.0, disjoint=True)
    rep_disjoint = mixed_vs_targeted_report(disjoint, seed=0, batch=256)
    ok = (
        exact
        and trained_gap <= 1e-3
        and all(g > 0 for g in rep_blur.gaps)
        and max(abs(g) for g in rep_disjoint.gaps) <= 1e-6
    )
    record(7, "averaging minimizers exact; training collapses accordingly", ok,
           f"trained sup gap {trained_gap:.1e}, blur gaps {tuple(round(g, 5) for g in rep_blur.gaps)}, "
           f"disjoint max {max(abs(g) for g in rep_disjoint.gaps):.1e}")


def test_criterion_08_resolution_shift():
    sigma1, sigma2, n = 1.0, 2.0, 96
    hw = 10
    comp_err = float(np.max(np.abs(
        np.convolve(gaussian_kernel(sigma1, hw), gaussian_kernel(math.sqrt(3.0), hw))
        - gaussian_kernel(sigma2, 2 * hw))))
    rng = stream_rng(1009, 0)
    x2 = blur_matrix(n, sigma1) @ rng.standard_normal(n)
    pred = resolution_shift_prediction(x2, sigma1, sigma2)
    h_res = blur_matrix(n, math.sqrt(sigma2**2 - sigma1**2))
    closed = 0.5 * (np.eye(n) + h_res) @ x2
    interior = slice(24, n - 24)
    pred_err = float(np.max(np.abs(pred[interior] - closed[interior])))
    ok = comp_err <= 1e-3 and pred_err <= 1e-3
    record(8, "resolution-shift averaged prediction and kernel identity", ok,
           f"kernel err {comp_err:.1e}, prediction err {pred_err:.1e}")


def test_criterion_09_sparse_recovery():
    t0 = time.monotonic()
    g = kernel_matrix(1.0, 256, 2.0)
    sep = min_spike_separation(1.0, 2.0)
    x = random_spike_signal(stream_rng(1010, 0), 256, 5, sep)
    sol = l1_map_solve(g @ x, g, mode="constrained", delta=0.0)
    noiseless_err = float(np.max(np.abs(sol.x_hat - x)))

    g64 = kernel_matrix(1.0, 64, 2.0)
    delta = 0.1
    all_hold = True
    for i in range(100):
        rng = stream_rng(1011, i)
        xv = random_spike_signal(rng, 64, 3, sep)
        w = rng.standard_normal(64)
        w *= delta * rng.uniform(0.5, 1.0) / np.sum(np.abs(w))
        s = l1_map_solve(g64 @ xv + w, g64, mode="constrained", delta=delta)
        all_hold &= recovery_certificate(xv, s.x_hat, 1.0, 2.0, delta).holds

    rng = stream_rng(1012, 0)
    y = g64 @ random_spike_signal(rng, 64, 3, sep) + 0.02 * rng.standard_normal(64)
    norms = []
    for lam in np.geomspace(1.0, 1e-4, 15):
        s = l1_map_solve(y, g64, mode="penalized", lam=float(lam), sigma_z=1.0,
                         max_iter=20000)
        norms.append(float(np.sum(np.abs(s.x_hat))))
    monotone = all(norms[i] <= norms[i + 1] + 1e-9 for i in range(len(norms) - 1))
    elapsed = time.monotonic() - t0
    ok = noiseless_err <= 1e-6 and all_hold and monotone and elapsed < 60.0
    record(9, "sparse recovery exactness, certificates, penalty path", ok,
           f"noiseless err {noiseless_err:.1e}, certificates hold {all_hold}, {elapsed:.1f}s")


def test_criterion_10_rate_estimation_pipeline():
    rep = lambda_pipeline_experiment(1.0, 25, 1000, seed=1013, sigma_n=0.1,
                                     restorer="map_l1")
    oracle = lambda_pipeline_experiment(1.0, 25, 1000, seed=1013, sigma_n=0.1,
                                        restorer="norm_oracle")
    ok = (
        rep.mse_restored >= rep.mse_clean - 4 * rep.stderr_paired_diff
        and rep.mse_clean >= rep.crb - 4 * rep.stderr_clean
        and oracle.mse_restored == oracle.mse_clean
    )
    record(10, "restoring before rate estimation never helps", ok,
           f"mse clean {rep.mse_clean:.4f} restored {rep.mse_restored:.4f} crb {rep.crb:.4f}")


def test_criterion_11_auxiliary_bounds():
    fam = two_toss_coin_family()
    improved = rao_blackwellize(fam, first_toss_estimator, head_count_statistic)
    rb_ok = True
    for theta in fam.theta_grid:
        p = fam.pmf(theta)
        f = np.array([first_toss_estimator(x) for x in fam.support])
        g = np.array([improved[head_count_statistic(x)] for x in fam.support])
        rb_ok &= (p @ (g - p @ g) ** 2) <= (p @ (f - p @ f) ** 2) + 1e-9

    sigma = 1.0
    from scipy.special import ndtr

    grid = np.linspace(-8, 8, 4001)
    masses = information.binned_pmf(lambda e: ndtr(e / sigma), grid)
    grid_bound = entropy_error_bound_grid(masses, grid[1] - grid[0])
    gauss_ok = (
        entropy_error_bound_gaussian(sigma) == pytest.approx(sigma**2, rel=1e-12)
        and abs(grid_bound - sigma**2) <= 0.01 * sigma**2
    )

    chain = naive_tree_chain()
    rest = posterior_sampler(assemble_joint(chain))
    gap = classification.pr_gap(chain, rest, naive_tree_partition()).max_gap
    ok = rb_ok and gauss_ok and gap <= 1e-9
    record(11, "conditioning, entropy bound, class-mass preservation", ok,
           f"grid bound {grid_bound:.4f}, sampler gap {gap:.1e}")


def test_criterion_12_deterministic_reports(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nid = crb_gaussian_mean\nseed = 42\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(out_b)]) == 0
    ra = (out_a / "crb_gaussian_mean" / "report.json").read_bytes()
    rb = (out_b / "crb_gaussian_mean" / "report.json").read_bytes()
    ok = ra == rb and len(ra) > 0
    record(12, "byte-identical reports under a fixed seed", ok,
           f"{len(ra)} bytes")
