"""Mixed-domain averaging: closed-form minimizers, fitted linear restorers,
the resolution-shift closed form, and mixed-vs-targeted error gaps.

Fits are checked against independent closed forms: the weighted
least-squares optimum for squared error, coordinatewise medians for
absolute error, and the objective's gradient at the returned minimizer.
Closed-form population risks are checked against Monte Carlo means.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlab import domain_shift
from chainlab.channels import blur_matrix, gaussian_kernel
from chainlab.domain_shift import (
    DomainSpec,
    LinearRestorer,
    decimation_domains,
    double_meaning_minimizer,
    fit_linear_restorer,
    fit_median_restorer,
    mixed_vs_targeted_report,
    offset_indicator_domains,
    resolution_shift_prediction,
    scaling_domains,
    two_blur_domains,
)
from chainlab.domain_shift import _training_blocks
from chainlab.errors import ContractViolation, DimensionMismatch, DomainsCoincide, Diverged
from chainlab.experiments import run_experiment
from chainlab.rng import stream_rng


class TestMinimizer:
    def test_two_equal_domains_average(self):
        x1, x2 = np.array([1.0, 2.0]), np.array([3.0, -2.0])
        np.testing.assert_allclose(
            double_meaning_minimizer([x1, x2], loss="mse"), [2.0, 0.0]
        )

    def test_identical_targets_any_loss(self):
        x = np.array([0.5, 0.25])
        for loss in ("mse", "l1"):
            np.testing.assert_array_equal(double_meaning_minimizer([x, x, x], loss=loss), x)

    def test_median_vs_mean_on_skewed_targets(self):
        targets = [np.array([0.0]), np.array([0.0]), np.array([9.0])]
        assert double_meaning_minimizer(targets, loss="l1")[0] == 0.0
        assert double_meaning_minimizer(targets, loss="mse")[0] == 3.0

    def test_weighted_mean_exact(self):
        got = double_meaning_minimizer(
            [np.array([1.0]), np.array([5.0])], weights=[0.25, 0.75], loss="mse"
        )
        assert got[0] == 4.0

    def test_even_tie_takes_lower_median(self):
        got = double_meaning_minimizer([np.array([0.0]), np.array([1.0])], loss="l1")
        assert got[0] == 0.0

    def test_weighted_median(self):
        got = double_meaning_minimizer(
            [np.array([0.0]), np.array([1.0]), np.array([5.0])],
            weights=[0.6, 0.2, 0.2],
            loss="l1",
        )
        assert got[0] == 0.0

    def test_permutation_invariance(self):
        rng = stream_rng(61, 0)
        targets = [rng.standard_normal(5) for _ in range(4)]
        a = double_meaning_minimizer(targets, loss="l1")
        b = double_meaning_minimizer(targets[::-1], loss="l1")
        np.testing.assert_array_equal(a, b)

    def test_l1_matches_per_coordinate_loop(self):
        """The vectorised weighted lower median equals a per-coordinate sort,
        cumsum and searchsorted exactly, ties and zero weights included."""

        def lower_median(values, weights):
            order = np.argsort(values, kind="stable")
            cum = np.cumsum(weights[order])
            idx = int(np.searchsorted(cum, 0.5 * cum[-1] - 1e-15))
            return values[order][min(idx, len(values) - 1)]

        rng = stream_rng(61, 2)
        for trial in range(200):
            m = int(rng.integers(1, 7))
            vals = rng.integers(-2, 3, (m, 5)).astype(float) if trial % 2 else rng.standard_normal((m, 5))
            w = rng.integers(0, 4, m).astype(float)
            w = np.full(m, 1.0 / m) if w.sum() == 0 or trial % 3 == 0 else w / w.sum()
            if abs(w.sum() - 1.0) > 1e-12:
                continue
            got = double_meaning_minimizer(list(vals), weights=w, loss="l1")
            want = [lower_median(vals[:, k], w) for k in range(5)]
            np.testing.assert_array_equal(got, want)

    def test_mse_minimizer_has_zero_gradient(self):
        """Finite-difference gradient of the weighted quadratic vanishes at
        the returned point."""
        rng = stream_rng(61, 1)
        targets = [rng.standard_normal(4) for _ in range(3)]
        w = np.array([0.2, 0.5, 0.3])
        xhat = double_meaning_minimizer(targets, weights=w, loss="mse")

        def objective(v):
            return sum(wi * np.sum((v - t) ** 2) for wi, t in zip(w, targets))

        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            grad = (objective(xhat + e) - objective(xhat - e)) / (2 * h)
            assert abs(grad) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            double_meaning_minimizer([np.zeros(2), np.zeros(3)])


class TestTrainedRestorer:
    def test_single_domain_recovers_inverse(self):
        """The fit to one invertible linear domain drives the held-out error
        to numerical zero."""
        dom = scaling_domains(6, (1.5,))
        restorer = fit_linear_restorer(dom, seed=0, batch=256)
        u = stream_rng(62, 0).standard_normal((128, 6))
        err = float(np.mean((restorer.predict(u) - 1.5 * u) ** 2))
        assert err < 1e-6

    def test_two_linear_domains_collapse_to_mean_map(self):
        """The fit against both targets lands on the mean-scale map, and
        matches the closed-form least-squares oracle."""
        dim = 8
        dom = scaling_domains(dim, (1.0, 2.0))
        restorer = fit_linear_restorer(dom, seed=0, batch=512)
        # oracle: W* = E[t y'] E[y y']^{-1} with t the mean target 1.5 y
        u = stream_rng(0, 0).standard_normal((512, dim))  # the training draw
        t = 1.5 * u
        w_star = np.linalg.solve(u.T @ u, u.T @ t).T
        assert np.max(np.abs(restorer.weights - w_star)) <= 1e-6
        fresh = stream_rng(62, 1).standard_normal((256, dim))
        closed = double_meaning_minimizer([fresh, 2.0 * fresh], loss="mse")
        assert np.max(np.abs(restorer.predict(fresh) - closed)) <= 1e-3

    def test_coinciding_domains_rejected(self):
        dom = DomainSpec.overlapping([np.eye(3), np.eye(3)], factor=np.eye(3))
        with pytest.raises(DomainsCoincide):
            fit_linear_restorer(dom)
        with pytest.raises(DomainsCoincide):
            fit_median_restorer(dom, seed=0, batch=64)

    def test_coinciding_disjoint_domains_accepted(self):
        """Only overlapping domains are checked for coinciding inverses: two
        disjoint blocks drawing the same inputs with the same targets pass the
        check, and two disjoint domains with the same inverse fit the
        identity."""
        twice = [np.eye(3)] * 2
        dom = DomainSpec(inverses=twice, offsets=[np.zeros(3)] * 2, factors=twice,
                         means=[np.zeros(3)] * 2, observation=np.eye(3), mode=domain_shift.DISJOINT)
        y = stream_rng(5, 0).standard_normal((64, 3))
        domain_shift._check_domains_distinct(dom, [(y, y), (y, y)])
        fit = fit_linear_restorer(dom, batch=64)
        np.testing.assert_allclose(fit.weights, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(fit.bias, np.zeros(3), atol=1e-12)

    def test_overlapping_spec_shares_one_latent_law(self):
        """Overlapping domains are drawn once, from the first factor and mean,
        so a spec whose factors or means differ is rejected."""
        pair = [np.eye(2), 2.0 * np.eye(2)]
        zeros = [np.zeros(2)] * 2
        with pytest.raises(ContractViolation):
            DomainSpec(pair, zeros, pair, zeros, np.eye(2), domain_shift.OVERLAPPING)
        with pytest.raises(ContractViolation):
            DomainSpec(pair, zeros, [np.eye(2)] * 2, [np.zeros(2), np.ones(2)], np.eye(2),
                       domain_shift.OVERLAPPING)
        DomainSpec(pair, zeros, pair, zeros, np.eye(2), domain_shift.DISJOINT)

    def test_disjoint_domains_rejected(self):
        """The median fit stacks targets against one shared input; a disjoint
        spec, whose domains draw their own inputs, is for fit_linear_restorer."""
        dom = offset_indicator_domains(4, 1.0, -1.0, disjoint=True)
        with pytest.raises(ContractViolation):
            fit_median_restorer(dom, seed=0, batch=64)

    @pytest.mark.parametrize("weights, bias", [
        (np.array([[np.nan, 0.0]]), np.zeros(1)),
        (np.eye(2), np.array([0.0, np.inf])),
    ])
    def test_non_finite_fit_raises_diverged(self, weights, bias):
        with pytest.raises(Diverged, match="fit"):
            LinearRestorer(weights=weights, bias=bias, meta={})


class TestMedianFit:
    """The least-squares fit to the per-row medians, the per-row median lower
    bound on the absolute-error objective, and their round-off floors."""

    @staticmethod
    def _training_targets(dom, seed, batch):
        blocks = _training_blocks(dom, stream_rng(seed, 0), batch)
        return blocks[0][0], np.stack([t for _, t in blocks])

    @staticmethod
    def _loss(restorer, y, x):
        return float(np.abs(restorer.predict(y) - x).sum()) / (x.shape[0] * x.shape[1])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 20),
           scales=st.sampled_from([(1.0, 1.0 + 1e-9, 4.0), (1.0, 2.0, 7.0), (0.5, 3.0, -1.0)]))
    def test_fit_is_the_median_map_and_attains_the_bound(self, seed, scales):
        dom = scaling_domains(2, scales)
        fit = fit_median_restorer(dom, seed=seed, batch=128)
        meta = fit.meta
        y, x = self._training_targets(dom, seed, 128)
        # Three domains: the lower median of each row is its middle value.
        lb = float(np.abs(x - np.median(x, axis=0)).sum()) / (3 * 128)
        assert meta["lower_bound"] == pytest.approx(lb, rel=1e-14)
        # The median map is (middle scale) I, so the fit attains the bound.
        assert self._loss(fit, y, x) == pytest.approx(lb, rel=1e-12)
        assert abs(meta["optimality_gap"]) <= meta["gap_floor"] <= 1e-10
        middle = sorted(scales)[1]
        assert np.max(np.abs(fit.weights - middle * np.eye(2))) <= meta["weight_floor"] <= 1e-10
        assert np.max(np.abs(fit.bias)) <= meta["weight_floor"]

    def test_fit_is_the_trainers_median_fit_bit_for_bit(self):
        """The fit is np.linalg.lstsq of [y 1] against the per-row medians,
        as the absolute-error trainer's ``median_fit`` was."""
        dom = scaling_domains(4, (1.0, 1.0 + 1e-9, 4.0))
        for seed in range(3):
            y, x = self._training_targets(dom, seed, 256)
            design = np.hstack([y, np.ones((256, 1))])
            sol = np.linalg.lstsq(design, double_meaning_minimizer(x, loss="l1"), rcond=None)[0]
            fit = fit_median_restorer(dom, seed=seed, batch=256)
            assert fit.weights.tobytes() == sol[:-1].T.tobytes()
            assert fit.bias.tobytes() == sol[-1].tobytes()

    def test_unattained_bound_reads_above_its_floor(self):
        """Inverses I, -I and a rotation: a row's per-coordinate medians mix
        the three maps by the signs of its inputs, which no affine map
        realizes, so the fit's loss clears the bound by far more than
        round-off."""
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        dom = DomainSpec.overlapping([np.eye(2), -np.eye(2), rot], factor=np.eye(2))
        meta = fit_median_restorer(dom, seed=0, batch=128).meta
        assert meta["optimality_gap"] > 0.05
        assert meta["gap_floor"] < 1e-10

    def test_squared_error_carries_no_certificate(self):
        """The squared-error fit records only its round-off bound: no median
        bound, optimality gap or gap floor."""
        fit = fit_linear_restorer(scaling_domains(3, (1.0, 2.0)), seed=0, batch=64)
        assert set(fit.meta) == {"param_floor"}


class TestExactFit:
    @pytest.mark.parametrize("make", [
        lambda: scaling_domains(5, (1.0, 3.0)),
        lambda: offset_indicator_domains(4, 1.0, -1.0, disjoint=True),
        lambda: two_blur_domains(32, 1.0, 2.0),
    ])
    def test_weighted_mse_gradient_vanishes(self, make):
        """The gradient of the multi-domain squared error, written out block
        by block, is zero at the fit up to round-off."""
        dom = make()
        fit = fit_linear_restorer(dom, seed=2, batch=96)
        blocks = _training_blocks(dom, stream_rng(2, 0), 96)
        wgt = 1.0 / len(blocks)

        def gradient(w_mat, bias):
            gw, gb = np.zeros_like(w_mat), np.zeros_like(bias)
            for y, x in blocks:
                r = y @ w_mat.T + bias - x
                gw += wgt * (2.0 / len(y)) * r.T @ y
                gb += wgt * (2.0 / len(y)) * r.sum(axis=0)
            return np.concatenate([gw.ravel(), gb])

        at_zero = gradient(np.zeros_like(fit.weights), np.zeros_like(fit.bias))
        at_fit = gradient(fit.weights, fit.bias)
        assert np.linalg.norm(at_fit) <= 1e-10 * np.linalg.norm(at_zero)

    def test_overlapping_fit_is_fit_to_weighted_mean_target(self):
        """Shared inputs: the mixed minimizer is the least-squares fit to
        the mean of the domains' targets, each domain weighing 1/3."""
        rng = stream_rng(4, 1)
        factor, obs, third = (rng.standard_normal((3, 3)) for _ in range(3))
        inverses = [np.diag([1.0, 2.0, 3.0]), -np.eye(3), third]
        offsets = [np.zeros(3), np.ones(3), np.array([0.5, -2.0, 0.0])]
        dom = DomainSpec.overlapping(inverses, factor=factor, observation=obs, offsets=offsets)
        fit = fit_linear_restorer(dom, seed=4, batch=200)
        u = stream_rng(4, 0).standard_normal((200, 3)) @ factor.T
        mean_target = double_meaning_minimizer([u @ t.T + c for t, c in zip(inverses, offsets)])
        design = np.hstack([u @ obs.T, np.ones((200, 1))])
        sol = np.linalg.lstsq(design, mean_target, rcond=None)[0]
        np.testing.assert_allclose(fit.weights, sol[:-1].T, atol=1e-12)
        np.testing.assert_allclose(fit.bias, sol[-1], atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: scaling_domains(5, (1.0, 3.0)),
        lambda: two_blur_domains(32, 1.0, 2.0),
        lambda: offset_indicator_domains(6, 1.0, -1.0, disjoint=False),
    ])
    def test_overlapping_fits_are_the_per_domain_blocks_solve_bit_for_bit(self, make):
        """Building [y 1] and the side-by-side targets from the stacked draw
        changes no bit: each targeted fit is lstsq of [y 1] against the
        per-domain blocks' targets laid side by side, and the mixed fit is
        their mean."""
        dom = make()
        for seed in range(3):
            mixed, targeted = domain_shift._exact_fits(dom, seed, 96)
            blocks = _training_blocks(dom, stream_rng(seed, 0), 96)
            design = np.hstack([blocks[0][0], np.ones((96, 1))])
            sol = np.linalg.lstsq(design, np.hstack([x for _, x in blocks]), rcond=None)[0]
            per = sol.reshape(sol.shape[0], len(blocks), -1).transpose(1, 0, 2)
            for fit, theta in zip((mixed, *targeted), (per.mean(axis=0), *per)):
                assert fit.weights.tobytes() == theta[:-1].T.tobytes(), seed
                assert fit.bias.tobytes() == theta[-1].tobytes(), seed


class TestResolutionShift:
    def test_equal_blur_limit_returns_input(self):
        x2 = stream_rng(63, 0).standard_normal(48)
        out = resolution_shift_prediction(x2, 1.0, 1.0 * (1 + 1e-9))
        np.testing.assert_allclose(out, x2, atol=1e-9)

    def test_unit_spike_profile(self):
        """Prediction on a unit spike is half the spike plus half the
        residual kernel profile."""
        n = 64
        spike = np.zeros(n)
        spike[n // 2] = 1.0
        out = resolution_shift_prediction(spike, 1.0, 2.0)
        h = blur_matrix(n, math.sqrt(3.0))
        expected = 0.5 * spike + 0.5 * h[:, n // 2]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_kernel_composition_identity(self):
        """Residual kernel convolved with the fine blur reproduces the
        coarse blur."""
        hw = 10
        h1 = gaussian_kernel(1.0, hw)
        h12 = gaussian_kernel(math.sqrt(3.0), hw)
        h2 = gaussian_kernel(2.0, 2 * hw)
        assert np.max(np.abs(np.convolve(h1, h12) - h2)) <= 1e-3

    def test_trained_blur_restorer_approximates_prediction(self):
        """End-to-end: the mixed linear fit on the two-blur instance tracks
        the closed-form averaged prediction on interior samples (declared
        tolerance 5e-2)."""
        n = 48
        dom = two_blur_domains(n, 1.0, 2.0)
        restorer = fit_linear_restorer(dom, seed=0, batch=256)
        rng = stream_rng(63, 1)
        u = rng.standard_normal((8, n)) @ blur_matrix(n, 2.0).T
        y = u @ blur_matrix(n, 2.0).T
        predicted = restorer.predict(y)
        closed = np.stack([resolution_shift_prediction(row, 1.0, 2.0) for row in u])
        interior = slice(12, n - 12)
        assert np.max(np.abs(predicted[:, interior] - closed[:, interior])) <= 5e-2

    def test_requires_widening_blur(self):
        with pytest.raises(ContractViolation):
            resolution_shift_prediction(np.zeros(32), 2.0, 1.0)


# The five specs the mixed_vs_targeted experiment reports on, at its defaults.
_REPORT_SPECS = [
    lambda: two_blur_domains(48, 1.0, 2.0),
    lambda: offset_indicator_domains(6, 1.0, -1.0, disjoint=False),
    lambda: offset_indicator_domains(6, 1.0, -1.0, disjoint=True),
    lambda: scaling_domains(6, (1.5,)),
    lambda: decimation_domains(48),
]


class TestMixedVsTargeted:
    def test_two_blur_instance_strict_gap(self):
        """Each blur domain pays the averaging cost, far above round-off:
        1.775652e-3 at seed 0."""
        dom = two_blur_domains(48, 1.0, 2.0)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for gap, floor, cost in zip(rep.gaps, rep.floors, rep.averaging_costs):
            assert gap > 1e6 * floor
            assert gap == pytest.approx(cost, rel=1e-11)
            assert gap == pytest.approx(1.775652e-3, rel=1e-6)

    def test_disjoint_supports_close_the_gap(self):
        """With a domain-revealing coordinate one affine map serves both
        domains exactly, so mixed training matches targeted training."""
        dom = offset_indicator_domains(6, 1.0, -1.0, disjoint=True)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        assert all(abs(g) <= f <= 1e-20 for g, f in zip(rep.gaps, rep.floors))
        assert rep.averaging_costs is None

    @pytest.mark.parametrize("dim, batch", [(6, 256), (60, 62)])
    def test_fit_floors_cover_the_fits_distance_from_exact(self, dim, batch):
        """Disjoint offsets +-1 with flags +-1: the exact mixed fit maps
        (s, f) to s + f, and exact targeted fit i, whose flag column equals
        its ones column on its support, is the minimum-norm split
        s + (f + d_i) / 2. Each
        fit's parameters sit within its param_floor of these, and each gap
        within its two floors of the exact fits' gap, 0, also where the
        targeted design is nearly square (batch = dim + 2)."""
        dom = offset_indicator_domains(dim, 1.0, -1.0, disjoint=True)
        eye, flag = np.eye(dim, dim + 1), np.zeros((dim, dim + 1))
        flag[:, dim] = 1.0
        for seed in range(5):
            mixed, targeted = domain_shift._exact_fits(dom, seed, batch)
            for fit, w, b in ((mixed, eye + flag, 0.0), (targeted[0], eye + 0.5 * flag, 0.5),
                              (targeted[1], eye + 0.5 * flag, -0.5)):
                dist = math.hypot(np.linalg.norm(fit.weights - w), np.linalg.norm(fit.bias - b))
                assert dist <= fit.meta["param_floor"], (seed, dist, fit.meta)
            rep = mixed_vs_targeted_report(dom, seed=seed, batch=batch)
            for g, f, ff in zip(rep.gaps, rep.floors, rep.fit_floors):
                assert abs(g) <= f + ff
        report = run_experiment("mixed_vs_targeted", 0, {"offset_dim": dim, "batch": batch})[0]
        assert report["all_passed"]

    def test_overlapping_supports_force_averaging(self):
        dom = offset_indicator_domains(6, 1.0, -1.0, disjoint=False)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for gap, cost in zip(rep.gaps, rep.averaging_costs):
            assert gap == pytest.approx(1.0, rel=1e-14)  # ((d1 - d2)/2)^2
            assert cost == 1.0

    def test_single_domain_zero_gap(self):
        dom = scaling_domains(5, (2.0,))
        rep = mixed_vs_targeted_report(dom, seed=0, batch=128)
        assert rep.gaps == (0.0,) and rep.averaging_costs == (0.0,)

    def test_sampling_rate_domains_force_averaging(self):
        """Full-rate and held-half-rate renderings of the same input open a
        strict per-domain gap under mixed training."""
        dom = decimation_domains(48)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for gap, floor, cost in zip(rep.gaps, rep.floors, rep.averaging_costs):
            assert gap > 1e6 * floor
            assert gap == pytest.approx(cost, rel=1e-11)
            assert gap == pytest.approx(2.141449e-3, rel=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: two_blur_domains(32, 1.0, 2.0),
        lambda: offset_indicator_domains(4, 1.0, -1.0, disjoint=False),
        lambda: offset_indicator_domains(4, 1.0, -1.0, disjoint=True),
        lambda: scaling_domains(3, (2.0,)),
    ])
    def test_one_training_draw_per_report(self, make, monkeypatch):
        """The mixed and the targeted restorers all fit the same draw."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _training_blocks(*args, **kwargs)

        monkeypatch.setattr(domain_shift, "_training_blocks", counting)
        mixed_vs_targeted_report(make(), seed=1, batch=64)
        assert len(calls) == 1

    @staticmethod
    def _monte_carlo_risk(dom, i, restorer, draws):
        """Mean over fresh draws from domain i of ||W y + b - x||^2 / n_out,
        and its standard error, in blocks of 2^13 draws."""
        rng = stream_rng(71, i)
        f, mu = dom.factors[i], dom.means[i]
        per_draw = []
        for _ in range(draws // 2**13):
            u = rng.standard_normal((2**13, f.shape[1])) @ f.T + mu
            err = restorer.predict(u @ dom.observation.T) - (u @ dom.inverses[i].T + dom.offsets[i])
            per_draw.append(np.mean(err**2, axis=1))
        per_draw = np.concatenate(per_draw)
        return per_draw.mean(), per_draw.std(ddof=1) / np.sqrt(draws)

    @pytest.mark.parametrize("make", _REPORT_SPECS)
    def test_closed_form_risk_is_the_monte_carlo_mean(self, make):
        """Each restorer's closed-form risk agrees with its mean squared
        error on 2^16 fresh draws within 4 standard errors, plus the
        report's round-off floor: the risks of exact fits are round-off,
        and so are their Monte Carlo errors."""
        dom = make()
        mixed, targeted = domain_shift._exact_fits(dom, 0, 256)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for i, solo in enumerate(targeted):
            for restorer, risk in ((mixed, rep.mixed_risks[i]), (solo, rep.targeted_risks[i])):
                mean, stderr = self._monte_carlo_risk(dom, i, restorer, 2**16)
                assert abs(mean - risk) <= 4.0 * stderr + rep.floors[i], (i, mean, risk)

    def test_default_run_peaks_under_1_mib(self):
        """No draw is evaluated, so the training draw and its least-squares
        solve set the peak: at n = 48 and batch 256, the blur or rate
        domains' inputs and two targets, the one 256 x 49 design, the
        256 x 96 right-hand sides and lstsq's copies of both (0.72 MiB
        measured at seed 0). The fits' residuals are formed one column at a
        time, and each closed-form risk takes only n x n products."""
        run_experiment("mixed_vs_targeted", 0, {})  # first-call allocations
        tracemalloc.start()
        try:
            run_experiment("mixed_vs_targeted", 0, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * 2**20

    @pytest.mark.parametrize("make", [
        lambda: two_blur_domains(48, 1.0, 2.0),
        lambda: decimation_domains(48),
        lambda: offset_indicator_domains(6, 1.0, -1.0, disjoint=False),
    ])
    def test_mean_of_targeted_fits_is_the_stacked_fit(self, make):
        """Overlapping domains: the mixed restorer, the mean of the targeted
        fits, has the risks of the least-squares fit on all domains' rows
        stacked, M copies of the design over the M targets."""
        dom = make()
        for seed in range(5):
            blocks = _training_blocks(dom, stream_rng(seed, 0), 256)
            design = np.vstack([np.hstack([y, np.ones((len(y), 1))]) for y, _ in blocks])
            sol = np.linalg.lstsq(design, np.vstack([x for _, x in blocks]), rcond=None)[0]
            stacked = domain_shift._exact_restorer(sol, 0.0)
            rep = mixed_vs_targeted_report(dom, seed=seed, batch=256)
            np.testing.assert_allclose(
                rep.mixed_risks, [domain_shift._risk(dom, i, stacked)[0] for i in range(2)],
                rtol=1e-9, atol=0)
