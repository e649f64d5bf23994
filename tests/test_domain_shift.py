"""Mixed-domain averaging: closed-form minimizers, trained linear restorers,
the resolution-shift closed form, and mixed-vs-targeted error gaps.

Training checks compare against independent closed forms: the weighted
least-squares optimum for squared error, coordinatewise medians for
absolute error, and finite-difference gradients at the returned minimizer.
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
    decimation_domains,
    double_meaning_minimizer,
    fit_linear_restorer,
    gaussian_latents,
    linear_map,
    mixed_vs_targeted_report,
    offset_indicator_domains,
    resolution_shift_prediction,
    scaling_domains,
    train_mixed_restorer,
    two_blur_domains,
)
from chainlab.domain_shift import _L1_GAP_RTOL, _training_blocks
from chainlab.errors import ContractViolation, DimensionMismatch, DomainsCoincide
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
        """Targeted training on one invertible linear domain drives the
        held-out error to numerical zero."""
        dom = scaling_domains(6, (1.5,))
        restorer = train_mixed_restorer(dom, epochs=3000, seed=0, batch=256)
        u = stream_rng(62, 0).standard_normal((128, 6))
        err = float(np.mean((restorer.predict(u) - 1.5 * u) ** 2))
        assert err < 1e-6

    def test_two_linear_domains_collapse_to_mean_map(self):
        """Training against both targets lands on the mean-scale map, and
        matches the closed-form least-squares oracle."""
        dim = 8
        dom = scaling_domains(dim, (1.0, 2.0))
        restorer = train_mixed_restorer(dom, epochs=4000, seed=0, batch=512)
        # oracle: W* = E[t y'] E[y y']^{-1} with t the mean target 1.5 y
        u = stream_rng(0, 0).standard_normal((512, dim))  # the training draw
        t = 1.5 * u
        w_star = np.linalg.solve(u.T @ u, u.T @ t).T
        assert np.max(np.abs(restorer.weights - w_star)) <= 1e-6
        fresh = stream_rng(62, 1).standard_normal((256, dim))
        closed = double_meaning_minimizer([fresh, 2.0 * fresh], loss="mse")
        assert np.max(np.abs(restorer.predict(fresh) - closed)) <= 1e-3

    def test_l1_training_follows_median_on_three_domains(self):
        dom = scaling_domains(4, (1.0, 1.0, 4.0))
        restorer = train_mixed_restorer(dom, loss="l1", epochs=6000, seed=0, batch=512)
        assert np.max(np.abs(restorer.weights - np.eye(4))) <= 0.05

    def test_scalar_l1_matches_subgradient_oracle(self):
        """Three scalar domains: an independent Polyak subgradient descent on
        the weight alone, to the same median bound, lands on the same
        (median) map."""
        dom = scaling_domains(1, (1.0, 2.0, 7.0))
        restorer = train_mixed_restorer(dom, loss="l1", epochs=8000, seed=3, batch=1024)
        assert restorer.meta["certified"]
        u = stream_rng(3, 0).standard_normal((1024, 1))
        lb = float(np.mean(np.abs(u - 2.0 * u) + np.abs(7.0 * u - 2.0 * u))) / 3
        w = 0.0
        for _ in range(8000):
            r = [w * u - s * u for s in (1.0, 2.0, 7.0)]
            loss = float(np.mean(sum(np.abs(x) for x in r))) / 3
            if loss <= lb * (1 + _L1_GAP_RTOL):
                break
            g = float(np.mean(sum(np.sign(x) * u for x in r))) / 3
            w -= (loss - lb) / g**2 * g
        assert abs(restorer.weights[0, 0] - w) <= 1e-4
        assert abs(w - 2.0) <= 1e-4  # median scale

    def test_loss_log_non_increasing_for_mse(self):
        dom = scaling_domains(4, (1.0, 3.0))
        restorer = train_mixed_restorer(dom, epochs=2000, seed=1, batch=128)
        log = np.asarray(restorer.loss_log)
        assert len(log) > 1 and np.all(np.diff(log) <= 1e-12 * max(1.0, log[0]))
        assert restorer.check_training()

    def test_coinciding_domains_rejected(self):
        dom = DomainSpec.overlapping(
            [lambda u: u, lambda u: u.copy()], latent_sampler=gaussian_latents(3)
        )
        with pytest.raises(DomainsCoincide):
            train_mixed_restorer(dom, epochs=10)
        with pytest.raises(DomainsCoincide):
            fit_linear_restorer(dom)

    def test_coinciding_disjoint_domains_accepted(self):
        """Only overlapping domains are checked for coinciding inverses: two
        disjoint domains drawing the same inputs with the same inverse fit
        the identity."""
        u = stream_rng(3, 1).standard_normal((64, 3))
        dom = DomainSpec.disjoint([lambda v: v, lambda v: v.copy()],
                                  [lambda rng, n: u[:n]] * 2)
        fit = fit_linear_restorer(dom, batch=64)
        np.testing.assert_allclose(fit.weights, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(fit.bias, np.zeros(3), atol=1e-12)

    @staticmethod
    def _per_domain_descent(dom, loss, epochs, seed, batch):
        """The trainer's epoch written out domain by domain: each block's
        residual, loss and (sub)gradient, weighted and summed. Squared error
        steps by 1/L = b / (2 lambda_max([y 1]'[y 1])); absolute error takes
        Polyak's step to the per-row median bound and stops on it."""
        blocks = _training_blocks(dom, stream_rng(seed, 0), batch)
        y0 = blocks[0][0]
        n_in, n_out = y0.shape[1], blocks[0][1].shape[1]
        w_mat, bias = np.zeros((n_out, n_in)), np.zeros(n_out)
        y1 = np.hstack([y0, np.ones((len(y0), 1))])
        lr = len(y0) / (2.0 * np.linalg.eigvalsh(y1.T @ y1)[-1])
        # Three domains: the lower median of each row is its middle value.
        x = np.stack([t for _, t in blocks])
        lb = float(np.abs(x - np.median(x, axis=0)).sum()) / (x.shape[0] * x.shape[1])
        wgt = 1.0 / len(blocks)
        log = []
        for _ in range(epochs):
            gw, gb, total = np.zeros_like(w_mat), np.zeros_like(bias), 0.0
            for y, x in blocks:
                r = y @ w_mat.T + bias - x
                if loss == "mse":
                    total += wgt * float(np.mean(np.sum(r**2, axis=1)))
                    d = 2.0 * r
                else:
                    total += wgt * float(np.mean(np.sum(np.abs(r), axis=1)))
                    d = np.sign(r)
                gw += wgt / len(y) * d.T @ y
                gb += wgt / len(y) * d.sum(axis=0)
            log.append(total)
            if loss == "l1":
                if total <= lb * (1 + _L1_GAP_RTOL):
                    break
                lr = (total - lb) / (np.sum(gw**2) + np.sum(gb**2))
            w_mat = w_mat - lr * gw
            bias = bias - lr * gb
        return np.array(log), w_mat, bias

    @pytest.mark.parametrize("make,loss,epochs_run", [
        (lambda: scaling_domains(4, (1.0, 1.0, 4.0)), "l1", 37),
        (lambda: two_blur_domains(32, 1.0, 2.0), "mse", 300),
    ])
    def test_stacked_epoch_matches_per_domain_loop(self, make, loss, epochs_run):
        """One stacked residual per epoch computes the per-domain loop's loss
        and step up to summation order: squared error over 300 epochs (before
        its stopping rule's round-off regime), absolute error until it
        certifies."""
        dom = make()
        trained = train_mixed_restorer(dom, loss=loss, epochs=300, seed=5, batch=256)
        assert trained.meta["epochs_run"] == epochs_run
        assert loss == "mse" or trained.meta["certified"]
        log, w_mat, bias = self._per_domain_descent(dom, loss, 300, seed=5, batch=256)
        np.testing.assert_allclose(trained.loss_log, log, rtol=1e-12, atol=0)
        assert np.max(np.abs(trained.weights - w_mat)) <= 1e-10
        assert np.max(np.abs(trained.bias - bias)) <= 1e-10

    def test_disjoint_domains_rejected(self):
        """The trainer stacks targets against one shared input; a disjoint
        spec, whose domains draw their own inputs, is for fit_linear_restorer."""
        dom = offset_indicator_domains(4, 1.0, -1.0, disjoint=True)
        with pytest.raises(ContractViolation):
            train_mixed_restorer(dom, epochs=10)


class TestL1Certificate:
    """The per-row median lower bound on the absolute-error objective, and
    the stop it certifies."""

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
    def test_bound_is_valid_and_the_stop_sound(self, seed, scales):
        dom = scaling_domains(2, scales)
        trained = train_mixed_restorer(dom, loss="l1", epochs=6000, seed=seed, batch=128)
        meta = trained.meta
        y, x = self._training_targets(dom, seed, 128)
        # Three domains: the lower median of each row is its middle value.
        lb = float(np.abs(x - np.median(x, axis=0)).sum()) / (3 * 128)
        assert meta["lower_bound"] == pytest.approx(lb, rel=1e-14)
        assert min(trained.loss_log) >= lb * (1 - 1e-12)
        # The median map is (middle scale) I, so the median fit attains the bound.
        assert self._loss(meta["median_fit"], y, x) == pytest.approx(lb, rel=1e-12)
        assert abs(meta["median_fit_gap"]) <= 1e-12
        middle = sorted(scales)[1]
        assert np.max(np.abs(meta["median_fit"].weights - middle * np.eye(2))) <= 1e-12
        assert meta["certified"]
        assert trained.loss_log[-1] <= lb * (1 + _L1_GAP_RTOL)
        assert self._loss(trained, y, x) == pytest.approx(trained.loss_log[-1], rel=1e-12)
        assert meta["gap_bound"] <= _L1_GAP_RTOL

    def test_certified_stop_only_truncates_the_descent(self, monkeypatch):
        dom = scaling_domains(4, (1.0, 1.0, 4.0))
        stopped = train_mixed_restorer(dom, loss="l1", epochs=6000, seed=5, batch=256)
        monkeypatch.setattr(domain_shift, "_L1_GAP_RTOL", -math.inf)
        full = train_mixed_restorer(dom, loss="l1", epochs=6000, seed=5, batch=256)
        assert stopped.meta["certified"] and not full.meta["certified"]
        n = stopped.meta["epochs_run"]
        assert n < full.meta["epochs_run"]
        assert stopped.loss_log == full.loss_log[:n]

    def test_unattained_bound_returns_the_lowest_loss_iterate(self, monkeypatch):
        # Per-row medians of u, u**3 and 4u: u where |u| <= 1, u**3 up to
        # |u| = 2, 4u beyond; no affine map realizes them.
        dom = DomainSpec.overlapping(
            [lambda u: u, lambda u: u**3, lambda u: 4.0 * u], latent_sampler=gaussian_latents(2)
        )
        trained = train_mixed_restorer(dom, loss="l1", epochs=2000, seed=0, batch=128)
        meta, log = trained.meta, trained.loss_log
        assert meta["epochs_run"] == 2000 and not meta["certified"]
        assert meta["gap_bound"] > 0.1 and meta["median_fit_gap"] > 0.1
        assert min(log) >= meta["lower_bound"]
        # Polyak's step to a bound below the optimum does not descend
        # monotonically: the last iterate is worse than the best one.
        best = log.index(min(log))
        assert best < len(log) - 1 and log[-1] > log[best]
        # The returned weights are the lowest-loss iterate (the last one
        # evaluated by the run capped just after it), and the gap bound is theirs.
        prefix = train_mixed_restorer(dom, loss="l1", epochs=best + 1, seed=0, batch=128)
        assert prefix.loss_log == log[:best + 1]
        np.testing.assert_array_equal(prefix.weights, trained.weights)
        np.testing.assert_array_equal(prefix.bias, trained.bias)
        y, x = self._training_targets(dom, 0, 128)
        lb = meta["lower_bound"]
        assert meta["gap_bound"] == pytest.approx(self._loss(trained, y, x) / lb - 1, rel=1e-12)
        # The bound never triggers, so the run is the one without it.
        monkeypatch.setattr(domain_shift, "_L1_GAP_RTOL", -math.inf)
        plain = train_mixed_restorer(dom, loss="l1", epochs=2000, seed=0, batch=128)
        assert plain.loss_log == log
        np.testing.assert_array_equal(plain.weights, trained.weights)

    def test_polyak_step_never_moves_away_from_the_median_map(self):
        """Fejer monotonicity: on an attained bound, Polyak's step brings the
        weights no farther from the median map [2 I | 0] at any epoch. Runs
        capped at 1..k epochs are prefixes of one run, and each returns its
        lowest-loss iterate."""
        dom = scaling_domains(2, (1.0, 2.0, 7.0))
        full = train_mixed_restorer(dom, loss="l1", epochs=1000, seed=0, batch=128)
        assert full.meta["certified"]
        k = full.meta["epochs_run"]
        dists = []
        for epochs in range(1, k + 1):
            run = train_mixed_restorer(dom, loss="l1", epochs=epochs, seed=0, batch=128)
            assert run.loss_log == full.loss_log[:epochs]
            theta = np.hstack([run.weights - 2.0 * np.eye(2), run.bias[:, None]])
            dists.append(float(np.linalg.norm(theta)))
        assert np.all(np.diff(dists) <= 0.0)
        assert dists[-1] <= 1e-3 * dists[0]

    def test_zero_subgradient_ends_the_run(self, monkeypatch):
        """Domains u and -u: at the zero map every row's signs cancel, so 0 is
        a subgradient and the run ends there rather than divide by it."""
        dom = scaling_domains(2, (1.0, -1.0))
        monkeypatch.setattr(domain_shift, "_L1_GAP_RTOL", -math.inf)
        trained = train_mixed_restorer(dom, loss="l1", epochs=100, seed=0, batch=64)
        assert trained.meta["epochs_run"] == 1 and not trained.meta["certified"]
        assert not np.any(trained.weights) and not np.any(trained.bias)

    def test_squared_error_carries_no_certificate(self):
        trained = train_mixed_restorer(scaling_domains(3, (1.0, 2.0)), epochs=100, seed=0, batch=64)
        assert set(trained.meta) == {"initial_lr", "epochs_run"}


class TestExactFit:
    @pytest.mark.parametrize("make", [
        lambda: scaling_domains(5, (1.0, 3.0)),
        lambda: offset_indicator_domains(4, 1.0, -1.0, disjoint=True),
        lambda: two_blur_domains(32, 1.0, 2.0),
    ])
    def test_weighted_mse_gradient_vanishes(self, make):
        """The gradient of the objective gradient descent minimizes, written
        out block by block, is zero at the fit up to round-off."""
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
        dom = DomainSpec.overlapping(
            [linear_map(np.diag([1.0, 2.0, 3.0])), linear_map(-np.eye(3)),
             lambda u: u**2],
            latent_sampler=gaussian_latents(3),
        )
        fit = fit_linear_restorer(dom, seed=4, batch=200)
        u = stream_rng(4, 0).standard_normal((200, 3))
        mean_target = double_meaning_minimizer([u @ np.diag([1.0, 2.0, 3.0]), -u, u**2])
        design = np.hstack([u, np.ones((200, 1))])
        sol = np.linalg.lstsq(design, mean_target, rcond=None)[0]
        np.testing.assert_allclose(fit.weights, sol[:-1].T, atol=1e-12)
        np.testing.assert_allclose(fit.bias, sol[-1], atol=1e-12)

    def test_gradient_descent_approaches_the_exact_fit(self):
        dom = scaling_domains(4, (1.0, 3.0))
        trained = train_mixed_restorer(dom, epochs=2000, seed=1, batch=128)
        exact = fit_linear_restorer(dom, seed=1, batch=128)
        assert np.max(np.abs(trained.weights - exact.weights)) <= 1e-6
        assert exact.loss_log == () and exact.check_training()


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
        expected = 0.5 * spike + 0.5 * h.matrix[:, n // 2]
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
        """End-to-end: the mixed-trained linear restorer on the two-blur
        instance tracks the closed-form averaged prediction on interior
        samples (declared training tolerance 5e-2)."""
        n = 48
        dom = two_blur_domains(n, 1.0, 2.0)
        restorer = train_mixed_restorer(dom, epochs=4000, seed=0, batch=256)
        rng = stream_rng(63, 1)
        u = rng.standard_normal((8, n)) @ blur_matrix(n, 2.0).matrix.T
        y = u @ blur_matrix(n, 2.0).matrix.T
        predicted = restorer.predict(y)
        closed = np.stack([resolution_shift_prediction(row, 1.0, 2.0) for row in u])
        interior = slice(12, n - 12)
        assert np.max(np.abs(predicted[:, interior] - closed[:, interior])) <= 5e-2

    def test_requires_widening_blur(self):
        with pytest.raises(ContractViolation):
            resolution_shift_prediction(np.zeros(32), 2.0, 1.0)


class TestMixedVsTargeted:
    def test_two_blur_instance_strict_gap(self):
        dom = two_blur_domains(48, 1.0, 2.0)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for mixed, targeted in zip(rep.mixed_errors, rep.targeted_errors):
            assert mixed > targeted + 5e-4

    def test_disjoint_supports_close_the_gap(self):
        """With a domain-revealing coordinate one affine map serves both
        domains exactly, so mixed training matches targeted training."""
        dom = offset_indicator_domains(6, 1.0, -1.0, disjoint=True)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        assert max(abs(g) for g in rep.gaps) <= 1e-6

    def test_overlapping_supports_force_averaging(self):
        dom = offset_indicator_domains(6, 1.0, -1.0, disjoint=False)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for gap in rep.gaps:
            assert gap == pytest.approx(1.0, abs=0.05)  # ((d1 - d2)/2)^2

    def test_single_domain_zero_gap(self):
        dom = scaling_domains(5, (2.0,))
        rep = mixed_vs_targeted_report(dom, seed=0, batch=128)
        assert rep.gaps == (0.0,)

    def test_sampling_rate_domains_force_averaging(self):
        """Full-rate and held-half-rate renderings of the same input open a
        strict per-domain gap under mixed training."""
        dom = decimation_domains(48)
        rep = mixed_vs_targeted_report(dom, seed=0, batch=256)
        for mixed, targeted in zip(rep.mixed_errors, rep.targeted_errors):
            assert mixed > targeted + 5e-4

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
    def _stacked_mixed_errors(dom, seed, batch):
        """Held-out errors of the least-squares fit on all domains' rows
        stacked, M copies of the design over the M targets."""
        blocks = _training_blocks(dom, stream_rng(seed, 0), batch)
        design = np.vstack([np.hstack([y, np.ones((len(y), 1))]) for y, _ in blocks])
        sol = np.linalg.lstsq(design, np.vstack([x for _, x in blocks]), rcond=None)[0]
        errors = []
        for i in range(dom.n_domains):
            u = dom.latent_samplers[i](stream_rng(seed, 1000 + i), 1024)
            y = dom.observation(u)
            pred = y @ sol[:-1] + sol[-1]
            errors.append(float(np.mean((pred - dom.inverses[i](u)) ** 2)))
        return errors

    def test_held_out_errors_are_the_predict_errors_bit_for_bit(self):
        """The report's one-buffer errors are
        np.mean((restorer.predict(y) - x) ** 2) to the last bit, on the
        experiment's default blur domains."""
        dom = two_blur_domains(48, 1.0, 2.0)
        for seed in range(5):
            mixed, targeted = domain_shift._exact_fits(dom, seed, 256)
            expected = ([], [])
            for i, solo in enumerate(targeted):
                u = dom.latent_samplers[i](stream_rng(seed, 1000 + i), 1024)
                y, x = dom.observation(u), dom.inverses[i](u)
                for errors, restorer in zip(expected, (mixed, solo)):
                    errors.append(float(np.mean((restorer.predict(y) - x) ** 2)))
            rep = mixed_vs_targeted_report(dom, seed=seed, batch=256)
            assert rep.mixed_errors == tuple(expected[0])
            assert rep.targeted_errors == tuple(expected[1])

    def test_default_run_peaks_under_1_8_mib(self):
        """One evaluation draw is alive at a time, and each restorer's error
        takes one buffer: an array of 1 024 draws of 48 samples is 0.375 MiB."""
        run_experiment("mixed_vs_targeted", 0, {})  # first-call allocations
        tracemalloc.start()
        try:
            run_experiment("mixed_vs_targeted", 0, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20

    @pytest.mark.parametrize("make", [
        lambda: two_blur_domains(48, 1.0, 2.0),
        lambda: decimation_domains(48),
        lambda: offset_indicator_domains(6, 1.0, -1.0, disjoint=False),
    ])
    def test_mean_of_targeted_fits_is_the_stacked_fit(self, make):
        """Overlapping domains: the mixed restorer, the mean of the targeted
        fits, has the stacked least-squares fit's held-out errors."""
        dom = make()
        for seed in range(5):
            rep = mixed_vs_targeted_report(dom, seed=seed, batch=256)
            np.testing.assert_allclose(rep.mixed_errors,
                                       self._stacked_mixed_errors(dom, seed, 256),
                                       rtol=1e-9, atol=0)
