"""Degradation constructors: blur kernels/matrices, noise quantization,
invertibility detection."""

import math

import numpy as np
import pytest
from scipy.special import erf

from chainlab.channels import (
    AwgnChannel,
    DeterministicMap,
    blur_matrix,
    compose_blurs,
    gaussian_kernel,
    is_invertible,
    quantize_awgn,
)
from chainlab.errors import GridTooNarrow, SupportTooSmall
from chainlab.instances import naive_tree_chain
from chainlab.probability import FiniteDistribution, axis_distribution, assemble_joint
from chainlab.rng import stream_rng


class TestGaussianKernel:
    def test_taps_sum_to_one(self):
        taps = gaussian_kernel(1.5, 6)
        assert abs(taps.sum() - 1.0) < 1e-12

    def test_tiny_sigma_approaches_impulse(self):
        taps = gaussian_kernel(1e-3, 1)
        assert taps[1] > 1.0 - 1e-12
        assert taps[0] < 1e-12

    def test_symmetric_with_expected_center(self):
        sigma, hw = 1.0, 4
        taps = gaussian_kernel(sigma, hw)
        np.testing.assert_allclose(taps, taps[::-1])
        k = np.arange(-hw, hw + 1)
        raw = np.exp(-(k**2) / (2 * sigma**2))
        np.testing.assert_allclose(taps, raw / raw.sum(), atol=1e-15)

    def test_support_too_small(self):
        with pytest.raises(SupportTooSmall):
            gaussian_kernel(2.0, 5)  # needs >= 6


class TestComposeBlurs:
    def test_variances_add(self):
        assert compose_blurs(1.0, math.sqrt(3.0)) == pytest.approx(2.0)

    def test_residual_blur_of_doubled_width(self):
        """sigma2 = 2 sigma1 = 2 leaves a residual of sqrt(3)."""
        sigma1, sigma2 = 1.0, 2.0
        residual = math.sqrt(sigma2**2 - sigma1**2)
        assert compose_blurs(sigma1, residual) == pytest.approx(sigma2)

    def test_discrete_convolution_oracle(self):
        s = 1.5
        hw = 8
        k1 = gaussian_kernel(s, hw)
        k2 = gaussian_kernel(s, hw)
        combined = gaussian_kernel(compose_blurs(s, s), 2 * hw)
        assert np.max(np.abs(np.convolve(k1, k2) - combined)) <= 1e-3


class TestBlurMatrix:
    def test_tiny_sigma_is_identity(self):
        h = blur_matrix(16, 1e-4)
        np.testing.assert_allclose(h.matrix, np.eye(16), atol=1e-12)

    def test_reflect_preserves_constants(self):
        h = blur_matrix(24, 1.7)
        np.testing.assert_allclose(h.apply(np.ones(24)), np.ones(24), atol=1e-12)

    def test_zero_pad_attenuates_edges(self):
        h = blur_matrix(24, 1.7, boundary="zero")
        out = h.apply(np.ones(24))
        assert out[0] < 1.0 - 1e-3
        assert abs(out[12] - 1.0) < 1e-9

    def test_toeplitz_away_from_boundaries(self):
        h = blur_matrix(32, 1.2)
        hw = h.support_halfwidth
        for i in range(hw, 32 - hw - 1):
            np.testing.assert_allclose(h.matrix[i, i - hw : i + hw + 1],
                                       h.matrix[i + 1, i + 1 - hw : i + hw + 2])

    def test_semigroup_on_interior(self):
        """Applying two blurs matches the single combined blur inside."""
        n = 64
        a, b = 1.0, 1.5
        h_a, h_b = blur_matrix(n, a), blur_matrix(n, b)
        h_ab = blur_matrix(n, compose_blurs(a, b))
        x = np.zeros(n)
        x[n // 2] = 1.0
        lhs = h_a.apply(h_b.apply(x))
        rhs = h_ab.apply(x)
        interior = slice(16, n - 16)
        assert np.max(np.abs(lhs[interior] - rhs[interior])) <= 1e-3

    def test_interior_commutation(self):
        n = 64
        h1, h2 = blur_matrix(n, 1.0), blur_matrix(n, 2.0)
        x = np.zeros(n)
        x[n // 2] = 1.0
        diff = h1.apply(h2.apply(x)) - h2.apply(h1.apply(x))
        assert np.max(np.abs(diff[20:-20])) <= 1e-9

    def test_matrix_realizes_kernel_convolution(self):
        """Row application equals direct convolution with the taps inside."""
        n = 48
        h = blur_matrix(n, math.sqrt(3.0))
        rng = stream_rng(21, 0)
        x = rng.standard_normal(n)
        full = np.convolve(x, h.taps())
        hw = h.support_halfwidth
        np.testing.assert_allclose(h.apply(x)[2 * hw : n - 2 * hw],
                                   full[3 * hw : n - hw], atol=1e-12)


class TestQuantizeAwgn:
    def test_tiny_noise_is_near_identity(self):
        grid = np.linspace(-2, 2, 41)
        table = quantize_awgn(AwgnChannel(1e-3), grid, grid)
        np.testing.assert_allclose(table.rows, np.eye(41), atol=1e-12)

    def test_rows_match_erf_differences(self):
        """Each row is the set of CDF bin masses, renormalized."""
        x_grid = np.linspace(-1, 1, 5)
        y_grid = np.linspace(-8, 8, 161)
        table = quantize_awgn(AwgnChannel(1.0), x_grid, y_grid)
        step = y_grid[1] - y_grid[0]
        edges = np.concatenate([[y_grid[0] - step / 2], y_grid + step / 2])
        for i, x in enumerate(x_grid):
            cdf = 0.5 * (1 + erf((edges - x) / math.sqrt(2)))
            mass = np.diff(cdf)
            np.testing.assert_allclose(table.rows[i], mass / mass.sum(), atol=1e-13)

    def test_rows_unimodal_and_centered(self):
        x_grid = np.linspace(-1, 1, 9)
        y_grid = np.linspace(-7, 7, 141)
        table = quantize_awgn(AwgnChannel(0.8), x_grid, y_grid)
        for i, x in enumerate(x_grid):
            row = table.rows[i]
            peak = int(np.argmax(row))
            assert abs(y_grid[peak] - x) <= (y_grid[1] - y_grid[0]) / 2 + 1e-12
            assert np.all(np.diff(row[: peak + 1]) >= -1e-15)
            assert np.all(np.diff(row[peak:]) <= 1e-15)

    def test_prior_convolution_matches_gaussian_sum(self):
        """Pushing a binned Gaussian prior through the table reproduces the
        closed-form convolution of the two Gaussians in total variation."""
        sigma_x, sigma_n = 1.0, 1.0
        x_grid = np.arange(-6, 6.0001, 0.05)
        y_grid = np.arange(-13, 13.0001, 0.05)

        def binned(grid, sigma):
            inner = 0.5 * (grid[1:] + grid[:-1])
            step = grid[1] - grid[0]
            edges = np.concatenate([[grid[0] - step / 2], inner, [grid[-1] + step / 2]])
            mass = np.diff(0.5 * (1 + erf(edges / (sigma * math.sqrt(2)))))
            return mass / mass.sum()

        prior_mass = binned(x_grid, sigma_x)
        table = quantize_awgn(AwgnChannel(sigma_n), x_grid, y_grid)
        pushed = prior_mass @ table.rows
        target = binned(y_grid, math.sqrt(sigma_x**2 + sigma_n**2))
        assert 0.5 * np.sum(np.abs(pushed - target)) <= 1e-3

    def test_grid_too_narrow(self):
        with pytest.raises(GridTooNarrow):
            quantize_awgn(AwgnChannel(2.0), [0.0], np.linspace(-1, 1, 11))


class TestIsInvertible:
    def test_injective_map(self):
        assert is_invertible(DeterministicMap({0: "a", 1: "b", 2: "c"}))

    def test_two_to_one_map(self):
        assert not is_invertible(DeterministicMap({0: "a", 1: "a"}))

    def test_naive_tree_channel_not_invertible(self):
        chain = naive_tree_chain()
        weights = axis_distribution(assemble_joint(chain), "x")
        assert not is_invertible(chain.channel, weights)

    def test_zero_weight_sources_ignored(self):
        chain = naive_tree_chain()
        weights = FiniteDistribution(chain.channel.input_support,
                                     np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert is_invertible(chain.channel, weights)
