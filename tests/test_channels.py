"""Degradation constructors: blur kernels and convolution matrices."""

import math

import numpy as np
import pytest

from chainlab.channels import blur_matrix, gaussian_kernel
from chainlab.errors import SupportTooSmall
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

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_scale_must_be_positive(self, sigma):
        with pytest.raises(SupportTooSmall):
            gaussian_kernel(sigma, 4)


class TestComposeBlurs:
    def test_discrete_convolution_oracle(self):
        s = 1.5
        hw = 8
        k1 = gaussian_kernel(s, hw)
        k2 = gaussian_kernel(s, hw)
        combined = gaussian_kernel(math.hypot(s, s), 2 * hw)
        assert np.max(np.abs(np.convolve(k1, k2) - combined)) <= 1e-3


class TestBlurMatrix:
    def test_tiny_sigma_is_identity(self):
        h = blur_matrix(16, 1e-4)
        np.testing.assert_allclose(h, np.eye(16), atol=1e-12)

    def test_signal_shorter_than_kernel_rejected(self):
        with pytest.raises(SupportTooSmall):
            blur_matrix(8, 1.5)  # halfwidth 5 needs n >= 11

    def test_edge_rows_fold_taps_by_half_sample_reflection(self):
        """Offsets -1, -2 land on samples 0, 1 and offsets n, n+1 on n-1, n-2."""
        n, sigma, hw = 12, 1.0, 3
        h = blur_matrix(n, sigma, halfwidth=hw)
        taps = gaussian_kernel(sigma, hw)  # taps[hw + off] weighs x[i + off]
        assert h.shape == (n, n)
        first = np.zeros(n)
        for off in range(-hw, hw + 1):
            j = off if off >= 0 else -off - 1
            first[j] += taps[hw + off]
        np.testing.assert_allclose(h[0], first, atol=1e-15)
        np.testing.assert_allclose(h[n - 1], first[::-1], atol=1e-15)
        np.testing.assert_allclose(h.sum(axis=1), np.ones(n), atol=1e-15)

    @staticmethod
    def _reference_loop(n, sigma, hw):
        """Row by row, tap by tap: each tap folds back by half-sample
        reflection until it lands inside, then adds to its entry."""
        taps = gaussian_kernel(sigma, hw)
        m = np.zeros((n, n))
        for i in range(n):
            for off, t in zip(range(-hw, hw + 1), taps):
                j = i + off
                while j < 0 or j >= n:
                    j = -j - 1 if j < 0 else 2 * n - 1 - j
                m[i, j] += t
        return m

    @pytest.mark.parametrize("n,sigma,hw", [
        # n = 2 hw + 1: every row but the middle one folds taps back
        (3, 0.3, 1), (7, 1.0, 3), (13, 2.0, 6), (21, 1.0, 10),
        (12, 1.0, 3), (16, 1.2, 4), (24, 1.7, 6), (64, 1.5, 5), (128, 2.5, 8),
        # the catalog's operators
        (48, 1.0, None), (48, 2.0, None), (48, math.sqrt(3.0), None),
        (96, 1.0, None), (96, math.sqrt(3.0), None),
        (96, 1.0, 10), (96, 2.0, 10), (96, math.sqrt(3.0), 10),
    ])
    def test_scatter_equals_reference_loop(self, n, sigma, hw):
        h = blur_matrix(n, sigma, halfwidth=hw)
        ref = self._reference_loop(n, sigma, max(math.ceil(3.0 * sigma), 1) if hw is None else hw)
        assert np.array_equal(h, ref)

    def test_matrix_is_read_only(self):
        h = blur_matrix(16, 1.0)
        with pytest.raises(ValueError):
            h[0, 0] = 2.0

    def test_reflect_preserves_constants(self):
        h = blur_matrix(24, 1.7)
        np.testing.assert_allclose(h @ np.ones(24), np.ones(24), atol=1e-12)

    def test_toeplitz_away_from_boundaries(self):
        h = blur_matrix(32, 1.2)
        hw = 4  # ceil(3 sigma)
        for i in range(hw, 32 - hw - 1):
            np.testing.assert_allclose(h[i, i - hw : i + hw + 1],
                                       h[i + 1, i + 1 - hw : i + hw + 2])

    def test_semigroup_on_interior(self):
        """Applying two blurs matches the single combined blur inside."""
        n = 64
        a, b = 1.0, 1.5
        h_a, h_b = blur_matrix(n, a), blur_matrix(n, b)
        h_ab = blur_matrix(n, math.hypot(a, b))
        x = np.zeros(n)
        x[n // 2] = 1.0
        lhs = h_a @ (h_b @ x)
        rhs = h_ab @ x
        interior = slice(16, n - 16)
        assert np.max(np.abs(lhs[interior] - rhs[interior])) <= 1e-3

    def test_interior_commutation(self):
        n = 64
        h1, h2 = blur_matrix(n, 1.0), blur_matrix(n, 2.0)
        x = np.zeros(n)
        x[n // 2] = 1.0
        diff = h1 @ (h2 @ x) - h2 @ (h1 @ x)
        assert np.max(np.abs(diff[20:-20])) <= 1e-9

    def test_matrix_realizes_kernel_convolution(self):
        """Row application equals direct convolution with the taps inside."""
        n, sigma, hw = 48, math.sqrt(3.0), 6  # hw = ceil(3 sigma)
        h = blur_matrix(n, sigma)
        rng = stream_rng(21, 0)
        x = rng.standard_normal(n)
        full = np.convolve(x, gaussian_kernel(sigma, hw))
        np.testing.assert_allclose((h @ x)[2 * hw : n - 2 * hw],
                                   full[3 * hw : n - hw], atol=1e-12)
