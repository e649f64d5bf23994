"""Degradation by Gaussian blur: normalized kernels and convolution matrices.

Blur matrices use symmetric boundary reflection so that constant signals
pass through unchanged. Kernels are truncated at +-max(3 sigma, requested
width) and renormalized, which keeps the variance-addition composition
identity below 1e-3 sup-norm error at the scales used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportTooSmall


def gaussian_kernel(sigma: float, halfwidth: int) -> np.ndarray:
    """Normalized symmetric Gaussian taps on offsets -halfwidth..halfwidth."""
    if not sigma > 0:
        raise SupportTooSmall(f"sigma must be > 0, got {sigma}")
    if halfwidth < math.ceil(3.0 * sigma):
        raise SupportTooSmall(
            f"halfwidth {halfwidth} < 3 sigma = {3.0 * sigma:.3f}: truncates too much mass"
        )
    k = np.arange(-halfwidth, halfwidth + 1, dtype=np.float64)
    taps = np.exp(-(k**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def _reflect_index(j: int, n: int) -> int:
    # symmetric (half-sample) reflection: -1 -> 0, n -> n-1
    while j < 0 or j >= n:
        j = -j - 1 if j < 0 else 2 * n - 1 - j
    return j


@dataclass(frozen=True)
class BlurOperator:
    """Dense n x n convolution matrix for a normalized Gaussian kernel."""

    sigma: float
    support_halfwidth: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=np.float64)


def blur_matrix(n: int, sigma: float, halfwidth: int | None = None) -> BlurOperator:
    """Convolution matrix of a Gaussian of std sigma on signals of length n."""
    if halfwidth is None:
        halfwidth = max(int(math.ceil(3.0 * sigma)), 1)
    if n < 2 * halfwidth + 1:
        raise SupportTooSmall(f"n={n} too short for kernel halfwidth {halfwidth}")
    taps = gaussian_kernel(sigma, halfwidth)
    m = np.zeros((n, n))
    for i in range(n):
        for off, t in zip(range(-halfwidth, halfwidth + 1), taps):
            j = i + off
            m[i, j if 0 <= j < n else _reflect_index(j, n)] += t
    return BlurOperator(sigma=sigma, support_halfwidth=halfwidth, matrix=m)
