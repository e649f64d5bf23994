"""Degradation by Gaussian blur: normalized kernels and convolution matrices.

Blur matrices use symmetric boundary reflection so that constant signals
pass through unchanged; one vectorized scatter-add places every row's taps at
their reflected columns. Kernels are truncated at +-max(3 sigma, requested
width) and renormalized, which keeps the variance-addition composition
identity below 1e-3 sup-norm error at the scales used here.
"""

from __future__ import annotations

import math

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


def blur_matrix(n: int, sigma: float, halfwidth: int | None = None) -> np.ndarray:
    """The read-only n x n convolution matrix of a Gaussian of std sigma on
    signals of length n, cut at halfwidth (default max(ceil(3 sigma), 1))."""
    if halfwidth is None:
        halfwidth = max(int(math.ceil(3.0 * sigma)), 1)
    if n < 2 * halfwidth + 1:
        raise SupportTooSmall(f"n={n} too short for kernel halfwidth {halfwidth}")
    taps = gaussian_kernel(sigma, halfwidth)
    rows = np.arange(n)[:, None]
    cols = rows + np.arange(-halfwidth, halfwidth + 1)
    # Half-sample reflection, -1 -> 0 and n -> n-1; with n >= 2 halfwidth + 1
    # one fold lands every offset inside.
    cols = np.where(cols < 0, -cols - 1, np.where(cols >= n, 2 * n - 1 - cols, cols))
    m = np.zeros((n, n))
    # add.at sums unbuffered, row by row and tap by tap, so taps that fold
    # onto one entry add up in offset order.
    np.add.at(m, (rows, cols), np.broadcast_to(taps, cols.shape))
    m.setflags(write=False)
    return m
