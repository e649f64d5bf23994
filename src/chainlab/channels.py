"""Degradation processes: Gaussian blur operators, additive white Gaussian
noise (exact bin-mass quantization), and deterministic maps.

Blur matrices use symmetric boundary reflection by default so that constant
signals pass through unchanged; zero padding is available and documented to
attenuate edges. Kernels are truncated at +-max(3 sigma, requested width) and
renormalized, which keeps the variance-addition composition identity below
1e-3 sup-norm error at the scales used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erf

from .errors import GridTooNarrow, InvalidDistribution, SupportTooSmall
from .probability import ConditionalTable, FiniteDistribution


@dataclass(frozen=True)
class AwgnChannel:
    """Additive white Gaussian noise of standard deviation sigma_n."""

    sigma_n: float

    def __post_init__(self):
        if not self.sigma_n > 0:
            raise InvalidDistribution(f"sigma_n must be > 0, got {self.sigma_n}")


@dataclass(frozen=True)
class DeterministicMap:
    """Total deterministic map between finite supports."""

    mapping: dict

    def is_injective(self) -> bool:
        vals = list(self.mapping.values())
        return len(set(vals)) == len(vals)


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


def compose_blurs(sigma1: float, sigma2: float) -> float:
    """Std of the blur equivalent to applying sigma1 then sigma2 (variances add)."""
    if not (sigma1 > 0 and sigma2 > 0):
        raise SupportTooSmall("blur stds must be positive")
    return math.sqrt(sigma1**2 + sigma2**2)


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
    boundary: str
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=np.float64)

    def taps(self) -> np.ndarray:
        return gaussian_kernel(self.sigma, self.support_halfwidth)


def blur_matrix(
    n: int,
    sigma: float,
    boundary: str = "reflect",
    halfwidth: int | None = None,
) -> BlurOperator:
    """Convolution matrix of a Gaussian of std sigma on signals of length n."""
    if halfwidth is None:
        halfwidth = max(int(math.ceil(3.0 * sigma)), 1)
    if n < 2 * halfwidth + 1:
        raise SupportTooSmall(f"n={n} too short for kernel halfwidth {halfwidth}")
    if boundary not in ("reflect", "zero"):
        raise InvalidDistribution(f"unknown boundary rule {boundary!r}")
    taps = gaussian_kernel(sigma, halfwidth)
    m = np.zeros((n, n))
    for i in range(n):
        for off, t in zip(range(-halfwidth, halfwidth + 1), taps):
            j = i + off
            if 0 <= j < n:
                m[i, j] += t
            elif boundary == "reflect":
                m[i, _reflect_index(j, n)] += t
            # zero padding: mass falls off the edge
    return BlurOperator(sigma=sigma, support_halfwidth=halfwidth, boundary=boundary, matrix=m)


def _gaussian_bin_mass(x: float, sigma: float, edges: np.ndarray) -> np.ndarray:
    z = (edges - x) / (sigma * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + erf(z))
    return np.diff(cdf)


def quantize_awgn(
    channel: AwgnChannel,
    x_grid: Sequence[float],
    y_grid: Sequence[float],
    max_lost_mass: float = 1e-6,
) -> ConditionalTable:
    """Exact bin-mass table for y = x + noise on the given grids.

    Each row assigns to every y-bin the Gaussian CDF difference across the
    bin edges (midpoints between grid nodes), then renormalizes. If any row
    would lose more than max_lost_mass to truncation the grid is too narrow.
    """
    xg = np.asarray(x_grid, dtype=np.float64)
    yg = np.asarray(y_grid, dtype=np.float64)
    if len(yg) < 2:
        raise GridTooNarrow("y grid needs at least two nodes")
    inner = 0.5 * (yg[1:] + yg[:-1])
    first = yg[0] - (inner[0] - yg[0])
    last = yg[-1] + (yg[-1] - inner[-1])
    edges = np.concatenate([[first], inner, [last]])
    rows = np.empty((len(xg), len(yg)))
    for i, x in enumerate(xg):
        mass = _gaussian_bin_mass(float(x), channel.sigma_n, edges)
        total = float(mass.sum())
        if 1.0 - total > max_lost_mass:
            raise GridTooNarrow(
                f"row x={x}: {1.0 - total:.3e} mass outside y grid (> {max_lost_mass})"
            )
        rows[i] = mass / total
    return ConditionalTable(tuple(float(v) for v in xg), tuple(float(v) for v in yg), rows)


def is_invertible(
    channel: DeterministicMap | ConditionalTable,
    input_weights: FiniteDistribution | None = None,
) -> bool:
    """True iff every reachable output has a single positive-probability source.

    For a deterministic map that is plain injectivity. For a stochastic table,
    inputs of zero prior weight (when given) are ignored, since they never
    contribute posterior mass.
    """
    if isinstance(channel, DeterministicMap):
        return channel.is_injective()
    rows = channel.rows
    if input_weights is not None:
        if input_weights.support != channel.input_support:
            raise InvalidDistribution("input weights support != channel input support")
        rows = rows * input_weights.probs[:, None]
    reached = rows.sum(axis=0) > 0
    sources = (rows > 0).sum(axis=0)
    return bool(np.all(sources[reached] == 1))
