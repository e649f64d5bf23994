"""Fisher information, information-bound reports, and chain audits.

Named continuous families (Gaussian location, Laplace rate) carry analytic
information; finite table families fall back to a central finite-difference
score with step h = 1e-4 * max(|theta|, 1), which balances truncation
against cancellation at 64-bit precision. The step is overridable.

Continuous statements are bridged to finite arithmetic explicitly: densities
are quantized to grids by CDF bin masses, and differential entropy of a
gridded density is H_binned + log(binwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation, NotSufficient
from .probability import (
    ChainStack,
    PipelineChain,
    assemble_joint,
    pair_information,
    stage_pair,
)

FD_STEP_SCALE = 1e-4
MI_EQUALITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMeanFamily:
    """x ~ Normal(theta, sigma_x^2); theta is the unknown location."""

    sigma_x: float

    def __post_init__(self):
        if not self.sigma_x > 0:
            raise ContractViolation(f"sigma_x must be > 0, got {self.sigma_x}")

    def fisher(self, theta: float) -> float:
        return 1.0 / self.sigma_x**2


@dataclass(frozen=True)
class LaplaceRateFamily:
    """log-likelihood log(lambda) - lambda * |x|_1; theta is the rate lambda > 0.

    The l1 mass of a draw is exponential with this rate, which is all the
    information depends on.
    """

    def fisher(self, theta: float) -> float:
        if not theta > 0:
            raise ContractViolation(f"rate must be > 0, got {theta}")
        return 1.0 / theta**2


@dataclass(frozen=True)
class TableFamily:
    """Finite-outcome family: a pmf over a fixed support for every theta.

    ``pmf_fn(theta)`` must return the probability vector. Families built from
    tabulated rows interpolate linearly in theta between grid nodes (a convex
    combination, so rows stay normalized).
    """

    support: tuple
    pmf_fn: Callable[[float], np.ndarray]
    theta_domain: tuple
    theta_grid: Optional[tuple] = None

    def __post_init__(self):
        lo, hi = self.theta_domain
        if not lo < hi:
            raise ContractViolation(f"empty theta domain {self.theta_domain}")

    def pmf(self, theta: float) -> np.ndarray:
        lo, hi = self.theta_domain
        if not (lo <= theta <= hi):
            raise ContractViolation(f"theta {theta} outside domain [{lo}, {hi}]")
        p = np.asarray(self.pmf_fn(theta), dtype=np.float64)
        if p.shape != (len(self.support),):
            raise ContractViolation("pmf_fn returned wrong-length vector")
        return p

    @classmethod
    def from_rows(cls, theta_grid: Sequence[float], rows, support=None) -> "TableFamily":
        grid = np.asarray(theta_grid, dtype=np.float64)
        if np.any(np.diff(grid) <= 0):
            raise ContractViolation("theta grid must be strictly increasing")
        table = np.asarray(rows, dtype=np.float64)
        if table.shape[0] != len(grid):
            raise ContractViolation("one row per theta grid node required")
        if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-12):
            raise ContractViolation("every tabulated row must be a distribution")
        if support is None:
            support = tuple(range(table.shape[1]))

        def interp(theta: float) -> np.ndarray:
            i = int(np.searchsorted(grid, theta, side="right") - 1)
            i = min(max(i, 0), len(grid) - 2)
            t0, t1 = grid[i], grid[i + 1]
            w = 0.0 if t1 == t0 else (theta - t0) / (t1 - t0)
            return (1.0 - w) * table[i] + w * table[i + 1]

        return cls(
            support=tuple(support),
            pmf_fn=interp,
            theta_domain=(float(grid[0]), float(grid[-1])),
            theta_grid=tuple(float(g) for g in grid),
        )


ScalarParamFamily = GaussianMeanFamily | LaplaceRateFamily | TableFamily


def binned_pmf(cdf: Callable[[np.ndarray], np.ndarray], grid: Sequence[float]) -> np.ndarray:
    """Bin masses of a continuous law on a grid (edges at node midpoints)."""
    g = np.asarray(grid, dtype=np.float64)
    inner = 0.5 * (g[1:] + g[:-1])
    edges = np.concatenate([[g[0] - (inner[0] - g[0])], inner, [g[-1] + (g[-1] - inner[-1])]])
    mass = np.diff(cdf(edges))
    mass = np.clip(mass, 0.0, None)
    return mass / mass.sum()


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x / sqrt(2)), elementwise with ``math.erfc``."""
    z = -np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, count=z.size)
    return 0.5 * erfc.reshape(z.shape)


def quantized_gaussian_mean_family(sigma_x: float, grid: Sequence[float],
                                   theta_domain: tuple) -> TableFamily:
    """Gaussian location family quantized to a fixed outcome grid."""
    g = tuple(float(v) for v in grid)

    def pmf(theta: float) -> np.ndarray:
        return binned_pmf(lambda e: normal_cdf((e - theta) / sigma_x), g)

    return TableFamily(support=g, pmf_fn=pmf, theta_domain=theta_domain)


def quantized_laplace_rate_family(grid: Sequence[float], theta_domain: tuple) -> TableFamily:
    """Double-exponential family quantized to a fixed outcome grid; theta is the rate."""
    g = tuple(float(v) for v in grid)

    def pmf(lam: float) -> np.ndarray:
        def cdf(e: np.ndarray) -> np.ndarray:
            e = np.asarray(e, dtype=np.float64)
            return np.where(e < 0, 0.5 * np.exp(lam * e), 1.0 - 0.5 * np.exp(-lam * e))

        return binned_pmf(cdf, g)

    return TableFamily(support=g, pmf_fn=pmf, theta_domain=theta_domain)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def fd_step(theta: float) -> float:
    return FD_STEP_SCALE * max(abs(theta), 1.0)


@dataclass(frozen=True)
class InfoReport:
    """Per-sample Fisher information and the m-sample variance bound."""

    J: float
    m: int

    def __post_init__(self):
        if self.J < 0:
            raise ContractViolation(f"Fisher information cannot be negative: {self.J}")
        if self.m < 1:
            raise ContractViolation(f"sample count must be >= 1, got {self.m}")

    @property
    def J_m(self) -> float:
        return self.m * self.J

    @property
    def crb(self) -> float:
        return math.inf if self.J == 0.0 else 1.0 / self.J_m


def fisher_information(
    family: ScalarParamFamily, theta: float, m: int = 1, step: Optional[float] = None
) -> InfoReport:
    """Fisher information as the second moment of the score (zero-mean).

    Table families are scored by finite differences and summed by enumeration.
    A family with no theta sensitivity reports J = 0 and an infinite bound;
    that is a flag, not an error.
    """
    if isinstance(family, (GaussianMeanFamily, LaplaceRateFamily)):
        return InfoReport(J=family.fisher(theta), m=m)
    h = fd_step(theta) if step is None else step
    p0 = family.pmf(theta)
    pp = family.pmf(theta + h)
    pm = family.pmf(theta - h)
    ok = (p0 > 0) & (pp > 0) & (pm > 0)
    s = np.zeros_like(p0)
    s[ok] = (np.log(pp[ok]) - np.log(pm[ok])) / (2.0 * h)
    j = float(np.sum(p0[ok] * s[ok] ** 2))
    return InfoReport(J=j, m=m)


# ---------------------------------------------------------------------------
# chain audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpiAudit:
    """Mutual information of the class label with each chain stage (nats).

    Floats for one chain; (k,) arrays, and array verdicts, for a stack. The
    verdicts allow MI_EQUALITY_TOL of round-off in the logarithms.
    """

    i_theta_x: float
    i_theta_y: float
    i_theta_xhat: Optional[float]

    @property
    def monotone(self):
        ok = self.i_theta_x >= self.i_theta_y - MI_EQUALITY_TOL
        if self.i_theta_xhat is not None:
            ok = ok & (self.i_theta_y >= self.i_theta_xhat - MI_EQUALITY_TOL)
        return ok

    @property
    def first_equal(self):
        """Measurement keeps all class information (sufficient representation)."""
        return abs(self.i_theta_x - self.i_theta_y) <= MI_EQUALITY_TOL


def dpi_audit(chains: PipelineChain | ChainStack) -> DpiAudit:
    """Exact-enumeration check that class information never grows downstream,
    up to MI_EQUALITY_TOL, for one chain or for every chain of a stack."""
    stack = chains if isinstance(chains, ChainStack) else ChainStack.of(chains)
    joint = assemble_joint(stack)
    stages = ("x", "y", "xhat") if stack.restorer is not None else ("x", "y")
    info = [pair_information(stage_pair(joint, s)) for s in stages]
    if stack is not chains:
        info = [float(v[0]) for v in info]
    i_xhat = info[2] if len(info) == 3 else None
    return DpiAudit(i_theta_x=info[0], i_theta_y=info[1], i_theta_xhat=i_xhat)


def _resolve_statistic(support: tuple, statistic) -> list:
    if callable(statistic):
        return [statistic(x) for x in support]
    return [statistic[x] for x in support]


def _family_joint(family: TableFamily) -> np.ndarray:
    """Joint table of (theta, X) under the uniform prior over the theta grid."""
    if family.theta_grid is None:
        raise ContractViolation("operation needs a grid-backed table family")
    rows = np.stack([family.pmf(t) for t in family.theta_grid])
    return (1.0 / len(family.theta_grid)) * rows


def sufficiency_check(family: TableFamily, statistic) -> bool:
    """True iff mapping outcomes through the statistic loses no class information.

    The statistic may be a callable or a mapping, total on the support. The
    comparison is I(theta; X) vs I(theta; T(X)) to MI_EQUALITY_TOL under the
    uniform prior over the theta grid, both by exact enumeration.
    """
    joint = _family_joint(family)
    values = _resolve_statistic(family.support, statistic)
    t_support = list(dict.fromkeys(values))
    grouped = np.zeros((joint.shape[0], len(t_support)))
    for col, v in enumerate(values):
        grouped[:, t_support.index(v)] += joint[:, col]
    return abs(pair_information(joint) - pair_information(grouped)) <= MI_EQUALITY_TOL


def rao_blackwellize(family: TableFamily, estimator: dict | Callable, statistic) -> dict:
    """Condition a raw estimator on a sufficient statistic.

    Returns {t: E[f(X) | T(X) = t]}. Sufficiency is verified first (the
    conditional law given the statistic must not depend on theta, otherwise
    the conditioning itself would need theta). The result has the same mean
    and never larger variance at every theta on the grid.
    """
    if not sufficiency_check(family, statistic):
        raise NotSufficient("statistic is not sufficient for this family")
    mix = _family_joint(family).sum(axis=0)
    f_vals = np.array(
        [estimator(x) if callable(estimator) else estimator[x] for x in family.support],
        dtype=np.float64,
    )
    t_vals = _resolve_statistic(family.support, statistic)
    out: dict = {}
    for t in dict.fromkeys(t_vals):
        sel = np.array([tv == t for tv in t_vals])
        mass = float(mix[sel].sum())
        if mass == 0.0:
            continue
        out[t] = float(np.dot(mix[sel], f_vals[sel]) / mass)
    return out


# ---------------------------------------------------------------------------
# differential-entropy error bound
# ---------------------------------------------------------------------------

def entropy_error_bound_gaussian(sigma: float) -> float:
    """Exponentiated-entropy lower bound on mean squared estimation error.

    For a Gaussian source the bound equals the variance and is achieved by
    estimating with the mean.
    """
    if not sigma > 0:
        raise ContractViolation(f"sigma must be > 0, got {sigma}")
    h = 0.5 * math.log(2.0 * math.pi * math.e * sigma**2)
    return math.exp(2.0 * h) / (2.0 * math.pi * math.e)


def entropy_error_bound_grid(probs: Sequence[float], binwidth: float) -> float:
    """Same bound for a density tabulated on an even grid.

    Differential entropy is approximated as the bin entropy plus log binwidth.
    """
    if not binwidth > 0:
        raise ContractViolation(f"binwidth must be > 0, got {binwidth}")
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ContractViolation("grid masses must form a distribution")
    nz = p > 0
    h = -float(np.sum(p[nz] * np.log(p[nz]))) + math.log(binwidth)
    return math.exp(2.0 * h) / (2.0 * math.pi * math.e)
