"""Restorers (signal reconstructions from measurements) and parameter estimators.

Restorers are conditional tables from the measurement alphabet to a
reconstruction alphabet, derived from a reference joint:

- conditional-mean map (the classic least-squares restorer; averages all
  sources that explain a measurement),
- posterior sampler, whose output law given the measurement is the source
  posterior p(x | y), and its per-class version p(x | y, theta),
- constant map (ignores the measurement).

A Monte Carlo harness measures the squared error of the sample-mean
estimator on one chain stage, which its caller judges against an information
bound. It draws all replicates of a call from one generator, a block of
replicates per sampler call, so replicate r is the same number at any
replicate count above r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation, NonNumericSupport
from .probability import (
    ChainStack,
    ConditionalTable,
    JointDistribution,
    PipelineChain,
    assemble_joint,
    marginal,
)
from .rng import stream_rng


def _conditional_rows(tens: np.ndarray) -> np.ndarray:
    """tens normalized along its last axis; rows with no mass are uniform (they
    carry no joint mass, so any valid row works)."""
    mass = tens.sum(axis=-1, keepdims=True)
    return np.where(mass > 0, tens / np.where(mass > 0, mass, 1.0), 1.0 / tens.shape[-1])


def _posterior_rows(joint: JointDistribution) -> np.ndarray:
    """p(x | y) rows."""
    return _conditional_rows(marginal(joint, ["y", "x"]).tensor)


def mmse_restorer(joint: JointDistribution) -> ConditionalTable:
    """Deterministic map sending each measurement to its conditional source mean.

    Ambiguous measurements come back as prior-and-likelihood weighted blends
    of their explanations, which generally leave the source alphabet.
    """
    x_support = joint.support_of("x")
    try:
        x_vals = np.array([float(v) for v in x_support], dtype=np.float64)
    except (TypeError, ValueError):
        raise NonNumericSupport("conditional means need numeric source labels") from None
    y_support = joint.support_of("y")
    means = [float(v) for v in _posterior_rows(joint) @ x_vals]
    return ConditionalTable.deterministic(y_support, sorted(set(means)), dict(zip(y_support, means)))


def posterior_sampler(joint: JointDistribution) -> ConditionalTable:
    """Stochastic restorer that redraws the source from its posterior.

    Its rows copy p(x | y), so the restored marginal equals the source
    marginal exactly.
    """
    return ConditionalTable(joint.support_of("y"), joint.support_of("x"), _posterior_rows(joint))


def constant_restorer(y_support, x_support, value) -> ConditionalTable:
    """Restorer that ignores the measurement entirely."""
    return ConditionalTable.deterministic(y_support, x_support, dict.fromkeys(y_support, value))


def with_class_restorer(chains: ChainStack) -> ChainStack:
    """The stack with each chain's per-class posterior sampler as its restorer.

    Chain c's restorer is p(x | y, theta), a (theta, y, x) table; rows
    unreachable under a class are uniform. The restored joint is
    P(theta) p(x|theta) p(y|x) p(xhat|y, theta), which is how the per-class
    sampler enters an audit.
    """
    if chains.restorer is not None:
        raise ContractViolation("chain already carries a restorer")
    rows = _conditional_rows(assemble_joint(chains).transpose(0, 1, 3, 2))  # (k, theta, y, x)
    return ChainStack(chains.prior, chains.family, chains.channel, rows, chains.index)


def with_restorer(chain: PipelineChain, restorer: ConditionalTable) -> PipelineChain:
    return PipelineChain(chain.prior, chain.family, chain.channel, restorer)


# ---------------------------------------------------------------------------
# parameter estimators
# ---------------------------------------------------------------------------

# Standard errors by which a Monte Carlo number may miss the value it is
# checked against, in every verdict that allows a Monte Carlo error.
_FLAG_SIGMAS = 4.0

# Replicates per sampler call: a block's arrays stay small at any replicate count.
_MC_BLOCK = 1024


def _mse_stderr(err: np.ndarray, paired: Optional[np.ndarray] = None) -> list:
    """The Monte Carlo mean squared error of err, one error per replicate, as
    (mean, standard error); given paired, the errors of a second estimate on
    the same replicates, also that of paired and that of the difference of
    squares paired**2 - err**2, replicate by replicate. The squares are taken
    in one power-of-two unit of all the errors: an exact change of units that
    keeps the squares' standard deviations in float range."""
    errors = (err,) if paired is None else (err, paired)
    unit = 2.0 ** math.frexp(max(np.abs(e).max(initial=0.0) for e in errors))[1]
    squares = [(e / unit) ** 2 for e in errors]
    if paired is not None:
        squares.append(squares[1] - squares[0])
    return [(float(sq.mean()) * unit**2, float(sq.std(ddof=1) / math.sqrt(err.size)) * unit**2)
            for sq in squares]


@dataclass(frozen=True)
class McVarianceReport:
    """Monte Carlo squared error of the sample mean on one chain stage: its
    mean, standard error, and the estimate of every replicate."""

    mse: float
    mse_stderr: float
    estimates: np.ndarray


def estimator_variance_mc(
    sampler: Callable,
    stage: str,
    theta_true: float,
    m: int,
    replicates: int,
    seed: int,
) -> McVarianceReport:
    """Monte Carlo E(theta - theta_hat)^2 of the sample mean of stage "x",
    "y" or "xhat".

    ``sampler(rng, theta, m, replicates)`` returns per-stage sample arrays
    keyed "x", "y", "xhat", one row per replicate. Every replicate of a call
    comes from the one generator ``stream_rng(seed)``, drawn _MC_BLOCK
    replicates per sampler call. The generator's stream continues across
    calls, so the blocks give the numbers one big draw would, and replicate
    r is the same at any ``replicates > r`` (prefix-stable). The report
    holds the numbers only: the experiment runner judges them against a bound.
    """
    if stage not in ("x", "y", "xhat"):
        raise ContractViolation(f"unknown stage {stage!r}")
    if replicates < 2:
        raise ContractViolation("need at least 2 replicates")
    rng = stream_rng(seed)
    ests = np.empty(replicates)
    for start in range(0, replicates, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, replicates)
        ests[start:stop] = sampler(rng, theta_true, m, stop - start)[stage].mean(axis=1)
    [(mse, stderr)] = _mse_stderr(ests - theta_true)
    return McVarianceReport(mse=mse, mse_stderr=stderr, estimates=ests)


def awgn_mean_sampler(sigma_x: float, sigma_n: float) -> Callable:
    """Gaussian location chain: x ~ N(theta, sigma_x^2), y = x + noise.

    The restorer stage averages the m measurements into a single
    reconstruction (the coincidence construction); with sigma_n = 0 the
    measurement equals the source sample for sample. One call draws a
    (replicates, 2, m) normal block: row r holds replicate r's source noise,
    then its measurement noise (drawn even when sigma_n = 0, so the stream
    does not depend on it).
    """

    def sample(rng: np.random.Generator, theta: float, m: int, replicates: int) -> dict:
        z = rng.standard_normal((replicates, 2, m))
        x, y = z[:, 0], z[:, 1]
        x *= sigma_x
        x += theta
        if sigma_n > 0:
            y *= sigma_n
            y += x
        else:
            y[...] = x
        return {"x": x, "y": y, "xhat": y.mean(axis=1, keepdims=True)}

    return sample
