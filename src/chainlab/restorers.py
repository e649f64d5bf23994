"""Restorers (signal reconstructions from measurements) and parameter estimators.

Restorers are conditional tables from the measurement alphabet to a
reconstruction alphabet, derived from a reference joint:

- conditional-mean map (the classic least-squares restorer; averages all
  sources that explain a measurement),
- posterior-mode map (ties broken to the lowest support index, recorded),
- posterior sampler (stochastic; seeded streams),
- matched-law restorers whose output law given the measurement equals the
  true source posterior, optionally per class.

Parameter estimators consume per-stage samples; a Monte Carlo harness
measures their squared error against an information bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ContractViolation,
    EmptySample,
    MissingOracle,
    NonNumericSupport,
    SupportMismatch,
    ZeroL1Norm,
)
from .probability import (
    ConditionalTable,
    JointDistribution,
    PipelineChain,
    assemble_joint,
    marginal,
)
from .rng import stream_rng

MMSE_MAP = "mmse_map"
MAP_POINT = "map_point"
POSTERIOR_SAMPLER = "posterior_sampler"
PERFECT_PERCEPTION = "perfect_perception"
CONDITIONAL_PERFECT_PERCEPTION = "conditional_perfect_perception"
DETERMINISTIC = "deterministic"
CONSTANT = "constant"


@dataclass(frozen=True)
class Restorer:
    """A conditional law p(xhat | y) with provenance."""

    kind: str
    table: ConditionalTable
    source_joint: Optional[JointDistribution] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == PERFECT_PERCEPTION and self.source_joint is not None:
            post = _posterior_rows(self.source_joint)
            if not np.allclose(self.table.rows, post, atol=1e-12, rtol=0.0):
                raise ContractViolation(
                    "matched-law restorer rows drifted from the source posterior"
                )

    def sample(self, y, n: int, seed: int = 0, stream: int = 0) -> list:
        """Draw n reconstructions for measurement y; fixed seed, fixed draws."""
        row = self.table.row(y)
        rng = stream_rng(seed, self.table.input_support.index(y), stream)
        idx = rng.choice(len(row.support), size=n, p=row.probs)
        return [row.support[i] for i in idx]


def _posterior_rows(joint: JointDistribution, given: str = "y", target: str = "x") -> np.ndarray:
    """p(target | given) rows; rows for zero-probability conditions are uniform
    (they carry no joint mass, so any valid row works)."""
    pair = marginal(joint, [given, target]).tensor
    mass = pair.sum(axis=1, keepdims=True)
    n_t = pair.shape[1]
    rows = np.where(mass > 0, pair / np.where(mass > 0, mass, 1.0), 1.0 / n_t)
    return rows


def mmse_restorer(joint: JointDistribution) -> Restorer:
    """Deterministic map sending each measurement to its conditional source mean.

    Ambiguous measurements come back as prior-and-likelihood weighted blends
    of their explanations, which generally leave the source alphabet.
    """
    x_support = joint.support_of("x")
    try:
        x_vals = np.array([float(v) for v in x_support], dtype=np.float64)
    except (TypeError, ValueError):
        raise NonNumericSupport("conditional means need numeric source labels") from None
    rows = _posterior_rows(joint)
    means = rows @ x_vals
    out_support = tuple(sorted(set(float(v) for v in means)))
    table_rows = np.zeros((len(means), len(out_support)))
    for i, v in enumerate(means):
        table_rows[i, out_support.index(float(v))] = 1.0
    table = ConditionalTable(joint.support_of("y"), out_support, table_rows)
    return Restorer(kind=MMSE_MAP, table=table, source_joint=joint)


def map_restorer(joint: JointDistribution) -> Restorer:
    """Deterministic posterior-argmax map; ties take the lowest source index."""
    rows = _posterior_rows(joint)
    y_support = joint.support_of("y")
    x_support = joint.support_of("x")
    choice = rows.argmax(axis=1)  # argmax already prefers the first maximum
    ties = []
    for i, row in enumerate(rows):
        winners = np.flatnonzero(row >= row.max() - 0.0)
        if len(winners) > 1:
            ties.append((y_support[i], [x_support[j] for j in winners]))
    table_rows = np.zeros((len(y_support), len(x_support)))
    table_rows[np.arange(len(y_support)), choice] = 1.0
    table = ConditionalTable(y_support, x_support, table_rows)
    return Restorer(kind=MAP_POINT, table=table, source_joint=joint, meta={"ties": ties})


def posterior_sampler(joint: JointDistribution, seed: int = 0) -> Restorer:
    """Stochastic restorer that redraws the source from its posterior."""
    table = ConditionalTable(joint.support_of("y"), joint.support_of("x"), _posterior_rows(joint))
    return Restorer(kind=POSTERIOR_SAMPLER, table=table, source_joint=joint, meta={"seed": seed})


def perfect_perception_restorer(
    joint: JointDistribution,
    conditional: bool = False,
    theta_oracle=None,
) -> Restorer:
    """Restorer whose output law given the measurement matches the source law.

    Unconditionally, rows copy p(x|y), so the restored marginal equals the
    source marginal exactly. Conditionally, rows copy p(x|y, theta) at the
    oracle class; the oracle is an explicit input here so the hypothesis
    stays testable.
    """
    if not conditional:
        table = ConditionalTable(
            joint.support_of("y"), joint.support_of("x"), _posterior_rows(joint)
        )
        return Restorer(kind=PERFECT_PERCEPTION, table=table, source_joint=joint)
    if theta_oracle is None:
        raise MissingOracle("class-conditional restorer needs the class oracle")
    tables = class_conditional_restorer_tables(joint)
    if theta_oracle not in tables:
        raise MissingOracle(f"oracle {theta_oracle!r} not in class support")
    return Restorer(
        kind=CONDITIONAL_PERFECT_PERCEPTION,
        table=tables[theta_oracle],
        source_joint=joint,
        meta={"theta_oracle": theta_oracle},
    )


def constant_restorer(y_support, x_support, value) -> Restorer:
    """Restorer that ignores the measurement entirely."""
    rows = np.zeros((len(y_support), len(x_support)))
    rows[:, tuple(x_support).index(value)] = 1.0
    return Restorer(kind=CONSTANT, table=ConditionalTable(tuple(y_support), tuple(x_support), rows))


def class_conditional_restorer_tables(joint: JointDistribution) -> dict:
    """Per-class tables p(x | y, theta); rows unreachable under a class are uniform."""
    tens = marginal(joint, ["theta", "y", "x"]).tensor
    out: dict = {}
    n_x = tens.shape[2]
    for k, theta in enumerate(joint.support_of("theta")):
        mass = tens[k].sum(axis=1, keepdims=True)
        rows = np.where(mass > 0, tens[k] / np.where(mass > 0, mass, 1.0), 1.0 / n_x)
        out[theta] = ConditionalTable(joint.support_of("y"), joint.support_of("x"), rows)
    return out


def assemble_joint_with_class_restorer(chain: PipelineChain, tables: dict) -> JointDistribution:
    """Joint of a chain whose restorer is allowed to depend on the class.

    The tensor is P(theta) p(x|theta) p(y|x) p(xhat|y, theta); this is how the
    class-conditional matched-law restorer enters an audit.
    """
    if chain.restorer is not None:
        raise ContractViolation("chain already carries a class-agnostic restorer")
    base = assemble_joint(chain).tensor  # (theta, x, y)
    thetas = chain.prior.support
    first = tables[thetas[0]]
    stack = []
    for th in thetas:
        t = tables[th]
        if t.input_support != chain.channel.output_support:
            raise SupportMismatch("restorer input support != channel output support")
        if t.output_support != first.output_support:
            raise SupportMismatch("per-class restorers disagree on output support")
        stack.append(t.rows)
    rows = np.stack(stack)  # (theta, y, xhat)
    tensor = np.einsum("txy,tyz->txyz", base, rows)
    supports = (
        chain.prior.support,
        chain.family.output_support,
        chain.channel.output_support,
        first.output_support,
    )
    return JointDistribution(("theta", "x", "y", "xhat"), supports, tensor)


def with_restorer(chain: PipelineChain, restorer: Restorer) -> PipelineChain:
    return PipelineChain(chain.prior, chain.family, chain.channel, restorer.table)


def expected_squared_error(joint: JointDistribution, axis_a: str = "x", axis_b: str = "xhat") -> float:
    """E (A - B)^2 under the joint; both axes need numeric labels."""
    pair = marginal(joint, [axis_a, axis_b])
    try:
        a = np.array([float(v) for v in pair.supports[0]])
        b = np.array([float(v) for v in pair.supports[1]])
    except (TypeError, ValueError):
        raise NonNumericSupport("squared error needs numeric labels") from None
    diff2 = (a[:, None] - b[None, :]) ** 2
    return float(np.sum(pair.tensor * diff2))


# ---------------------------------------------------------------------------
# parameter estimators
# ---------------------------------------------------------------------------

SAMPLE_MEAN = "sample_mean"
ML_GAUSSIAN_MEAN = "ml_gaussian_mean"
ML_LAPLACE_RATE = "ml_laplace_rate"
PLUGIN_BAYES = "plugin_bayes"


@dataclass(frozen=True)
class ParamEstimator:
    """A named estimator applied to samples from one chain stage."""

    kind: str
    stage: str = "x"  # "x" | "y" | "xhat"
    posterior_ref: Optional[tuple] = None  # (TableFamily with grid, prior) for plugin_bayes

    def __post_init__(self):
        if self.kind not in (SAMPLE_MEAN, ML_GAUSSIAN_MEAN, ML_LAPLACE_RATE, PLUGIN_BAYES):
            raise ContractViolation(f"unknown estimator kind {self.kind!r}")
        if self.stage not in ("x", "y", "xhat"):
            raise ContractViolation(f"unknown stage {self.stage!r}")


def _l1_per_sample(samples: np.ndarray) -> np.ndarray:
    a = np.abs(np.asarray(samples, dtype=np.float64))
    return a if a.ndim == 1 else a.reshape(a.shape[0], -1).sum(axis=1)


def estimate_parameter(estimator: ParamEstimator, samples) -> float:
    """Point estimate from m samples (rows are samples for vector data).

    plugin_bayes takes outcome labels from its declared family's support;
    the other kinds take numeric samples.
    """
    if estimator.kind == PLUGIN_BAYES:
        if estimator.posterior_ref is None:
            raise ContractViolation("plugin_bayes needs (family, prior)")
        labels = list(samples)
        if not labels:
            raise EmptySample("no samples")
        family, prior = estimator.posterior_ref
        grid = np.asarray(family.theta_grid, dtype=np.float64)
        logpost = np.log(np.asarray(prior, dtype=np.float64))
        for s in labels:
            probs = np.array([family.pmf(t)[family.support.index(s)] for t in grid])
            with np.errstate(divide="ignore"):
                logpost = logpost + np.log(probs)
        logpost -= logpost.max()
        w = np.exp(logpost)
        w /= w.sum()
        return float(np.dot(w, grid))
    arr = np.asarray(samples, dtype=np.float64)
    m = arr.shape[0] if arr.ndim > 0 else 0
    if m == 0:
        raise EmptySample("no samples")
    if estimator.kind in (SAMPLE_MEAN, ML_GAUSSIAN_MEAN):
        return float(arr.mean())
    total = float(_l1_per_sample(arr).sum())
    if total == 0.0:
        raise ZeroL1Norm("rate estimate undefined: samples have zero l1 mass")
    return m / total


@dataclass(frozen=True)
class McVarianceReport:
    """Monte Carlo squared-error report for one estimator on one stage."""

    theta_true: float
    m: int
    replicates: int
    mean_estimate: float
    mean_stderr: float
    mse: float
    mse_stderr: float
    crb: Optional[float]
    flagged: bool
    bias_flagged: bool
    estimates: np.ndarray


def estimator_variance_mc(
    sampler: Callable,
    estimator: ParamEstimator,
    theta_true: float,
    m: int,
    replicates: int,
    seed: int,
    crb: Optional[float] = None,
    flag_sigmas: float = 4.0,
    theta_jitter: Optional[Callable] = None,
) -> McVarianceReport:
    """Monte Carlo E(theta - theta_hat)^2 with a bound comparison.

    ``sampler(rng, theta, m)`` returns per-stage sample arrays keyed "x", "y",
    "xhat". Each replicate draws from its own (seed, replicate) stream. By
    default all m observations of a replicate share the true parameter;
    ``theta_jitter(rng, m)`` switches to per-observation parameters
    theta_true + jitter, with the error still scored against theta_true.

    The report is flagged when the measured error undercuts the bound by
    more than flag_sigmas standard errors (a modeling bug, not luck), and
    separately when the estimator mean drifts from theta_true by more than
    flag_sigmas standard errors (the caller asserted unbiasedness).
    """
    if replicates < 2:
        raise ContractViolation("need at least 2 replicates")
    ests = np.empty(replicates)
    for r in range(replicates):
        rng = stream_rng(seed, r)
        theta = theta_true if theta_jitter is None else theta_true + theta_jitter(rng, m)
        stages = sampler(rng, theta, m)
        ests[r] = estimate_parameter(estimator, stages[estimator.stage])
    sq = (ests - theta_true) ** 2
    mse = float(sq.mean())
    stderr = float(sq.std(ddof=1) / np.sqrt(replicates))
    mean_stderr = float(ests.std(ddof=1) / np.sqrt(replicates))
    flagged = crb is not None and mse < crb - flag_sigmas * stderr
    bias_flagged = abs(float(ests.mean()) - theta_true) > flag_sigmas * mean_stderr
    return McVarianceReport(
        theta_true=theta_true,
        m=m,
        replicates=replicates,
        mean_estimate=float(ests.mean()),
        mean_stderr=mean_stderr,
        mse=mse,
        mse_stderr=stderr,
        crb=crb,
        flagged=flagged,
        bias_flagged=bias_flagged,
        estimates=ests,
    )


def awgn_mean_sampler(sigma_x: float, sigma_n: float, average_restorer: bool = True) -> Callable:
    """Gaussian location chain: x ~ N(theta, sigma_x^2), y = x + noise.

    The restorer stage averages the m measurements into a single
    reconstruction (the coincidence construction); with sigma_n = 0 the
    measurement equals the source sample for sample.
    """

    def sample(rng: np.random.Generator, theta: float, m: int) -> dict:
        x = theta + sigma_x * rng.standard_normal(m)
        y = x + sigma_n * rng.standard_normal(m) if sigma_n > 0 else x.copy()
        xhat = np.array([y.mean()]) if average_restorer else y.copy()
        return {"x": x, "y": y, "xhat": xhat}

    return sample


def laplace_rate_sampler() -> Callable:
    """Sparse-amplitude chain surrogate: per-sample l1 mass is exponential."""

    def sample(rng: np.random.Generator, rate: float, m: int) -> dict:
        t = rng.exponential(1.0 / rate, size=m)
        return {"x": t, "y": t, "xhat": t}

    return sample
