"""Exact finite-alphabet probability engine.

Distributions, conditional tables, dense joints, and chain composition,
with mutual information computed by enumeration.
Everything stays in linear space with 64-bit floats; alphabets are meant
to be small enough (~1e4 joint cells) that no sampling is ever needed, so
inequality audits hold to numerical precision instead of Monte Carlo noise.

Chains are enumerated as per-shape stacks: a ``ChainStack`` holds k chains
of one shape as factor tables with a leading chain axis, is validated once
for all k, and its joint is one ``einsum``. A single labelled
``PipelineChain`` is the k = 1 case of the same kernels. Chains of different
shapes go into different stacks rather than being padded, so every chain's
numbers are the ones it would get alone.

Conventions:
- 0 * log 0 = 0 everywhere.
- Mutual information is in nats.
- Canonical chain axis order is ("theta", "x", "y", "xhat"); labelled
  results are addressed by axis name, stacks by position after the chain
  axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AllZeroWeights,
    InvalidDistribution,
    NegativeWeight,
    SupportMismatch,
    UnknownAxis,
    ZeroEvidence,
)

PROB_SUM_TOL = 1e-12
JOINT_SUM_TOL = 1e-10

THETA, X, Y, XHAT = "theta", "x", "y", "xhat"
CHAIN_AXES = (THETA, X, Y, XHAT)


def check_mass(p: np.ndarray, axes, tol: float, what: str) -> None:
    """Raise unless ``p`` is non-negative and sums to 1 within ``tol`` over ``axes``.

    The message names the position of the first bad entry, or of the first
    bad sum among the axes that remain.
    """
    neg = p < 0
    if np.any(neg):
        raise NegativeWeight(f"negative entry in {what}{_at(neg)}")
    sums = p.sum(axis=axes)
    bad = np.abs(sums - 1.0) > tol
    if np.any(bad):
        raise InvalidDistribution(f"{what}{_at(bad)} sums to {sums[bad][0]!r}, not 1")


def _at(flags: np.ndarray) -> str:
    at = np.unravel_index(np.argmax(flags), flags.shape)
    return f" at {tuple(int(i) for i in at)}" if at else ""


def _as_labels(support: Sequence) -> tuple:
    labels = tuple(support)
    if len(set(labels)) != len(labels):
        raise InvalidDistribution(f"support labels not unique: {labels!r}")
    return labels


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability mass function over an ordered finite support."""

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", _as_labels(self.support))
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or len(p) != len(self.support):
            raise InvalidDistribution("probs shape does not match support")
        check_mass(p, -1, PROB_SUM_TOL, "probabilities")
        p.setflags(write=False)


def normalize(weights: Sequence[float], support: Optional[Sequence] = None) -> FiniteDistribution:
    """Scale nonnegative weights into a distribution.

    Raises AllZeroWeights if nothing to normalize, NegativeWeight otherwise.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise NegativeWeight(f"negative weight in {w}")
    total = float(w.sum())
    if total == 0.0:
        raise AllZeroWeights("all weights are zero")
    if support is None:
        support = tuple(range(len(w)))
    return FiniteDistribution(tuple(support), w / total)


@dataclass(frozen=True)
class ConditionalTable:
    """Row-stochastic table: one output distribution per input label."""

    input_support: tuple
    output_support: tuple
    rows: np.ndarray  # shape (n_in, n_out)

    def __post_init__(self):
        object.__setattr__(self, "input_support", _as_labels(self.input_support))
        object.__setattr__(self, "output_support", _as_labels(self.output_support))
        r = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", r)
        if r.shape != (len(self.input_support), len(self.output_support)):
            raise InvalidDistribution(
                f"rows shape {r.shape} does not match supports "
                f"({len(self.input_support)}, {len(self.output_support)})"
            )
        check_mass(r, -1, PROB_SUM_TOL, "conditional table row")
        r.setflags(write=False)

    @classmethod
    def from_rows(cls, input_support, output_support, row_map) -> "ConditionalTable":
        """Build from {input_label: {output_label: prob}} with zeros implied."""
        out = tuple(output_support)
        rows = np.zeros((len(input_support), len(out)))
        for i, lab in enumerate(input_support):
            for o, p in row_map[lab].items():
                rows[i, out.index(o)] = p
        return cls(tuple(input_support), out, rows)

    @classmethod
    def deterministic(cls, input_support, output_support, mapping) -> "ConditionalTable":
        """Table of point masses for a total map input -> output."""
        out = tuple(output_support)
        rows = np.zeros((len(input_support), len(out)))
        for i, lab in enumerate(input_support):
            rows[i, out.index(mapping[lab])] = 1.0
        return cls(tuple(input_support), out, rows)


@dataclass(frozen=True)
class JointDistribution:
    """Dense probability tensor over named axes with recorded supports."""

    axes: tuple
    supports: tuple  # tuple of per-axis label tuples
    tensor: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(set(axes)) != len(axes):
            raise UnknownAxis(f"duplicate axis names: {axes}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "supports", tuple(_as_labels(s) for s in self.supports))
        t = np.asarray(self.tensor, dtype=np.float64)
        object.__setattr__(self, "tensor", t)
        if t.shape != tuple(len(s) for s in self.supports):
            raise InvalidDistribution(
                f"tensor shape {t.shape} does not match supports"
            )
        check_mass(t, None, JOINT_SUM_TOL, "joint tensor")
        t.setflags(write=False)

    def axis_index(self, axis: str) -> int:
        try:
            return self.axes.index(axis)
        except ValueError:
            raise UnknownAxis(f"no axis {axis!r} in {self.axes}") from None

    def support_of(self, axis: str) -> tuple:
        return self.supports[self.axis_index(axis)]

    def prob_of(self, **coords) -> float:
        """Probability of a full or partial assignment of axis values."""
        t = self.tensor
        idx: list = [slice(None)] * t.ndim
        for axis, value in coords.items():
            k = self.axis_index(axis)
            idx[k] = self.supports[k].index(value)
        sub = t[tuple(idx)]
        return float(sub if np.ndim(sub) == 0 else sub.sum())


@dataclass(frozen=True)
class PipelineChain:
    """Prior over classes, class-conditional source, degradation, restorer.

    The degradation table is shared across classes by construction, which is
    exactly what makes theta - x - y (and onward) a Markov chain.
    """

    prior: FiniteDistribution
    family: ConditionalTable  # theta -> x
    channel: ConditionalTable  # x -> y
    restorer: Optional[ConditionalTable] = None  # y -> xhat

    def __post_init__(self):
        if self.prior.support != self.family.input_support:
            raise SupportMismatch("prior support != family input support")
        if self.family.output_support != self.channel.input_support:
            raise SupportMismatch("family output support != channel input support")
        if self.restorer is not None and self.channel.output_support != self.restorer.input_support:
            raise SupportMismatch("channel output support != restorer input support")

    @property
    def axes(self) -> tuple:
        return CHAIN_AXES if self.restorer is not None else CHAIN_AXES[:3]


@dataclass(frozen=True)
class ChainStack:
    """k chains of one shape: factor tables with a leading chain axis.

    ``prior`` is (k, theta), ``family`` (k, theta, x) and ``channel``
    (k, x, y). ``restorer`` is None, (k, y, xhat), or (k, theta, y, xhat) for
    a restorer that may depend on the class. Labels are positions;
    ``index`` numbers the chains for messages (default 0..k-1). The whole
    stack is checked once, with the checks the per-table classes run.
    """

    prior: np.ndarray
    family: np.ndarray
    channel: np.ndarray
    restorer: Optional[np.ndarray] = None
    index: tuple = ()

    def __post_init__(self):
        tables = {name: np.asarray(getattr(self, name), dtype=np.float64)
                  for name in ("prior", "family", "channel", "restorer")
                  if getattr(self, name) is not None}
        for name, table in tables.items():
            object.__setattr__(self, name, table)
        if (self.prior.ndim, self.family.ndim, self.channel.ndim) != (2, 3, 3):
            raise SupportMismatch("stack factors need a chain axis before their table axes")
        k, n_theta = self.prior.shape
        n_x, n_y = self.family.shape[2], self.channel.shape[2]
        if self.family.shape[:2] != (k, n_theta) or self.channel.shape[:2] != (k, n_x):
            raise SupportMismatch("stack factors disagree on chain count or alphabets")
        if self.restorer is not None and self.restorer.shape[:-1] not in (
                (k, n_y), (k, n_theta, n_y)):
            raise SupportMismatch("restorer input does not match the measurement alphabet")
        index = tuple(int(i) for i in self.index) or tuple(range(k))
        if len(index) != k:
            raise SupportMismatch(f"{len(index)} chain numbers for {k} chains")
        object.__setattr__(self, "index", index)
        for name, table in tables.items():
            check_mass(table, -1, PROB_SUM_TOL, f"stacked {name}")

    @classmethod
    def of(cls, chain: PipelineChain) -> "ChainStack":
        """The one-chain stack of a labelled chain."""
        restorer = None if chain.restorer is None else chain.restorer.rows[None]
        return cls(chain.prior.probs[None], chain.family.rows[None],
                   chain.channel.rows[None], restorer)


def assemble_joint(chain: PipelineChain | ChainStack):
    """Multiply the chain factors into the dense joint tensor.

    Entry (theta, x, y[, xhat]) is P(theta) p(x|theta) p(y|x) [p(xhat|y)]
    (p(xhat|y, theta) for a class-dependent restorer). A ``ChainStack``
    gives its (k, theta, x, y[, xhat]) tensor; a ``PipelineChain`` is the
    k = 1 case and gives a labelled ``JointDistribution``.
    """
    if isinstance(chain, PipelineChain):
        supports = [chain.prior.support, chain.family.output_support,
                    chain.channel.output_support]
        if chain.restorer is not None:
            supports.append(chain.restorer.output_support)
        tensor = assemble_joint(ChainStack.of(chain))[0]
        return JointDistribution(chain.axes, tuple(supports), tensor)
    t = np.einsum("ct,ctx,cxy->ctxy", chain.prior, chain.family, chain.channel)
    if chain.restorer is not None:
        spec = "ctxy,cyz->ctxyz" if chain.restorer.ndim == 3 else "ctxy,ctyz->ctxyz"
        t = np.einsum(spec, t, chain.restorer)
    check_mass(t, tuple(range(1, t.ndim)), JOINT_SUM_TOL, "stacked joint")
    return t


def stage_pair(joints: np.ndarray, stage: str) -> np.ndarray:
    """(k, theta, stage) pair marginals of stacked chain joints (k, theta, x, y[, xhat])."""
    keep = CHAIN_AXES.index(stage) + 1
    return joints.sum(axis=tuple(a for a in range(2, joints.ndim) if a != keep))


def marginal(joint: JointDistribution, keep_axes: Sequence[str]) -> JointDistribution:
    """Sum out every axis not listed; axes come back in the requested order."""
    keep = list(keep_axes)
    idx = [joint.axis_index(a) for a in keep]
    drop = tuple(i for i in range(joint.tensor.ndim) if i not in idx)
    t = joint.tensor.sum(axis=drop) if drop else joint.tensor
    # reorder remaining axes to the requested order
    remaining = [a for a in joint.axes if a in keep]
    perm = [remaining.index(a) for a in keep]
    t = np.transpose(t, perm)
    supports = tuple(joint.supports[joint.axis_index(a)] for a in keep)
    return JointDistribution(tuple(keep), supports, t)


def condition(joint: JointDistribution, axis: str, value) -> JointDistribution:
    """Bayes-normalized slice of the joint at axis=value."""
    k = joint.axis_index(axis)
    try:
        j = joint.supports[k].index(value)
    except ValueError:
        raise ZeroEvidence(f"value {value!r} not in support of axis {axis!r}") from None
    idx: list = [slice(None)] * joint.tensor.ndim
    idx[k] = j
    sub = joint.tensor[tuple(idx)]
    mass = float(sub.sum())
    if mass <= 0.0:
        raise ZeroEvidence(f"P({axis}={value!r}) = 0")
    axes = tuple(a for a in joint.axes if a != axis)
    supports = tuple(s for i, s in enumerate(joint.supports) if i != k)
    return JointDistribution(axes, supports, sub / mass)


def mutual_information(joint: JointDistribution, axis_a: str, axis_b: str) -> float:
    """I(A;B) in nats from the enumerated pair marginal; never negative."""
    if axis_a == axis_b:
        raise UnknownAxis("mutual information needs two distinct axes")
    return pair_information(marginal(joint, [axis_a, axis_b]).tensor)


def pair_information(pair: np.ndarray):
    """I(A;B) in nats of a two-axis joint table (rows A, columns B); never negative.

    A stack (k, A, B) gives the k values as an array.
    """
    pa = pair.sum(axis=-1, keepdims=True)
    pb = pair.sum(axis=-2, keepdims=True)
    nz = pair > 0
    p = np.where(nz, pair, 1.0)
    terms = np.where(nz, p * (np.log(p) - np.log(np.where(nz, pa * pb, 1.0))), 0.0)
    i = np.maximum(terms.sum(axis=(-2, -1)), 0.0)
    return float(i) if pair.ndim == 2 else i
