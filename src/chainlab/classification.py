"""Bayes classification over finite alphabets and exact error-ordering audits.

Bayes error under 0-1 cost, the error/separability identity for two classes,
the stagewise ordering of Bayes error along a degradation/restoration chain,
and proportional-representation gaps of restorers. Everything is computed by
enumeration, so the ordering results hold to numerical precision; a violation
means an implementation bug, not noise, and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ContractViolation,
    NotBinary,
    OrderingViolation,
    PartitionIncomplete,
    SupportMismatch,
)
from .probability import (
    ConditionalTable,
    FiniteDistribution,
    JointDistribution,
    PipelineChain,
    assemble_joint,
    marginal,
)
from .restorers import (
    Restorer,
    assemble_joint_with_class_restorer,
    class_conditional_restorer_tables,
    with_restorer,
)

ORDERING_TOL = 1e-9


def _check_supports(priors: FiniteDistribution, conditionals: ConditionalTable) -> None:
    if priors.support != conditionals.input_support:
        raise SupportMismatch("priors and class conditionals disagree on classes")


def bayes_risk(priors: FiniteDistribution, conditionals: ConditionalTable) -> float:
    """Minimum 0-1 risk over all decision rules (sum of per-outcome minima)."""
    _check_supports(priors, conditionals)
    m = len(priors)
    weighted = priors.probs[:, None] * conditionals.rows
    expected = (np.ones((m, m)) - np.eye(m)) @ weighted  # (decision, outcome)
    return float(expected.min(axis=0).sum())


def separability(priors: FiniteDistribution, conditionals: ConditionalTable) -> float:
    """Expected |q1 - q2| of the two class posteriors.

    This equals the prior-weighted conditional difference summed over
    outcomes, and determines the error probability exactly:
    P_e = (1 - J_1) / 2.
    """
    _check_supports(priors, conditionals)
    if len(priors) != 2:
        raise NotBinary("separability is defined here for exactly two classes")
    w = priors.probs[:, None] * conditionals.rows  # (2, outcomes)
    return float(np.abs(w[0] - w[1]).sum())


def _pe_from_pair(pair: np.ndarray) -> float:
    """Bayes error from a (class, outcome) joint table under 0-1 cost."""
    return float(max(1.0 - pair.max(axis=0).sum(), 0.0))


def stage_error(joint: JointDistribution, stage: str) -> float:
    """Exact Bayes error of classifying the class label from one stage."""
    pair = marginal(joint, ["theta", stage]).tensor
    return _pe_from_pair(pair)


@dataclass(frozen=True)
class ErrorOrderingAudit:
    """Bayes error at each chain stage plus the ordering verdict."""

    pe_x: float
    pe_y: float
    pe_xhat: Optional[float]
    mode: str  # "class_agnostic" | "conditional_perception"
    tol: float

    @property
    def ordered(self) -> bool:
        ok = self.pe_y >= self.pe_x - self.tol
        if self.pe_xhat is not None:
            ok = ok and self.pe_xhat >= self.pe_y - self.tol
        return ok

    @property
    def recovery_matches_source(self) -> bool:
        return self.pe_xhat is not None and abs(self.pe_xhat - self.pe_x) <= self.tol

    def values(self) -> tuple:
        return (self.pe_x, self.pe_y, self.pe_xhat)


def theorem_ordering_audit(
    chain: PipelineChain,
    mode: str = "class_agnostic",
    tol: float = ORDERING_TOL,
) -> ErrorOrderingAudit:
    """Certify the stagewise ordering of Bayes error along the chain.

    class_agnostic: the chain's restorer must not depend on the class; the
    error can only grow stage by stage. conditional_perception: the restorer
    is built per class to match the source law given measurement and class,
    and the restored-stage error must equal the source-stage error. Both are
    exact statements; any violation raises.
    """
    if mode == "class_agnostic":
        if chain.restorer is None:
            raise ContractViolation("chain needs a restorer for the full ordering")
        joint = assemble_joint(chain)
    elif mode == "conditional_perception":
        base = PipelineChain(chain.prior, chain.family, chain.channel, None)
        tables = class_conditional_restorer_tables(assemble_joint(base))
        joint = assemble_joint_with_class_restorer(base, tables)
    else:
        raise ContractViolation(f"unknown audit mode {mode!r}")
    pe_x = stage_error(joint, "x")
    pe_y = stage_error(joint, "y")
    pe_xhat = stage_error(joint, "xhat")
    audit = ErrorOrderingAudit(pe_x=pe_x, pe_y=pe_y, pe_xhat=pe_xhat, mode=mode, tol=tol)
    if not audit.ordered and mode == "class_agnostic":
        raise OrderingViolation(
            f"error ordering broken: pe_x={pe_x}, pe_y={pe_y}, pe_xhat={pe_xhat}"
        )
    if mode == "conditional_perception" and not audit.recovery_matches_source:
        raise OrderingViolation(
            f"class-matched recovery should preserve the error: {pe_x} vs {pe_xhat}"
        )
    return audit


@dataclass(frozen=True)
class PrGapReport:
    """Class-mass drift introduced by a restorer."""

    gaps: dict  # class label -> |P(xhat in S) - P(x in S)|
    source_mass: dict
    restored_mass: dict
    out_of_partition: float

    @property
    def max_gap(self) -> float:
        return max(self.gaps.values()) if self.gaps else 0.0


def pr_gap(
    chain: PipelineChain,
    restorer: Optional[Restorer] = None,
    partition: Optional[dict] = None,
) -> PrGapReport:
    """Compare class-region mass before and after restoration.

    ``partition`` maps class labels to sets of source outcomes and must cover
    the source support. Restored mass falling outside every region is
    reported separately (conditional means can leave the source alphabet).
    """
    if partition is None:
        raise ContractViolation("a class partition of the source support is required")
    work = with_restorer(chain, restorer) if restorer is not None else chain
    if work.restorer is None:
        raise ContractViolation("chain needs a restorer to measure its drift")
    joint = assemble_joint(work)
    covered = set()
    for labels in partition.values():
        covered.update(labels)
    missing = set(joint.support_of("x")) - covered
    if missing:
        raise PartitionIncomplete(f"partition misses source outcomes {sorted(map(str, missing))}")

    px = marginal(joint, ["x"])
    pxhat = marginal(joint, ["xhat"])
    x_mass = dict(zip(px.supports[0], px.tensor))
    xhat_mass = dict(zip(pxhat.supports[0], pxhat.tensor))

    source_mass, restored_mass, gaps = {}, {}, {}
    assigned = 0.0
    for cls, labels in partition.items():
        s = float(sum(x_mass.get(l, 0.0) for l in labels))
        r = float(sum(xhat_mass.get(l, 0.0) for l in labels))
        source_mass[cls] = s
        restored_mass[cls] = r
        gaps[cls] = abs(r - s)
        assigned += r
    return PrGapReport(
        gaps=gaps,
        source_mass=source_mass,
        restored_mass=restored_mass,
        out_of_partition=float(max(1.0 - assigned, 0.0)),
    )
