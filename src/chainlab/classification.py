"""Bayes classification over finite alphabets and exact error-ordering audits.

Bayes error under 0-1 cost, the error/separability identity for two classes,
the stagewise ordering of Bayes error along a degradation/restoration chain,
and proportional-representation gaps of restorers. Everything is computed by
enumeration, so the ordering results hold to numerical precision; a violation
means an implementation bug, not noise, and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    PROB_SUM_TOL,
    ChainStack,
    ConditionalTable,
    FiniteDistribution,
    PipelineChain,
    assemble_joint,
    check_mass,
    marginal,
    stage_pair,
)
from .restorers import with_class_restorer, with_restorer

ORDERING_TOL = 1e-9


def _class_tables(priors: FiniteDistribution | np.ndarray,
                  conditionals: ConditionalTable | np.ndarray) -> tuple:
    """(priors (k, m), conditionals (k, m, n), single) with a leading chain axis.

    A ``FiniteDistribution`` with a ``ConditionalTable`` is one chain (the
    tables checked their own rows); arrays are a stack, checked here.
    """
    if isinstance(priors, FiniteDistribution):
        if priors.support != conditionals.input_support:
            raise SupportMismatch("priors and class conditionals disagree on classes")
        return priors.probs[None], conditionals.rows[None], True
    priors, conditionals = np.asarray(priors, np.float64), np.asarray(conditionals, np.float64)
    if conditionals.shape[:2] != priors.shape:
        raise SupportMismatch("priors and class conditionals disagree on classes")
    check_mass(priors, -1, PROB_SUM_TOL, "stacked priors")
    check_mass(conditionals, -1, PROB_SUM_TOL, "stacked class conditionals")
    return priors, conditionals, False


def bayes_risk(priors: FiniteDistribution | np.ndarray,
               conditionals: ConditionalTable | np.ndarray):
    """Minimum 0-1 risk over all decision rules (sum of per-outcome minima).

    One chain (``FiniteDistribution``, ``ConditionalTable``) gives a float; a
    stack (k, m) priors with (k, m, n) rows gives k values.
    """
    p, rows, single = _class_tables(priors, conditionals)
    m = p.shape[1]
    weighted = p[:, :, None] * rows
    expected = (np.ones((m, m)) - np.eye(m)) @ weighted  # (chain, decision, outcome)
    risk = expected.min(axis=1).sum(axis=1)
    return float(risk[0]) if single else risk


def separability(priors: FiniteDistribution | np.ndarray,
                 conditionals: ConditionalTable | np.ndarray):
    """Expected |q1 - q2| of the two class posteriors.

    This equals the prior-weighted conditional difference summed over
    outcomes, and determines the error probability exactly:
    P_e = (1 - J_1) / 2. Takes one chain or a stack, as ``bayes_risk``.
    """
    p, rows, single = _class_tables(priors, conditionals)
    if p.shape[1] != 2:
        raise NotBinary("separability is defined here for exactly two classes")
    w = p[:, :, None] * rows  # (chain, 2, outcomes)
    j1 = np.abs(w[:, 0] - w[:, 1]).sum(axis=1)
    return float(j1[0]) if single else j1


def _pe_from_pair(pair: np.ndarray) -> np.ndarray:
    """Bayes errors from stacked (chain, class, outcome) joint tables under 0-1 cost."""
    return np.maximum(1.0 - pair.max(axis=1).sum(axis=1), 0.0)


@dataclass(frozen=True)
class ErrorOrderingAudit:
    """Bayes error at each chain stage plus the ordering verdict.

    Floats for one chain; (k,) arrays, and array verdicts, for a stack.
    """

    pe_x: float
    pe_y: float
    pe_xhat: Optional[float]
    mode: str  # "class_agnostic" | "conditional_perception"
    tol: float

    @property
    def ordered(self):
        ok = self.pe_y >= self.pe_x - self.tol
        if self.pe_xhat is not None:
            ok = ok & (self.pe_xhat >= self.pe_y - self.tol)
        return ok

    @property
    def recovery_matches_source(self):
        return self.pe_xhat is not None and abs(self.pe_xhat - self.pe_x) <= self.tol


def theorem_ordering_audit(
    chains: PipelineChain | ChainStack,
    mode: str = "class_agnostic",
    tol: float = ORDERING_TOL,
) -> ErrorOrderingAudit:
    """Certify the stagewise ordering of Bayes error along a chain, or along
    every chain of a stack.

    class_agnostic: the chain's restorer must not depend on the class; the
    error can only grow stage by stage. conditional_perception: the restorer
    is built per class to match the source law given measurement and class,
    and the restored-stage error must equal the source-stage error. Both are
    exact statements; any violation raises, naming the first chain at fault.
    """
    stack = chains if isinstance(chains, ChainStack) else ChainStack.of(chains)
    if mode == "class_agnostic":
        if stack.restorer is None:
            raise ContractViolation("chain needs a restorer for the full ordering")
        joint = assemble_joint(stack)
    elif mode == "conditional_perception":
        if stack.restorer is not None:
            stack = replace(stack, restorer=None)
        joint = assemble_joint(with_class_restorer(stack))
    else:
        raise ContractViolation(f"unknown audit mode {mode!r}")
    pe_x, pe_y, pe_xhat = (_pe_from_pair(stage_pair(joint, s)) for s in ("x", "y", "xhat"))
    audit = ErrorOrderingAudit(pe_x=pe_x, pe_y=pe_y, pe_xhat=pe_xhat, mode=mode, tol=tol)
    if mode == "class_agnostic":
        bad = ~audit.ordered
        broken = "error ordering broken: pe_x={0}, pe_y={1}, pe_xhat={2}"
    else:
        bad = ~audit.recovery_matches_source
        broken = "class-matched recovery should preserve the error: {0} vs {2}"
    if np.any(bad):
        c = int(np.argmax(bad))
        raise OrderingViolation(f"chain {stack.index[c]}: "
                                + broken.format(float(pe_x[c]), float(pe_y[c]), float(pe_xhat[c])))
    if isinstance(chains, ChainStack):
        return audit
    return ErrorOrderingAudit(pe_x=float(pe_x[0]), pe_y=float(pe_y[0]),
                              pe_xhat=float(pe_xhat[0]), mode=mode, tol=tol)


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


def pr_gap(chain: PipelineChain, restorer: ConditionalTable, partition: dict) -> PrGapReport:
    """Compare class-region mass before and after restoration.

    ``partition`` maps class labels to sets of source outcomes and must cover
    the source support. Restored mass falling outside every region is
    reported separately (conditional means can leave the source alphabet).
    """
    joint = assemble_joint(with_restorer(chain, restorer))
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
