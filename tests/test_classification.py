"""Bayes risk, the error/separability identity, stagewise error
ordering, and restorer class-mass drift.

The binary identity P_e = (1 - J1)/2 and the stage orderings are exact
statements under enumeration; they are asserted at 1e-10 / 1e-9.
"""

import itertools

import numpy as np
import pytest

from chainlab.classification import (
    ErrorOrderingAudit,
    PrGapReport,
    bayes_risk,
    pr_gap,
    separability,
    theorem_ordering_audit,
)
from chainlab.errors import (
    ContractViolation,
    NotBinary,
    PartitionIncomplete,
    SupportMismatch,
)
from chainlab.instances import (
    naive_tree_chain,
    naive_tree_partition,
    random_chain,
)
from chainlab.probability import (
    ConditionalTable,
    PipelineChain,
    assemble_joint,
    marginal,
    normalize,
)
from chainlab.restorers import (
    constant_restorer,
    mmse_restorer,
    posterior_sampler,
    with_restorer,
)
from chainlab.rng import stream_rng


def stage_error(joint, stage):
    """Bayes error of the class from one stage, read off the pair marginal."""
    return 1.0 - marginal(joint, ["theta", stage]).tensor.max(axis=0).sum()


def y_conditionals(chain):
    pair = marginal(assemble_joint(chain), ["theta", "y"])
    rows = pair.tensor / pair.tensor.sum(axis=1, keepdims=True)
    return ConditionalTable(chain.prior.support, pair.supports[1], rows)


class TestBayesRisk:
    def test_identical_conditionals_equal_priors(self):
        priors = normalize([0.5, 0.5], support=(0, 1))
        cond = ConditionalTable((0, 1), (0, 1), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert bayes_risk(priors, cond) == pytest.approx(0.5)

    def test_disjoint_supports(self):
        priors = normalize([0.4, 0.6], support=(0, 1))
        cond = ConditionalTable((0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert bayes_risk(priors, cond) == 0.0

    def test_naive_tree_measurement_error(self):
        """Only the shared measurement can be misread; its losing branch
        carries 0.2 * (1/3) * 1 of mass."""
        chain = naive_tree_chain()
        pe = bayes_risk(chain.prior, y_conditionals(chain))
        assert pe == pytest.approx(0.2 / 3, abs=1e-12)

    def test_degenerate_prior_zero_error(self):
        cond = ConditionalTable((0, 1), (0, 1), np.array([[0.5, 0.5], [0.5, 0.5]]))
        for probs in ([0.0, 1.0], [1.0, 0.0]):
            priors = normalize(probs, support=(0, 1))
            assert bayes_risk(priors, cond) == 0.0


    def test_matches_exhaustive_decision_rules(self):
        """The minimum over every deterministic rule outcome -> class of its
        0-1 risk, enumerated for three classes and four outcomes."""
        for i in range(10):
            rng = stream_rng(50, i)
            priors = normalize(rng.dirichlet(np.ones(3)), support=("a", "b", "c"))
            cond = ConditionalTable(priors.support, tuple(range(4)),
                                    rng.dirichlet(np.ones(4), size=3))
            best = min(
                sum(priors.probs[j] * cond.rows[j, o]
                    for o, decided in enumerate(rule) for j in range(3) if j != decided)
                for rule in itertools.product(range(3), repeat=4)
            )
            assert abs(bayes_risk(priors, cond) - best) <= 1e-12

    def test_agrees_with_stage_error_of_the_joint(self):
        for i in range(20):
            chain = random_chain(stream_rng(50, 100 + i), 3, 4, 5, None)
            pe = bayes_risk(chain.prior, y_conditionals(chain))
            assert abs(pe - stage_error(assemble_joint(chain), "y")) <= 1e-12

    def test_support_mismatch(self):
        priors = normalize([0.5, 0.5], support=("a", "b"))
        cond = ConditionalTable(("a", "c"), (0, 1), np.eye(2))
        with pytest.raises(SupportMismatch):
            bayes_risk(priors, cond)


class TestSeparability:
    def test_identical_conditionals(self):
        priors = normalize([0.5, 0.5], support=(0, 1))
        cond = ConditionalTable((0, 1), (0, 1), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert separability(priors, cond) == 0.0
        assert bayes_risk(priors, cond) == pytest.approx(0.5)

    def test_disjoint_supports(self):
        priors = normalize([0.5, 0.5], support=(0, 1))
        cond = ConditionalTable((0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert separability(priors, cond) == pytest.approx(1.0)

    def test_naive_tree_value(self):
        chain = naive_tree_chain()
        j1 = separability(chain.prior, y_conditionals(chain))
        assert j1 == pytest.approx(1.0 - 2.0 * (0.2 / 3), abs=1e-12)
        assert j1 == pytest.approx(0.8667, abs=5e-4)

    def test_requires_binary(self):
        priors = normalize([1, 1, 1], support=(0, 1, 2))
        cond = ConditionalTable((0, 1, 2), (0, 1), np.full((3, 2), 0.5))
        with pytest.raises(NotBinary):
            separability(priors, cond)

    def test_support_mismatch(self):
        priors = normalize([0.5, 0.5], support=("a", "b"))
        cond = ConditionalTable(("b", "a"), (0, 1), np.eye(2))
        with pytest.raises(SupportMismatch):
            separability(priors, cond)

    def test_equiprobable_error_within_range(self):
        for i in range(20):
            rng = stream_rng(58, i)
            m = int(rng.integers(2, 5))
            priors = normalize(np.ones(m), support=tuple(range(m)))
            cond = ConditionalTable(tuple(range(m)), tuple(range(5)),
                                    rng.dirichlet(np.ones(5), size=m))
            pe = bayes_risk(priors, cond)
            assert 0.0 <= pe <= (m - 1) / m + 1e-12

    def test_identity_on_random_binary_chains(self):
        """P_e = (1 - J1)/2 at both source and measurement stages."""
        for i in range(200):
            chain = random_chain(stream_rng(52, i), 2, 4, 4, None)
            joint = assemble_joint(chain)
            for stage in ("x", "y"):
                pair = marginal(joint, ["theta", stage])
                rows = pair.tensor / pair.tensor.sum(axis=1, keepdims=True)
                cond = ConditionalTable(chain.prior.support, pair.supports[1], rows)
                pe = bayes_risk(chain.prior, cond)
                j1 = separability(chain.prior, cond)
                assert abs(pe - 0.5 * (1.0 - j1)) <= 1e-10


class TestOrderingAudit:
    def test_invertible_chain_all_equal(self):
        prior = normalize([0.3, 0.7], support=(0, 1))
        family = ConditionalTable(prior.support, (0, 1, 2),
                                  np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]))
        channel = ConditionalTable.deterministic((0, 1, 2), ("a", "b", "c"),
                                                 {0: "c", 1: "a", 2: "b"})
        restorer = ConditionalTable.deterministic(("a", "b", "c"), (0, 1, 2),
                                                  {"a": 1, "b": 2, "c": 0})
        audit = theorem_ordering_audit(PipelineChain(prior, family, channel, restorer))
        assert audit.pe_x == pytest.approx(audit.pe_y, abs=1e-12)
        assert audit.pe_y == pytest.approx(audit.pe_xhat, abs=1e-12)

    def test_naive_tree_with_conditional_mean_restorer(self):
        """Source stage is error free (disjoint class alphabets); the
        measurement and restored stages can only be worse."""
        chain = naive_tree_chain()
        mmse = mmse_restorer(assemble_joint(chain))
        audit = theorem_ordering_audit(with_restorer(chain, mmse))
        assert audit.pe_x == 0.0
        assert audit.pe_xhat >= audit.pe_y >= audit.pe_x
        assert audit.ordered

    def test_class_matched_recovery_equalizes(self):
        for i in range(20):
            chain = random_chain(stream_rng(53, i), 2, 4, 5, None, invertible_channel=True)
            audit = theorem_ordering_audit(chain, mode="conditional_perception")
            assert audit.recovery_matches_source
            assert abs(audit.pe_xhat - audit.pe_x) <= 1e-9

    def test_class_matched_recovery_equalizes_even_without_invertibility(self):
        """The restored class-conditional law equals the source law by
        construction, so the equality holds for any degradation."""
        for i in range(20):
            chain = random_chain(stream_rng(54, i), 2, 4, 3, None)
            audit = theorem_ordering_audit(chain, mode="conditional_perception")
            assert abs(audit.pe_xhat - audit.pe_x) <= 1e-9

    def test_ordering_on_random_chains(self):
        for i in range(200):
            chain = random_chain(stream_rng(55, i), 3, 4, 4, 4)
            audit = theorem_ordering_audit(chain)
            assert audit.ordered

    def test_appending_any_stage_never_reduces_error(self):
        """Composition monotonicity: adding one more stochastic stage after
        the measurement can only raise the stage error."""
        for i in range(50):
            rng = stream_rng(56, i)
            chain = random_chain(rng, 2, 4, 4, 4)
            joint = assemble_joint(chain)
            assert stage_error(joint, "xhat") >= stage_error(joint, "y") - 1e-12


    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractViolation, match="mode"):
            theorem_ordering_audit(random_chain(stream_rng(57, 0)), mode="oracle")

    def test_class_agnostic_mode_needs_a_restorer(self):
        chain = random_chain(stream_rng(57, 1), 2, 3, 3, None)
        with pytest.raises(ContractViolation):
            theorem_ordering_audit(chain)

    def test_audit_verdicts_follow_the_tolerance(self):
        """An error that shrinks downstream by more than tol breaks the
        ordering; within tol it does not."""
        broken = ErrorOrderingAudit(pe_x=0.2, pe_y=0.1, pe_xhat=0.3,
                                    mode="class_agnostic", tol=1e-9)
        assert not broken.ordered
        jitter = ErrorOrderingAudit(pe_x=0.2, pe_y=0.2 - 1e-12, pe_xhat=0.2 + 5e-10,
                                    mode="conditional_perception", tol=1e-9)
        assert jitter.ordered and jitter.recovery_matches_source
        no_restore = ErrorOrderingAudit(pe_x=0.1, pe_y=0.1, pe_xhat=None,
                                        mode="class_agnostic", tol=1e-9)
        assert no_restore.ordered and not no_restore.recovery_matches_source


class TestPrGap:
    def test_posterior_sampler_preserves_class_mass(self):
        chain = naive_tree_chain()
        rest = posterior_sampler(assemble_joint(chain))
        rep = pr_gap(chain, rest, naive_tree_partition())
        assert rep.max_gap <= 1e-9
        assert rep.out_of_partition <= 1e-12

    def test_constant_restorer_gap_is_other_class_mass(self):
        chain = naive_tree_chain()
        rest = constant_restorer(chain.channel.output_support,
                                 chain.family.output_support, 0)
        rep = pr_gap(chain, rest, naive_tree_partition())
        assert rep.gaps["class2"] == pytest.approx(0.2, abs=1e-12)
        assert rep.restored_mass["class1"] == pytest.approx(1.0)

    def test_conditional_mean_leaves_partition(self):
        """Blended outputs land between the class alphabets and are reported
        as out-of-partition mass."""
        chain = naive_tree_chain()
        rest = mmse_restorer(assemble_joint(chain))
        rep = pr_gap(chain, rest, naive_tree_partition())
        assert rep.out_of_partition > 0.5

    def test_incomplete_partition_rejected(self):
        chain = naive_tree_chain()
        rest = posterior_sampler(assemble_joint(chain))
        with pytest.raises(PartitionIncomplete):
            pr_gap(chain, rest, {"class1": {0, 1, 2}})

    def test_given_restorer_replaces_the_chains_own(self):
        """A chain that already carries a restorer is measured with the one
        passed: here the constant map to source 4 instead of the sampler."""
        chain = naive_tree_chain()
        own = with_restorer(chain, posterior_sampler(assemble_joint(chain)))
        rest = constant_restorer(chain.channel.output_support,
                                 chain.family.output_support, 4)
        rep = pr_gap(own, rest, naive_tree_partition())
        assert rep.source_mass == pytest.approx({"class1": 0.8, "class2": 0.2})
        assert rep.restored_mass == {"class1": 0.0, "class2": 1.0}
        assert rep.max_gap == pytest.approx(0.8)

    def test_empty_report_has_zero_gap(self):
        assert PrGapReport(gaps={}, source_mass={}, restored_mass={},
                           out_of_partition=0.0).max_gap == 0.0
