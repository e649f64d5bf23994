"""Bayes decisions, the error/separability identity, stagewise error
ordering, and restorer class-mass drift.

The binary identity P_e = (1 - J1)/2 and the stage orderings are exact
statements under enumeration; they are asserted at 1e-10 / 1e-9. Decision
oracles use brute-force expected-cost loops.
"""

import numpy as np
import pytest

from chainlab.classification import (
    CostMatrix,
    bayes_classify,
    bayes_risk,
    pr_gap,
    separability,
    stage_error,
    theorem_ordering_audit,
)
from chainlab.errors import NotBinary, PartitionIncomplete, SupportMismatch
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


def brute_force_decision(priors, conditionals, cost):
    """Per-outcome expected-cost minimization by explicit loops."""
    decisions = {}
    risk = 0.0
    for o, outcome in enumerate(conditionals.output_support):
        best, best_cost = None, np.inf
        for i in range(len(priors)):
            c = sum(
                cost.costs[i, j] * priors.probs[j] * conditionals.rows[j, o]
                for j in range(len(priors))
            )
            if c < best_cost - 0.0:
                best, best_cost = i, c
        decisions[outcome] = priors.support[best]
        risk += best_cost
    return decisions, risk


def y_conditionals(chain):
    pair = marginal(assemble_joint(chain), ["theta", "y"])
    rows = pair.tensor / pair.tensor.sum(axis=1, keepdims=True)
    return ConditionalTable(chain.prior.support, pair.supports[1], rows)


class TestBayesClassify:
    def test_disjoint_supports_zero_error(self):
        priors = normalize([0.5, 0.5], support=("a", "b"))
        cond = ConditionalTable(("a", "b"), (0, 1, 2, 3),
                                np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]))
        rep = bayes_classify(priors, cond)
        assert rep.p_e == 0.0
        assert rep.regions[0] == "a" and rep.regions[3] == "b"

    def test_naive_tree_ambiguous_measurement_goes_to_class1(self):
        chain = naive_tree_chain()
        rep = bayes_classify(chain.prior, y_conditionals(chain), stage="y")
        assert rep.regions[1.5] == "class1"

    def test_asymmetric_cost_moves_the_boundary(self):
        """A 10x penalty for missing class 2 flips borderline outcomes,
        matching the brute-force expected-cost oracle."""
        priors = normalize([0.7, 0.3], support=("c1", "c2"))
        cond = ConditionalTable(("c1", "c2"), (0, 1),
                                np.array([[0.6, 0.4], [0.3, 0.7]]))
        zero_one = CostMatrix.zero_one(2)
        skewed = CostMatrix(np.array([[0.0, 10.0], [1.0, 0.0]]))
        rep_01 = bayes_classify(priors, cond, zero_one)
        rep_sk = bayes_classify(priors, cond, skewed)
        for cost, rep in ((zero_one, rep_01), (skewed, rep_sk)):
            decisions, risk = brute_force_decision(priors, cond, cost)
            assert rep.regions == decisions
            assert rep.risk == pytest.approx(risk)
        assert rep_01.regions[1] == "c1"  # 0.7*0.4 > 0.3*0.7
        assert rep_sk.regions[1] == "c2"  # tenfold miss penalty flips it

    def test_cost_scaling_leaves_decisions_unchanged(self):
        priors = normalize([0.6, 0.4], support=(0, 1))
        cond = ConditionalTable((0, 1), (0, 1, 2),
                                np.array([[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]]))
        base = bayes_classify(priors, cond, CostMatrix.zero_one(2))
        scaled = bayes_classify(priors, cond, CostMatrix(7.5 * CostMatrix.zero_one(2).costs))
        assert base.regions == scaled.regions

    def test_support_mismatch(self):
        priors = normalize([1.0], support=("only",))
        cond = ConditionalTable(("other",), (0,), np.array([[1.0]]))
        with pytest.raises(SupportMismatch):
            bayes_classify(priors, cond)


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

    def test_alpha_forms_agree_at_one(self):
        """The posterior-difference expectation equals the prior-weighted
        conditional difference at alpha = 1."""
        for i in range(20):
            chain = random_chain(stream_rng(51, i), 2, 4, 4, None)
            cond = y_conditionals(chain)
            j_direct = separability(chain.prior, cond, 1.0)
            weighted = chain.prior.probs[:, None] * cond.rows
            mix = weighted.sum(axis=0)
            nz = mix > 0
            q_diff = np.abs(weighted[0, nz] - weighted[1, nz]) / mix[nz]
            j_posterior = float(np.sum(mix[nz] * q_diff))
            assert abs(j_direct - j_posterior) <= 1e-10

    def test_higher_alpha_never_exceeds_alpha_one(self):
        """|q1 - q2|^a <= |q1 - q2| for a >= 1, so the reported values order."""
        for i in range(20):
            chain = random_chain(stream_rng(57, i), 2, 4, 4, None)
            cond = y_conditionals(chain)
            j1 = separability(chain.prior, cond, 1.0)
            j2 = separability(chain.prior, cond, 2.0)
            assert 0.0 <= j2 <= j1 + 1e-12 <= 1.0 + 1e-12

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


class TestPrGap:
    def test_posterior_sampler_preserves_class_mass(self):
        chain = naive_tree_chain()
        rest = posterior_sampler(assemble_joint(chain), seed=0)
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
        rest = posterior_sampler(assemble_joint(chain), seed=0)
        with pytest.raises(PartitionIncomplete):
            pr_gap(chain, rest, {"class1": {0, 1, 2}})
