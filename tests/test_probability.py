"""Exact probability engine: construction, composition, functionals.

Expected values come from independent oracles written before the
assertions: brute-force loops over outcome tuples, hand Bayes arithmetic,
and direct formula evaluation.
"""

import math

import numpy as np
import pytest

from chainlab.errors import (
    AllZeroWeights,
    InvalidDistribution,
    NegativeWeight,
    SupportMismatch,
    UnknownAxis,
    ZeroEvidence,
)
from chainlab.instances import naive_tree_chain, random_chain
from chainlab.probability import (
    ConditionalTable,
    FiniteDistribution,
    JointDistribution,
    PipelineChain,
    assemble_joint,
    condition,
    marginal,
    mutual_information,
    normalize,
)
from chainlab.rng import stream_rng


def brute_force_joint(chain):
    """Triple/quadruple loop oracle for the chain tensor."""
    nt, nx = len(chain.prior.support), len(chain.family.output_support)
    ny = len(chain.channel.output_support)
    if chain.restorer is None:
        t = np.zeros((nt, nx, ny))
        for a in range(nt):
            for b in range(nx):
                for c in range(ny):
                    t[a, b, c] = (
                        chain.prior.probs[a]
                        * chain.family.rows[a, b]
                        * chain.channel.rows[b, c]
                    )
        return t
    nz = len(chain.restorer.output_support)
    t = np.zeros((nt, nx, ny, nz))
    for a in range(nt):
        for b in range(nx):
            for c in range(ny):
                for d in range(nz):
                    t[a, b, c, d] = (
                        chain.prior.probs[a]
                        * chain.family.rows[a, b]
                        * chain.channel.rows[b, c]
                        * chain.restorer.rows[c, d]
                    )
    return t


def mi_by_enumeration(pair: np.ndarray) -> float:
    """Double-loop mutual information oracle in nats."""
    pa = pair.sum(axis=1)
    pb = pair.sum(axis=0)
    total = 0.0
    for i in range(pair.shape[0]):
        for j in range(pair.shape[1]):
            if pair[i, j] > 0:
                total += pair[i, j] * math.log(pair[i, j] / (pa[i] * pb[j]))
    return total


def entropy_nats(p: np.ndarray) -> float:
    """Direct -sum p log p oracle, with 0 log 0 = 0."""
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


class TestNormalize:
    def test_symmetric_weights(self):
        d = normalize([2, 2])
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_forced_proportions(self):
        d = normalize([1, 0, 3])
        np.testing.assert_allclose(d.probs, [0.25, 0.0, 0.75])

    def test_already_normalized_prior(self):
        d = normalize([0.8, 0.2])
        np.testing.assert_allclose(d.probs, [0.8, 0.2])

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeights):
            normalize([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeight):
            normalize([1.0, -0.1])


class TestDistributionInvariants:
    def test_sum_must_be_one(self):
        with pytest.raises(InvalidDistribution):
            FiniteDistribution((0, 1), np.array([0.6, 0.6]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidDistribution):
            FiniteDistribution((0, 0), np.array([0.5, 0.5]))

    def test_rows_must_normalize(self):
        with pytest.raises(InvalidDistribution):
            ConditionalTable((0,), (0, 1), np.array([[0.5, 0.4]]))

    def test_probs_length_must_match_support(self):
        with pytest.raises(InvalidDistribution):
            FiniteDistribution((0, 1, 2), np.array([0.5, 0.5]))

    def test_negative_probability_rejected_even_when_sum_is_one(self):
        with pytest.raises(NegativeWeight):
            FiniteDistribution((0, 1), np.array([1.25, -0.25]))

    def test_probs_are_read_only(self):
        d = FiniteDistribution(("a", "b"), np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            d.probs[0] = 0.5
        assert d.support == ("a", "b") and d.probs[1] == 0.75

    def test_table_shape_must_match_supports(self):
        with pytest.raises(InvalidDistribution):
            ConditionalTable((0, 1), (0, 1), np.array([[0.5, 0.5]]))

    def test_table_negative_entry_rejected(self):
        with pytest.raises(NegativeWeight):
            ConditionalTable((0,), (0, 1), np.array([[1.5, -0.5]]))

    def test_from_rows_fills_implied_zeros(self):
        table = ConditionalTable.from_rows((0, 1), ("u", "v", "w"),
                                           {0: {"w": 1.0}, 1: {"u": 0.25, "v": 0.75}})
        np.testing.assert_array_equal(table.rows, [[0.0, 0.0, 1.0], [0.25, 0.75, 0.0]])

    def test_deterministic_rows_are_point_masses(self):
        table = ConditionalTable.deterministic((0, 1, 2), ("u", "v"), {0: "v", 1: "u", 2: "v"})
        np.testing.assert_array_equal(table.rows, [[0, 1], [1, 0], [0, 1]])
        assert table.output_support == ("u", "v")


class TestJointDistribution:
    def test_duplicate_axes_rejected(self):
        with pytest.raises(UnknownAxis):
            JointDistribution(("a", "a"), ((0,), (0,)), np.ones((1, 1)))

    def test_tensor_shape_must_match_supports(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(("a", "b"), ((0, 1), (0,)), np.full((2, 2), 0.25))

    def test_tensor_must_sum_to_one(self):
        with pytest.raises(InvalidDistribution):
            JointDistribution(("a", "b"), ((0, 1), (0, 1)), np.full((2, 2), 0.3))

    def test_negative_cell_rejected(self):
        t = np.array([[0.75, 0.5], [-0.25, 0.0]])
        with pytest.raises(NegativeWeight):
            JointDistribution(("a", "b"), ((0, 1), (0, 1)), t)

    def test_partial_assignment_sums_out_the_rest(self):
        joint = assemble_joint(random_chain(stream_rng(16, 0), 2, 3, 4, 3))
        for x in joint.support_of("x"):
            for y in joint.support_of("y"):
                by_hand = sum(joint.prob_of(theta=t, x=x, y=y, xhat=z)
                              for t in joint.support_of("theta")
                              for z in joint.support_of("xhat"))
                assert abs(joint.prob_of(x=x, y=y) - by_hand) < 1e-15

    def test_support_of_unknown_axis(self):
        joint = assemble_joint(naive_tree_chain())
        with pytest.raises(UnknownAxis):
            joint.support_of("xhat")


class TestPipelineChain:
    def test_axes_follow_restorer_presence(self):
        chain = random_chain(stream_rng(17, 0), 2, 3, 3, None)
        assert chain.axes == ("theta", "x", "y")
        assert assemble_joint(chain).tensor.shape == (2, 3, 3)
        full = random_chain(stream_rng(17, 1), 2, 3, 3, 5)
        assert full.axes == ("theta", "x", "y", "xhat")
        assert assemble_joint(full).tensor.shape == (2, 3, 3, 5)

    def test_prior_must_match_family_classes(self):
        prior = normalize([1, 1], support=("a", "b"))
        family = ConditionalTable.deterministic(("a", "c"), (0, 1), {"a": 0, "c": 1})
        channel = ConditionalTable.deterministic((0, 1), (0, 1), {0: 0, 1: 1})
        with pytest.raises(SupportMismatch):
            PipelineChain(prior, family, channel)

    def test_restorer_must_read_the_measurement_alphabet(self):
        chain = naive_tree_chain()
        restorer = ConditionalTable.deterministic((0.5, 1.5), (0,), {0.5: 0, 1.5: 0})
        with pytest.raises(SupportMismatch):
            PipelineChain(chain.prior, chain.family, chain.channel, restorer)


class TestAssembleJoint:
    def test_naive_tree_known_cells(self):
        """p(class1, x=1, y=1.5) = 0.8 * (1/3) * 0.4."""
        joint = assemble_joint(naive_tree_chain())
        assert abs(joint.prob_of(theta="class1", x=1, y=1.5) - 0.8 * (1 / 3) * 0.4) < 1e-15
        assert abs(joint.prob_of(x=1, y=1.5) - 0.10666666666666667) < 1e-15
        assert abs(joint.prob_of(x=4, y=1.5) - 0.06666666666666667) < 1e-15

    def test_identity_channel_delta_family_copies_prior(self):
        prior = normalize([0.3, 0.7], support=("a", "b"))
        family = ConditionalTable.deterministic(("a", "b"), (0, 1), {"a": 0, "b": 1})
        channel = ConditionalTable.deterministic((0, 1), (0, 1), {0: 0, 1: 1})
        joint = assemble_joint(PipelineChain(prior, family, channel))
        np.testing.assert_allclose(joint.prob_of(theta="a", x=0, y=0), 0.3)
        np.testing.assert_allclose(joint.prob_of(theta="b", x=1, y=1), 0.7)
        assert joint.prob_of(theta="a", x=1) == 0.0

    def test_matches_brute_force_loops(self):
        for i in range(20):
            chain = random_chain(stream_rng(11, i), 2, 3, 3, 3)
            joint = assemble_joint(chain)
            np.testing.assert_allclose(joint.tensor, brute_force_joint(chain), atol=1e-15)

    def test_support_mismatch_raises(self):
        prior = normalize([1, 1], support=("a", "b"))
        family = ConditionalTable.deterministic(("a", "b"), (0, 1), {"a": 0, "b": 1})
        channel = ConditionalTable.deterministic((5, 6), (0, 1), {5: 0, 6: 1})
        with pytest.raises(SupportMismatch):
            PipelineChain(prior, family, channel)


class TestMarginalCondition:
    def test_marginalizing_y_recovers_family(self):
        chain = naive_tree_chain()
        joint = assemble_joint(chain)
        pair = marginal(joint, ["theta", "x"])
        expected = chain.prior.probs[:, None] * chain.family.rows
        np.testing.assert_allclose(pair.tensor, expected, atol=1e-15)

    def test_naive_tree_ambiguous_measurement_mass(self):
        joint = assemble_joint(naive_tree_chain())
        y = marginal(joint, ["y"])
        assert abs(y.prob_of(y=1.5) - (0.10666666666666667 + 0.06666666666666667)) < 1e-15

    def test_matches_loop_summation(self):
        joint = assemble_joint(random_chain(stream_rng(12, 0), 2, 3, 4, None))
        t = joint.tensor
        by_hand = np.zeros(t.shape[1])
        for b in range(t.shape[1]):
            for a in range(t.shape[0]):
                for c in range(t.shape[2]):
                    by_hand[b] += t[a, b, c]
        np.testing.assert_allclose(marginal(joint, ["x"]).tensor, by_hand, atol=1e-15)

    def test_marginal_axis_order_follows_request(self):
        joint = assemble_joint(random_chain(stream_rng(12, 1), 2, 3, 4, None))
        swapped = marginal(joint, ["x", "theta"])
        direct = marginal(joint, ["theta", "x"])
        np.testing.assert_allclose(swapped.tensor, direct.tensor.T)

    def test_unknown_axis(self):
        joint = assemble_joint(naive_tree_chain())
        with pytest.raises(UnknownAxis):
            marginal(joint, ["theta", "nope"])

    def test_condition_naive_tree_posterior(self):
        """Hand Bayes arithmetic: P(class1 | y=1.5) = 0.1067 / 0.1733."""
        joint = assemble_joint(naive_tree_chain())
        post = condition(joint, "y", 1.5)
        expected = 0.10666666666666667 / 0.17333333333333334
        assert abs(post.prob_of(theta="class1") - expected) < 1e-12
        assert abs(expected - 0.6157) < 5e-4

    def test_condition_on_invertible_channel_gives_point_mass(self):
        prior = normalize([0.4, 0.6], support=("a", "b"))
        family = ConditionalTable.deterministic(("a", "b"), (0, 1), {"a": 0, "b": 1})
        channel = ConditionalTable.deterministic((0, 1), ("u", "v"), {0: "u", 1: "v"})
        joint = assemble_joint(PipelineChain(prior, family, channel))
        post = condition(joint, "y", "u")
        np.testing.assert_allclose(marginal(post, ["x"]).tensor, [1.0, 0.0])

    def test_condition_independent_joint_is_noop(self):
        t = np.full((2, 3), 1.0 / 6.0)
        joint = JointDistribution(("a", "b"), ((0, 1), (0, 1, 2)), t)
        post = condition(joint, "a", 0)
        np.testing.assert_allclose(post.tensor, np.full(3, 1.0 / 3.0))

    def test_zero_evidence(self):
        prior = normalize([1.0, 0.0], support=("a", "b"))
        family = ConditionalTable.deterministic(("a", "b"), (0, 1), {"a": 0, "b": 1})
        channel = ConditionalTable.deterministic((0, 1), (0, 1), {0: 0, 1: 1})
        joint = assemble_joint(PipelineChain(prior, family, channel))
        with pytest.raises(ZeroEvidence):
            condition(joint, "y", 1)

    def test_condition_then_mix_reconstructs_joint(self):
        joint = assemble_joint(random_chain(stream_rng(13, 0), 2, 3, 4, 3))
        y_axis = joint.axis_index("y")
        rebuilt = np.zeros_like(joint.tensor)
        y_dist = marginal(joint, ["y"])
        for k, label in enumerate(joint.support_of("y")):
            p = y_dist.tensor[k]
            if p == 0:
                continue
            sl = condition(joint, "y", label)
            rebuilt[:, :, k, :] = p * sl.tensor
        np.testing.assert_allclose(rebuilt, joint.tensor, atol=1e-12)


class TestInformationFunctionals:
    def test_mi_product_joint_is_zero(self):
        t = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        joint = JointDistribution(("a", "b"), ((0, 1), (0, 1, 2)), t)
        assert mutual_information(joint, "a", "b") == 0.0

    def test_mi_perfectly_correlated_bit(self):
        t = np.array([[0.5, 0.0], [0.0, 0.5]])
        joint = JointDistribution(("a", "b"), ((0, 1), (0, 1)), t)
        assert mutual_information(joint, "a", "b") == pytest.approx(math.log(2))

    def test_mi_matches_enumeration_oracle_and_dpi(self):
        joint = assemble_joint(naive_tree_chain())
        i_x = mutual_information(joint, "theta", "x")
        i_y = mutual_information(joint, "theta", "y")
        np.testing.assert_allclose(i_x, mi_by_enumeration(marginal(joint, ["theta", "x"]).tensor))
        np.testing.assert_allclose(i_y, mi_by_enumeration(marginal(joint, ["theta", "y"]).tensor))
        assert i_x >= i_y

    def test_same_axis_twice_rejected(self):
        joint = assemble_joint(naive_tree_chain())
        with pytest.raises(UnknownAxis):
            mutual_information(joint, "x", "x")

    def test_nats_are_bits_times_log_two(self):
        joint = assemble_joint(random_chain(stream_rng(18, 0), 3, 4, 4, None))
        pair = marginal(joint, ["theta", "y"]).tensor
        outer = np.outer(pair.sum(axis=1), pair.sum(axis=0))
        nz = pair > 0
        bits = float(np.sum(pair[nz] * np.log2(pair[nz] / outer[nz])))
        assert mutual_information(joint, "theta", "y") == pytest.approx(bits * math.log(2))

    def test_symmetric_in_its_axes(self):
        for i in range(20):
            joint = assemble_joint(random_chain(stream_rng(18, 1 + i), 3, 4, 5, 3))
            for a, b in (("theta", "y"), ("x", "xhat"), ("y", "xhat")):
                assert abs(mutual_information(joint, a, b) - mutual_information(joint, b, a)) < 1e-12


class TestChainRuleProperties:
    def test_mi_entropy_identity(self):
        """I(A;B) = H(A) + H(B) - H(A,B)."""
        for i in range(30):
            rng = stream_rng(15, i)
            t = rng.dirichlet(np.ones(12)).reshape(3, 4)
            joint = JointDistribution(("a", "b"), (tuple(range(3)), tuple(range(4))), t)
            h_a, h_b, h_ab = (entropy_nats(p) for p in (t.sum(axis=1), t.sum(axis=0), t))
            assert abs(mutual_information(joint, "a", "b") - (h_a + h_b - h_ab)) < 1e-9

    def test_mi_bounded_by_each_marginal_entropy(self):
        """0 <= I(A;B) <= min(H(A), H(B))."""
        for i in range(30):
            t = stream_rng(19, i).dirichlet(np.full(15, 0.3)).reshape(3, 5)
            joint = JointDistribution(("a", "b"), (tuple(range(3)), tuple(range(5))), t)
            i_ab = mutual_information(joint, "a", "b")
            assert 0.0 <= i_ab <= min(entropy_nats(t.sum(axis=1)), entropy_nats(t.sum(axis=0))) + 1e-12

    def test_dpi_on_random_chains(self):
        """Class information is monotone along every assembled chain."""
        for i in range(100):
            rng = stream_rng(16, i)
            chain = random_chain(rng, 2, 4, 4, 4)
            joint = assemble_joint(chain)
            i_x = mutual_information(joint, "theta", "x")
            i_y = mutual_information(joint, "theta", "y")
            i_z = mutual_information(joint, "theta", "xhat")
            assert i_x >= i_y - 1e-9
            assert i_y >= i_z - 1e-9

