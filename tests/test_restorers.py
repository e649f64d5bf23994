"""Restorers (conditional-mean, posterior sampler, its per-class version) and
the sample-mean estimator with its Monte Carlo harness."""

import dataclasses
import math

import numpy as np
import pytest

import chainlab.experiments as experiments
from chainlab.errors import (
    ContractViolation,
    NonNumericSupport,
    SupportMismatch,
)
from chainlab.information import dpi_audit, fisher_information
from chainlab.instances import naive_tree_chain, random_chain
from chainlab.probability import (
    ChainStack,
    ConditionalTable,
    PipelineChain,
    assemble_joint,
    condition,
    marginal,
    normalize,
    pair_information,
)
import chainlab.restorers as restorers
from chainlab.restorers import (
    awgn_mean_sampler,
    constant_restorer,
    estimator_variance_mc,
    mmse_restorer,
    posterior_sampler,
    with_class_restorer,
    with_restorer,
)
from chainlab.rng import stream_rng


def numeric_chain(seed: int, ambiguous: bool = True) -> PipelineChain:
    """Small chain with numeric sources and a two-to-one degradation."""
    prior = normalize([0.5, 0.5], support=("a", "b"))
    family = ConditionalTable(("a", "b"), (0, 1), np.array([[1.0, 0.0], [0.0, 1.0]]))
    if ambiguous:
        channel = ConditionalTable.deterministic((0, 1), ("u",), {0: "u", 1: "u"})
    else:
        channel = ConditionalTable.deterministic((0, 1), ("u", "v"), {0: "u", 1: "v"})
    return PipelineChain(prior, family, channel)


def class_restored(chain: PipelineChain) -> tuple:
    """(theta, x, y, xhat) joint of the chain restored by its class-matched
    sampler, and the sampler's (theta, y, x) tables."""
    stack = with_class_restorer(ChainStack.of(chain))
    return assemble_joint(stack)[0], stack.restorer[0]


def class_law(tensor: np.ndarray, keep: int) -> np.ndarray:
    """Per-class law of axis ``keep`` of a (theta, ...) tensor, one row per class."""
    rows = tensor.sum(axis=tuple(a for a in range(1, tensor.ndim) if a != keep))
    return rows / rows.sum(axis=1, keepdims=True)


def _row(table: ConditionalTable, label) -> np.ndarray:
    """The output probabilities of one input label of a table."""
    return table.rows[table.input_support.index(label)]


def _prob(table: ConditionalTable, label, out) -> float:
    """p(out | label) in a table."""
    return _row(table, label)[table.output_support.index(out)]


def expected_squared_error(joint) -> float:
    """E (x - xhat)^2 under the joint, summed over the pair marginal."""
    pair = marginal(joint, ["x", "xhat"])
    a = np.array([float(v) for v in pair.supports[0]])
    b = np.array([float(v) for v in pair.supports[1]])
    return float(np.sum(pair.tensor * (a[:, None] - b[None, :]) ** 2))


class TestMmseRestorer:
    def test_invertible_channel_returns_preimage(self):
        chain = numeric_chain(0, ambiguous=False)
        rest = mmse_restorer(assemble_joint(chain))
        assert _prob(rest, "u", 0.0) == 1.0
        assert _prob(rest, "v", 1.0) == 1.0

    def test_two_equiprobable_preimages_average(self):
        """Sources 0 and 1 both explain the measurement; the output is 0.5."""
        chain = numeric_chain(0, ambiguous=True)
        rest = mmse_restorer(assemble_joint(chain))
        assert _prob(rest, "u", 0.5) == 1.0

    def test_prior_weighted_blend_weights(self):
        """Deterministic two-branch construction: class priors 0.8/0.2 with
        uniform class conditionals blend the two explanations of the shared
        measurement 4:1."""
        prior = normalize([0.8, 0.2], support=("class1", "class2"))
        family = ConditionalTable(
            ("class1", "class2"), (0, 2, 1, 3),
            np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]),
        )
        channel = ConditionalTable.deterministic(
            (0, 2, 1, 3), ("shared", "a", "b"), {0: "shared", 1: "shared", 2: "a", 3: "b"}
        )
        joint = assemble_joint(PipelineChain(prior, family, channel))
        rest = mmse_restorer(joint)
        row = _row(rest, "shared")
        got = [v for v, p in zip(rest.output_support, row) if p == 1.0][0]
        p_shared = 0.8 * 0.5 + 0.2 * 0.5
        c_a = 0.8 * 0.5 / p_shared
        c_b = 0.2 * 0.5 / p_shared
        assert c_a / c_b == pytest.approx(4.0)
        assert got == pytest.approx(c_a * 0 + c_b * 1)

    def test_naive_tree_blend_uses_likelihood_weights(self):
        """In the naive tree the shared measurement is only reached from
        source 1 with probability 0.4, so the blend follows the posterior."""
        joint = assemble_joint(naive_tree_chain())
        rest = mmse_restorer(joint)
        row = _row(rest, 1.5)
        got = [v for v, p in zip(rest.output_support, row) if p == 1.0][0]
        c_a = (0.8 / 3 * 0.4) / (0.8 / 3 * 0.4 + 0.2 / 3)
        assert got == pytest.approx(c_a * 1 + (1 - c_a) * 4)

    def test_non_numeric_support_rejected(self):
        prior = normalize([1.0], support=("only",))
        family = ConditionalTable.deterministic(("only",), ("sym",), {"only": "sym"})
        channel = ConditionalTable.deterministic(("sym",), ("y",), {"sym": "y"})
        with pytest.raises(NonNumericSupport):
            mmse_restorer(assemble_joint(PipelineChain(prior, family, channel)))

    def test_minimizes_squared_error_among_point_maps(self):
        """Exhaustive perturbation: nudging any output of the conditional
        mean map can only increase the expected squared error."""
        chain = random_chain(stream_rng(41, 0), 2, 4, 3, None)
        joint = assemble_joint(chain)
        rest = mmse_restorer(joint)
        base = expected_squared_error(assemble_joint(with_restorer(chain, rest)))
        y_support = chain.channel.output_support
        for k, y in enumerate(y_support):
            for delta in (-0.25, 0.25):
                value = [v for v, p in zip(rest.output_support, rest.rows[k]) if p == 1.0][0]
                out_support = tuple(sorted(set(rest.output_support) | {value + delta}))
                rows = np.zeros((len(y_support), len(out_support)))
                for kk in range(len(y_support)):
                    v = [vv for vv, p in zip(rest.output_support, rest.rows[kk]) if p == 1.0][0]
                    rows[kk, out_support.index(v + delta if kk == k else v)] = 1.0
                perturbed = ConditionalTable(y_support, out_support, rows)
                worse = expected_squared_error(
                    assemble_joint(PipelineChain(chain.prior, chain.family, chain.channel, perturbed))
                )
                assert worse >= base - 1e-12


class TestPosteriorSampler:
    def test_unreachable_measurement_row_is_uniform(self):
        """A measurement no source reaches carries no joint mass; its row is
        uniform and every reachable row is the exact posterior."""
        prior = normalize([0.5, 0.5], support=("a", "b"))
        family = ConditionalTable(("a", "b"), (0, 1, 2),
                                  np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))
        channel = ConditionalTable.deterministic((0, 1, 2), ("u", "v", "never"),
                                                 {0: "u", 1: "u", 2: "v"})
        joint = assemble_joint(PipelineChain(prior, family, channel))
        rest = posterior_sampler(joint)
        np.testing.assert_allclose(_row(rest, "never"), np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(_row(rest, "u"), [1 / 3, 2 / 3, 0.0], atol=1e-15)
        np.testing.assert_allclose(_row(rest, "v"), [0.0, 0.0, 1.0])

    def test_class_tables_mix_to_the_unconditional_posterior(self):
        """sum_theta p(theta | y) p(x | y, theta) = p(x | y) on reachable rows."""
        for i in range(10):
            chain = random_chain(stream_rng(48, i), 3, 4, 4, None)
            joint = assemble_joint(chain)
            _, tables = class_restored(chain)
            post = posterior_sampler(joint)
            for j, y in enumerate(joint.support_of("y")):
                p_theta = marginal(condition(joint, "y", y), ["theta"]).tensor
                mixed = sum(p_theta[k] * tables[k, j] for k in range(len(p_theta)))
                np.testing.assert_allclose(mixed, _row(post, y), atol=1e-12)


class TestConstantRestorer:
    def test_every_row_is_the_constant(self):
        rest = constant_restorer((0.5, 1.5, 2.5), (0, 1, 2), 2)
        assert rest.input_support == (0.5, 1.5, 2.5) and rest.output_support == (0, 1, 2)
        np.testing.assert_array_equal(rest.rows, np.tile([0.0, 0.0, 1.0], (3, 1)))

    def test_erases_all_class_information(self):
        chain = naive_tree_chain()
        rest = constant_restorer(chain.channel.output_support, chain.family.output_support, 0)
        audit = dpi_audit(with_restorer(chain, rest))
        assert audit.i_theta_y > 0.0
        assert audit.i_theta_xhat == 0.0


class TestClassRestorerJoint:
    def test_marginal_without_restored_stage_is_the_chain(self):
        chain = random_chain(stream_rng(49, 0), 2, 3, 4, None)
        full, _ = class_restored(chain)
        np.testing.assert_allclose(full.sum(axis=3), assemble_joint(chain).tensor, atol=1e-15)

    def test_chain_with_restorer_rejected(self):
        chain = random_chain(stream_rng(49, 1), 2, 3, 3, 3)
        with pytest.raises(ContractViolation):
            with_class_restorer(ChainStack.of(chain))

    def test_tables_must_read_the_measurement_alphabet(self):
        stack = ChainStack.of(random_chain(stream_rng(49, 2), 2, 3, 3, None))
        wrong = np.tile(np.eye(4), (1, 2, 1, 1))  # (chain, theta, y, xhat) with 4 measurements
        with pytest.raises(SupportMismatch):
            ChainStack(stack.prior, stack.family, stack.channel, wrong)

    def test_class_restorer_needs_one_table_per_class(self):
        stack = ChainStack.of(random_chain(stream_rng(49, 3), 2, 3, 3, None))
        wrong = np.tile(np.eye(3), (1, 3, 1, 1))  # three class tables for two classes
        with pytest.raises(SupportMismatch):
            ChainStack(stack.prior, stack.family, stack.channel, wrong)


class TestPerfectPerception:
    def test_output_marginal_equals_source_marginal(self):
        for i in range(20):
            chain = random_chain(stream_rng(42, i), 2, 4, 4, None)
            joint = assemble_joint(chain)
            rest = posterior_sampler(joint)
            full = assemble_joint(with_restorer(chain, rest))
            np.testing.assert_allclose(
                marginal(full, ["xhat"]).tensor,
                marginal(joint, ["x"]).tensor,
                atol=1e-9,
            )

    def test_rows_copy_posterior_exactly(self):
        joint = assemble_joint(naive_tree_chain())
        rest = posterior_sampler(joint)
        for y in rest.input_support:
            post = condition(joint, "y", y)
            np.testing.assert_allclose(
                _row(rest, y),
                marginal(post, ["x"]).tensor,
                atol=1e-12,
            )

    def test_conditional_matches_class_law(self):
        """Per class, the restored conditional law equals the source law."""
        chain = random_chain(stream_rng(43, 0), 2, 4, 4, None)
        full, _ = class_restored(chain)
        np.testing.assert_allclose(class_law(full, 3), class_law(assemble_joint(chain).tensor, 1),
                                   atol=1e-12)

    def test_invertible_channel_collapses_to_inverse(self):
        chain = numeric_chain(0, ambiguous=False)
        joint = assemble_joint(chain)
        assert _prob(posterior_sampler(joint), "u", 0) == 1.0
        assert class_restored(chain)[1][0, 0, 0] == 1.0  # class "a", measurement "u", source 0

    def test_conditional_preserves_fisher_information_on_gridded_chains(self):
        """Class-matched restoration on an invertible-channel chain leaves
        the family's finite-difference information unchanged (it reproduces
        the class-conditional law itself)."""
        from chainlab.information import TableFamily, fisher_information

        rng = stream_rng(47, 0)
        chain = random_chain(rng, 3, 4, 5, None, invertible_channel=True)
        full, _ = class_restored(chain)
        grid = np.array([0.0, 1.0, 2.0])
        src_rows = class_law(assemble_joint(chain).tensor, 1)
        rec_rows = class_law(full, 3)
        j_src = fisher_information(TableFamily.from_rows(grid, src_rows), 1.0).J
        j_rec = fisher_information(TableFamily.from_rows(grid, rec_rows), 1.0).J
        assert abs(j_src - j_rec) <= 1e-9 * max(j_src, 1.0)

    def test_conditional_preserves_information_on_invertible_chains(self):
        """With an invertible degradation, the class-matched restorer keeps
        the full class information at the restored stage."""
        for i in range(10):
            chain = random_chain(stream_rng(44, i), 2, 4, 5, None, invertible_channel=True)
            full, _ = class_restored(chain)
            i_x = pair_information(full.sum(axis=(2, 3)))
            i_xhat = pair_information(full.sum(axis=(1, 2)))
            assert abs(i_x - i_xhat) <= 1e-9


class TestEstimatorVarianceMc:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ContractViolation, match="stage"):
            estimator_variance_mc(awgn_mean_sampler(1.0, 0.0), "theta", 0.0, 5, 10, seed=0)

    def test_noiseless_chain_identical_estimates(self):
        sampler = awgn_mean_sampler(1.0, 0.0)
        rep_x = estimator_variance_mc(sampler, "x", 0.5, 10, 200, seed=4)
        rep_y = estimator_variance_mc(sampler, "y", 0.5, 10, 200, seed=4)
        np.testing.assert_array_equal(rep_x.estimates, rep_y.estimates)

    def test_averaging_construction_attains_bound(self):
        """Noise variance (m-1) sigma_x^2 makes the measurement-side sample
        mean hit variance sigma_x^2, and the restored-stage estimator is the
        same statistic."""
        m, sigma_x = 10, 1.0
        sampler = awgn_mean_sampler(sigma_x, math.sqrt(m - 1) * sigma_x)
        rep_y = estimator_variance_mc(sampler, "y", 0.0, m, 10_000, seed=6)
        rep_xhat = estimator_variance_mc(sampler, "xhat", 0.0, m, 10_000, seed=6)
        assert abs(rep_y.mse - sigma_x**2) <= 4 * rep_y.mse_stderr
        np.testing.assert_array_equal(rep_y.estimates, rep_xhat.estimates)
        assert rep_y.mse >= sigma_x**2 - restorers._FLAG_SIGMAS * rep_y.mse_stderr

    @pytest.mark.parametrize("c", [2.0**-300, 2.0**300])
    def test_mse_commutes_with_power_of_two_scaling(self, c):
        """Squared errors of size c^2 have a variance of size c^4, outside
        float range here; in a power-of-two unit of the errors the MSE and
        its standard error scale by exactly c^2."""
        base = estimator_variance_mc(awgn_mean_sampler(1.0, 2.0), "y", 0.0, 5, 300, seed=3)
        scaled = estimator_variance_mc(awgn_mean_sampler(c, 2.0 * c), "y", 0.0, 5, 300, seed=3)
        np.testing.assert_array_equal(scaled.estimates, c * base.estimates)
        assert (scaled.mse, scaled.mse_stderr) == (c**2 * base.mse, c**2 * base.mse_stderr)

    def test_single_replicate_rejected(self):
        with pytest.raises(ContractViolation):
            estimator_variance_mc(awgn_mean_sampler(1.0, 0.0), "x", 0.0, 5, 1, seed=0)

    def test_runs_reproduce_under_a_seed_and_differ_across_seeds(self):
        sampler = awgn_mean_sampler(1.0, 0.5)
        a = estimator_variance_mc(sampler, "y", 0.0, 6, 50, seed=8)
        b = estimator_variance_mc(sampler, "y", 0.0, 6, 50, seed=8)
        c = estimator_variance_mc(sampler, "y", 0.0, 6, 50, seed=9)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert not np.array_equal(a.estimates, c.estimates)
        rows = sampler(stream_rng(8), 0.0, 6, 50)["y"]
        np.testing.assert_array_equal(a.estimates, rows.mean(axis=1))

    def test_prefix_stable_across_block_boundaries(self):
        """Runs of 50, 1 500 and 2 500 replicates cross the block boundaries at
        1 024 and 2 048 and agree bit for bit on their common prefix, and with
        one unblocked draw of the same stream."""
        assert restorers._MC_BLOCK == 1024
        sampler = awgn_mean_sampler(1.0, 3.0)
        a, b, c = (estimator_variance_mc(sampler, "xhat", 0.3, 10, n, seed=5).estimates
                   for n in (50, 1500, 2500))
        np.testing.assert_array_equal(a, c[:50])
        np.testing.assert_array_equal(b, c[:1500])
        whole = sampler(stream_rng(5), 0.3, 10, 2500)["xhat"][:, 0]
        np.testing.assert_array_equal(c, whole)

    def test_one_generator_per_call(self, monkeypatch):
        made, blocks = [], []

        def counting_stream_rng(*args):
            made.append(args)
            return stream_rng(*args)

        sampler = awgn_mean_sampler(1.0, 0.5)

        def spy(rng, theta, m, replicates):
            blocks.append(replicates)
            return sampler(rng, theta, m, replicates)

        monkeypatch.setattr(restorers, "stream_rng", counting_stream_rng)
        estimator_variance_mc(spy, "y", 0.0, 3, 2500, seed=7)
        assert made == [(7,)]
        assert blocks == [1024, 1024, 452]
        estimator_variance_mc(spy, "y", 0.0, 3, 100, seed=7)
        assert made == [(7,), (7,)]

    def test_error_far_below_a_claimed_bound_is_flagged(self):
        """The sample mean of 10 unit normals has error variance 0.1; a
        claimed bound of 1 is undercut by many standard errors, which the
        report's numbers show and crb_attainment's rule flags."""
        rep = estimator_variance_mc(awgn_mean_sampler(1.0, 0.0), "x", 0.0, 10, 500, seed=10)
        assert rep.mse < 0.2
        assert rep.mse < 1.0 - restorers._FLAG_SIGMAS * rep.mse_stderr

    def test_crb_attainment_flags_an_error_below_its_bound(self, monkeypatch):
        """crb_attainment judges the reports itself: with the chain's noise
        halved, both estimators' errors fall to a quarter of the bound, and
        its no_bound_violation_flag verdict fails."""
        report, _, _ = experiments.run_experiment("crb_attainment", seed=0)
        assert report["verdicts"]["no_bound_violation_flag"]
        monkeypatch.setattr(experiments, "awgn_mean_sampler",
                            lambda sigma_x, sigma_n: awgn_mean_sampler(sigma_x / 2, sigma_n / 2))
        report, _, _ = experiments.run_experiment("crb_attainment", seed=0)
        assert not report["verdicts"]["no_bound_violation_flag"]

    def test_report_fields(self):
        rep = estimator_variance_mc(awgn_mean_sampler(1.0, 0.0), "x", 1.5, 4, 30, seed=11)
        assert [f.name for f in dataclasses.fields(rep)] == ["mse", "mse_stderr", "estimates"]
        assert rep.estimates.shape == (30,)
        assert rep.mse == pytest.approx(float(np.mean((rep.estimates - 1.5) ** 2)))
        assert not hasattr(rep, "flagged")  # the runner judges the numbers


class TestAwgnMeanSampler:
    def test_restored_stage_is_the_mean_of_the_measurements(self):
        stages = awgn_mean_sampler(1.5, 2.0)(stream_rng(12, 0), 0.5, 7, 3)
        assert stages["x"].shape == stages["y"].shape == (3, 7)
        assert stages["xhat"].shape == (3, 1)
        np.testing.assert_array_equal(stages["xhat"], stages["y"].mean(axis=1, keepdims=True))
        assert not np.array_equal(stages["x"], stages["y"])

    def test_row_r_holds_source_then_measurement_noise(self):
        z = stream_rng(12, 0).standard_normal((3, 2, 7))
        stages = awgn_mean_sampler(1.5, 2.0)(stream_rng(12, 0), 0.5, 7, 3)
        np.testing.assert_array_equal(stages["x"], 1.5 * z[:, 0] + 0.5)
        np.testing.assert_array_equal(stages["y"], 2.0 * z[:, 1] + stages["x"])

    def test_noise_variance_adds(self):
        """Per-sample measurement variance is sigma_x^2 + sigma_n^2."""
        stages = awgn_mean_sampler(1.0, 2.0)(stream_rng(12, 1), 0.0, 200_000, 1)
        assert stages["y"].shape == (1, 200_000)
        assert stages["x"].var() == pytest.approx(1.0, rel=0.02)
        assert stages["y"].var() == pytest.approx(5.0, rel=0.02)


class TestMatchedLawInformationAudit:
    def test_unconditional_restorer_cannot_gain_information(self):
        """The matched-law restorer redraws the source from its posterior;
        downstream class information can only shrink or stay."""
        for i in range(10):
            chain = random_chain(stream_rng(46, i), 2, 3, 3, None)
            joint = assemble_joint(chain)
            rest = posterior_sampler(joint)
            audit = dpi_audit(with_restorer(chain, rest))
            assert audit.monotone
