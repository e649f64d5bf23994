"""Restorers (conditional-mean, posterior-mode, samplers, matched-law) and
parameter estimators with their Monte Carlo harness."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from chainlab.errors import (
    EmptySample,
    MissingOracle,
    NonNumericSupport,
    ZeroL1Norm,
)
from chainlab.information import dpi_audit, fisher_information
from chainlab.instances import naive_tree_chain, random_chain
from chainlab.probability import (
    ConditionalTable,
    PipelineChain,
    assemble_joint,
    axis_distribution,
    condition,
    marginal,
    normalize,
)
from chainlab.restorers import (
    ParamEstimator,
    assemble_joint_with_class_restorer,
    awgn_mean_sampler,
    class_conditional_restorer_tables,
    estimate_parameter,
    estimator_variance_mc,
    expected_squared_error,
    laplace_rate_sampler,
    map_restorer,
    mmse_restorer,
    perfect_perception_restorer,
    posterior_sampler,
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


class TestMmseRestorer:
    def test_invertible_channel_returns_preimage(self):
        chain = numeric_chain(0, ambiguous=False)
        rest = mmse_restorer(assemble_joint(chain))
        assert rest.table.row("u").prob_of(0.0) == 1.0
        assert rest.table.row("v").prob_of(1.0) == 1.0

    def test_two_equiprobable_preimages_average(self):
        """Sources 0 and 1 both explain the measurement; the output is 0.5."""
        chain = numeric_chain(0, ambiguous=True)
        rest = mmse_restorer(assemble_joint(chain))
        assert rest.table.row("u").prob_of(0.5) == 1.0

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
        row = rest.table.row("shared")
        got = [v for v, p in zip(row.support, row.probs) if p == 1.0][0]
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
        row = rest.table.row(1.5)
        got = [v for v, p in zip(row.support, row.probs) if p == 1.0][0]
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
                value = [v for v, p in zip(rest.table.output_support, rest.table.rows[k]) if p == 1.0][0]
                out_support = tuple(sorted(set(rest.table.output_support) | {value + delta}))
                rows = np.zeros((len(y_support), len(out_support)))
                for kk in range(len(y_support)):
                    v = [vv for vv, p in zip(rest.table.output_support, rest.table.rows[kk]) if p == 1.0][0]
                    rows[kk, out_support.index(v + delta if kk == k else v)] = 1.0
                perturbed = ConditionalTable(y_support, out_support, rows)
                worse = expected_squared_error(
                    assemble_joint(PipelineChain(chain.prior, chain.family, chain.channel, perturbed))
                )
                assert worse >= base - 1e-12


class TestMapRestorer:
    def test_naive_tree_posterior_mode_vs_likelihood_mode(self):
        """At the shared measurement the posterior picks source 1 while the
        bare likelihood picks source 4."""
        chain = naive_tree_chain()
        joint = assemble_joint(chain)
        rest = map_restorer(joint)
        row = rest.table.row(1.5)
        assert row.prob_of(1) == 1.0
        lik = chain.channel.rows[:, chain.channel.output_support.index(1.5)]
        assert chain.channel.input_support[int(np.argmax(lik))] == 4

    def test_point_posterior_returns_that_point(self):
        chain = numeric_chain(0, ambiguous=False)
        rest = map_restorer(assemble_joint(chain))
        assert rest.table.row("u").prob_of(0) == 1.0

    def test_tie_goes_to_lowest_index_and_is_recorded(self):
        chain = numeric_chain(0, ambiguous=True)  # exact 0.5/0.5 posterior
        rest = map_restorer(assemble_joint(chain))
        assert rest.table.row("u").prob_of(0) == 1.0
        assert rest.meta["ties"] == [("u", [0, 1])]


class TestPosteriorSampler:
    def test_delta_posterior_constant_output(self):
        chain = numeric_chain(0, ambiguous=False)
        rest = posterior_sampler(assemble_joint(chain), seed=3)
        assert set(rest.sample("u", 200, seed=3)) == {0}

    def test_seeded_draws_reproduce(self):
        joint = assemble_joint(naive_tree_chain())
        rest = posterior_sampler(joint, seed=9)
        a = rest.sample(1.5, 1000, seed=9)
        b = rest.sample(1.5, 1000, seed=9)
        assert a == b
        c = rest.sample(1.5, 1000, seed=10)
        assert a != c

    def test_empirical_frequencies_match_posterior(self):
        joint = assemble_joint(naive_tree_chain())
        rest = posterior_sampler(joint, seed=0)
        n = 100_000
        draws = rest.sample(1.5, n, seed=0)
        frac = sum(1 for d in draws if d == 1) / n
        p = 0.10666666666666667 / 0.17333333333333334
        assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_chi_square_goodness_of_fit(self):
        """Empirical draw counts per measurement pass a chi-square test."""
        joint = assemble_joint(naive_tree_chain())
        rest = posterior_sampler(joint, seed=1)
        n = 100_000
        y_mass = axis_distribution(joint, "y")
        for y in rest.table.input_support:
            if y_mass.prob_of(y) == 0:
                continue
            row = rest.table.row(y)
            draws = rest.sample(y, n, seed=1)
            counts = np.array([sum(1 for d in draws if d == lab) for lab in row.support])
            expected = row.probs * n
            keep = expected > 5
            if keep.sum() < 2:
                continue
            stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
            pval = float(chi2.sf(stat, keep.sum() - 1))
            assert pval > 0.001


class TestPerfectPerception:
    def test_output_marginal_equals_source_marginal(self):
        for i in range(20):
            chain = random_chain(stream_rng(42, i), 2, 4, 4, None)
            joint = assemble_joint(chain)
            rest = perfect_perception_restorer(joint)
            full = assemble_joint(with_restorer(chain, rest))
            np.testing.assert_allclose(
                marginal(full, ["xhat"]).tensor,
                marginal(joint, ["x"]).tensor,
                atol=1e-9,
            )

    def test_rows_copy_posterior_exactly(self):
        joint = assemble_joint(naive_tree_chain())
        rest = perfect_perception_restorer(joint)
        post = condition(joint, "y", 1.5)
        np.testing.assert_allclose(
            rest.table.row(1.5).probs,
            marginal(post, ["x"]).tensor,
            atol=1e-12,
        )

    def test_conditional_matches_class_law(self):
        """Per class, the restored conditional law equals the source law."""
        chain = random_chain(stream_rng(43, 0), 2, 4, 4, None)
        joint = assemble_joint(chain)
        tables = class_conditional_restorer_tables(joint)
        full = assemble_joint_with_class_restorer(chain, tables)
        for theta in chain.prior.support:
            got = marginal(condition(full, "theta", theta), ["xhat"]).tensor
            want = marginal(condition(joint, "theta", theta), ["x"]).tensor
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_conditional_requires_oracle(self):
        joint = assemble_joint(naive_tree_chain())
        with pytest.raises(MissingOracle):
            perfect_perception_restorer(joint, conditional=True)

    def test_invertible_channel_collapses_to_inverse(self):
        chain = numeric_chain(0, ambiguous=False)
        joint = assemble_joint(chain)
        for rest in (perfect_perception_restorer(joint),
                     perfect_perception_restorer(joint, conditional=True, theta_oracle="a")):
            assert rest.table.row("u").prob_of(0) == 1.0

    def test_conditional_preserves_fisher_information_on_gridded_chains(self):
        """Class-matched restoration on an invertible-channel chain leaves
        the family's finite-difference information unchanged (it reproduces
        the class-conditional law itself)."""
        from chainlab.information import TableFamily, fisher_information

        rng = stream_rng(47, 0)
        chain = random_chain(rng, 3, 4, 5, None, invertible_channel=True)
        joint = assemble_joint(chain)
        tables = class_conditional_restorer_tables(joint)
        full = assemble_joint_with_class_restorer(chain, tables)
        grid = np.array([0.0, 1.0, 2.0])
        src_rows = np.stack([
            marginal(condition(joint, "theta", t), ["x"]).tensor
            for t in chain.prior.support
        ])
        rec_rows = np.stack([
            marginal(condition(full, "theta", t), ["xhat"]).tensor
            for t in chain.prior.support
        ])
        j_src = fisher_information(TableFamily.from_rows(grid, src_rows), 1.0).J
        j_rec = fisher_information(TableFamily.from_rows(grid, rec_rows), 1.0).J
        assert abs(j_src - j_rec) <= 1e-9 * max(j_src, 1.0)

    def test_conditional_preserves_information_on_invertible_chains(self):
        """With an invertible degradation, the class-matched restorer keeps
        the full class information at the restored stage."""
        for i in range(10):
            chain = random_chain(stream_rng(44, i), 2, 4, 5, None, invertible_channel=True)
            joint = assemble_joint(chain)
            tables = class_conditional_restorer_tables(joint)
            full = assemble_joint_with_class_restorer(chain, tables)
            from chainlab.probability import mutual_information

            i_x = mutual_information(full, "theta", "x")
            i_xhat = mutual_information(full, "theta", "xhat")
            assert abs(i_x - i_xhat) <= 1e-9


class TestEstimateParameter:
    def test_laplace_rate_formula(self):
        est = ParamEstimator(kind="ml_laplace_rate")
        samples = np.array([[1.5, -1.0], [0.5, 1.0]])  # l1 masses 2.5 + 1.5 = 4
        assert estimate_parameter(est, samples) == pytest.approx(2 / 4)

    def test_constant_samples_recover_constant(self):
        est = ParamEstimator(kind="ml_gaussian_mean")
        assert estimate_parameter(est, np.full(7, 3.25)) == 3.25

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            estimate_parameter(ParamEstimator(kind="sample_mean"), np.array([]))

    def test_zero_l1(self):
        with pytest.raises(ZeroL1Norm):
            estimate_parameter(ParamEstimator(kind="ml_laplace_rate"), np.zeros(3))

    def test_laplace_ml_consistency_monte_carlo(self):
        rng = stream_rng(45, 0)
        draws = rng.exponential(1.0 / 2.0, size=100_000)
        est = estimate_parameter(ParamEstimator(kind="ml_laplace_rate"), draws)
        assert est == pytest.approx(2.0, abs=0.02)


class TestEstimatorVarianceMc:
    def test_noiseless_chain_identical_estimates(self):
        sampler = awgn_mean_sampler(1.0, 0.0, average_restorer=False)
        est_x = ParamEstimator(kind="sample_mean", stage="x")
        est_y = ParamEstimator(kind="sample_mean", stage="y")
        rep_x = estimator_variance_mc(sampler, est_x, 0.5, 10, 200, seed=4)
        rep_y = estimator_variance_mc(sampler, est_y, 0.5, 10, 200, seed=4)
        np.testing.assert_array_equal(rep_x.estimates, rep_y.estimates)

    def test_averaging_construction_attains_bound(self):
        """Noise variance (m-1) sigma_x^2 makes the measurement-side sample
        mean hit variance sigma_x^2, and the restored-stage estimator is the
        same statistic."""
        m, sigma_x = 10, 1.0
        sampler = awgn_mean_sampler(sigma_x, math.sqrt(m - 1) * sigma_x)
        rep_y = estimator_variance_mc(
            sampler, ParamEstimator(kind="sample_mean", stage="y"), 0.0, m, 10_000,
            seed=6, crb=sigma_x**2)
        rep_xhat = estimator_variance_mc(
            sampler, ParamEstimator(kind="sample_mean", stage="xhat"), 0.0, m, 10_000,
            seed=6, crb=sigma_x**2)
        assert abs(rep_y.mse - sigma_x**2) <= 4 * rep_y.mse_stderr
        np.testing.assert_array_equal(rep_y.estimates, rep_xhat.estimates)
        assert not rep_y.flagged

    def test_laplace_rate_mse_respects_bound(self):
        from chainlab.information import LaplaceRateFamily

        m, rate = 50, 2.0
        crb = fisher_information(LaplaceRateFamily(), rate, m).crb
        rep = estimator_variance_mc(
            laplace_rate_sampler(), ParamEstimator(kind="ml_laplace_rate", stage="x"),
            rate, m, 10_000, seed=7, crb=crb)
        assert rep.mse >= crb - 4 * rep.mse_stderr
        assert not rep.flagged


class TestPluginBayes:
    def test_posterior_mean_tracks_evidence(self):
        """Grid-posterior estimator: heavy evidence concentrates on the true
        node; no evidence returns the prior mean."""
        from chainlab.information import TableFamily

        fam = TableFamily.from_rows(
            [0.0, 1.0], [[0.9, 0.1], [0.1, 0.9]], support=("lo", "hi")
        )
        est = ParamEstimator(kind="plugin_bayes", stage="x",
                             posterior_ref=(fam, (0.5, 0.5)))
        assert estimate_parameter(est, ["hi"] * 12) > 0.99

    def test_single_ambivalent_sample_returns_prior_mean(self):
        from chainlab.information import TableFamily

        fam = TableFamily.from_rows(
            [0.0, 2.0], [[0.5, 0.5], [0.5, 0.5]], support=("a", "b")
        )
        est = ParamEstimator(kind="plugin_bayes", stage="x",
                             posterior_ref=(fam, (0.5, 0.5)))
        assert estimate_parameter(est, ["a"]) == pytest.approx(1.0)


class TestThetaJitterMode:
    def test_per_sample_parameters_widen_error(self):
        """Observations drawn around the target instead of at it inflate the
        squared error by the jitter variance over m."""
        sampler = awgn_mean_sampler(1.0, 0.0)
        est = ParamEstimator(kind="sample_mean", stage="x")
        shared = estimator_variance_mc(sampler, est, 0.0, 10, 3000, seed=11)
        jitter = estimator_variance_mc(
            sampler, est, 0.0, 10, 3000, seed=11,
            theta_jitter=lambda rng, m: 0.8 * rng.standard_normal(m))
        assert jitter.mse > shared.mse
        assert jitter.mse == pytest.approx((1.0 + 0.64) / 10, rel=0.15)

    def test_unbiased_estimator_not_flagged(self):
        sampler = awgn_mean_sampler(1.0, 0.0)
        rep = estimator_variance_mc(
            sampler, ParamEstimator(kind="sample_mean", stage="x"), 1.5, 8, 2000, seed=12)
        assert not rep.bias_flagged

    def test_shifted_estimates_flag_bias(self):
        def shifted_sampler(rng, theta, m):
            x = theta + 0.5 + 0.1 * rng.standard_normal(m)
            return {"x": x, "y": x, "xhat": x}

        rep = estimator_variance_mc(
            shifted_sampler, ParamEstimator(kind="sample_mean", stage="x"),
            0.0, 8, 2000, seed=13)
        assert rep.bias_flagged


class TestMatchedLawInformationAudit:
    def test_unconditional_restorer_cannot_gain_information(self):
        """The matched-law restorer redraws the source from its posterior;
        downstream class information can only shrink or stay."""
        for i in range(10):
            chain = random_chain(stream_rng(46, i), 2, 3, 3, None)
            joint = assemble_joint(chain)
            rest = perfect_perception_restorer(joint)
            audit = dpi_audit(with_restorer(chain, rest))
            assert audit.monotone
