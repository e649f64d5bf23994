"""The zero-mean score, Fisher information, chain audits, sufficiency,
Rao-Blackwell, and the exponentiated-entropy error bound.

Exact statements (information additivity, sufficiency equalities, variance
reduction) are asserted at numerical precision.
"""

import math

import numpy as np
import pytest

from chainlab.errors import ContractViolation, NotSufficient
from chainlab.information import (
    GaussianMeanFamily,
    InfoReport,
    LaplaceRateFamily,
    MI_EQUALITY_TOL,
    TableFamily,
    binned_pmf,
    dpi_audit,
    entropy_error_bound_gaussian,
    entropy_error_bound_grid,
    fisher_information,
    normal_cdf,
    quantized_gaussian_mean_family,
    quantized_laplace_rate_family,
    rao_blackwellize,
    sufficiency_check,
)
from chainlab.instances import (
    first_toss_estimator,
    head_count_statistic,
    naive_tree_chain,
    random_chain,
    sufficient_statistic_instance,
    two_toss_coin_family,
)
from chainlab.probability import ConditionalTable, PipelineChain, normalize
from chainlab.rng import stream_rng


class TestScore:
    def test_quantized_gaussian_score_has_zero_mean(self):
        """The finite-difference score whose second moment fisher_information
        reports has mean zero under the quantized Gaussian family, and its
        second moment approaches the continuous 1/sigma^2."""
        sigma, theta, h = 1.3, 0.4, 1e-4
        fam = quantized_gaussian_mean_family(sigma, np.linspace(theta - 10, theta + 10, 4001),
                                             (theta - 1, theta + 1))
        p0 = fam.pmf(theta)
        score = (np.log(fam.pmf(theta + h)) - np.log(fam.pmf(theta - h))) / (2 * h)
        assert abs(np.sum(p0 * score)) < 1e-8
        j = fisher_information(fam, theta, step=h).J
        assert j == pytest.approx(float(np.sum(p0 * score**2)), rel=1e-12)
        assert j == pytest.approx(GaussianMeanFamily(sigma).fisher(theta), rel=1e-4)


class TestFamilies:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_gaussian_scale_must_be_positive(self, sigma):
        with pytest.raises(ContractViolation):
            GaussianMeanFamily(sigma)

    def test_laplace_rate_must_be_positive(self):
        with pytest.raises(ContractViolation):
            LaplaceRateFamily().fisher(0.0)

    def test_table_family_needs_a_nonempty_domain(self):
        with pytest.raises(ContractViolation):
            TableFamily(support=(0, 1), pmf_fn=lambda t: np.array([0.5, 0.5]),
                        theta_domain=(1.0, 1.0))

    def test_pmf_outside_domain_rejected(self):
        fam = TableFamily.from_rows([0.0, 1.0], [[0.5, 0.5], [0.2, 0.8]])
        with pytest.raises(ContractViolation, match="outside"):
            fam.pmf(1.5)

    def test_pmf_length_checked(self):
        fam = TableFamily(support=(0, 1, 2), pmf_fn=lambda t: np.array([0.5, 0.5]),
                          theta_domain=(0.0, 1.0))
        with pytest.raises(ContractViolation, match="wrong-length"):
            fam.pmf(0.5)

    @pytest.mark.parametrize("grid,rows", [
        ([0.0, 0.0], [[0.5, 0.5], [0.2, 0.8]]),
        ([0.0, 1.0, 2.0], [[0.5, 0.5], [0.2, 0.8]]),
        ([0.0, 1.0], [[0.5, 0.6], [0.2, 0.8]]),
    ], ids=["grid_not_increasing", "row_count", "row_not_a_distribution"])
    def test_from_rows_rejects_malformed_tables(self, grid, rows):
        with pytest.raises(ContractViolation):
            TableFamily.from_rows(grid, rows)

    def test_from_rows_interpolates_linearly_between_nodes(self):
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
        fam = TableFamily.from_rows([0.0, 1.0, 3.0], rows)
        for k, theta in enumerate((0.0, 1.0, 3.0)):
            np.testing.assert_allclose(fam.pmf(theta), rows[k], atol=1e-15)
        np.testing.assert_allclose(fam.pmf(0.5), 0.5 * (rows[0] + rows[1]), atol=1e-15)
        np.testing.assert_allclose(fam.pmf(1.5), 0.75 * rows[1] + 0.25 * rows[2], atol=1e-15)
        assert fam.theta_domain == (0.0, 3.0) and fam.theta_grid == (0.0, 1.0, 3.0)

    def test_binned_pmf_of_a_symmetric_law(self):
        """Bin masses of the standard logistic law sum to one, mirror around
        the centre of a symmetric grid, and match the CDF differences."""
        def cdf(e):
            return 1.0 / (1.0 + np.exp(-e))

        grid = np.linspace(-20, 20, 81)
        mass = binned_pmf(cdf, grid)
        assert mass.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(mass, mass[::-1], atol=1e-15)
        assert mass[40] == pytest.approx(cdf(0.25) - cdf(-0.25), rel=1e-8)


class TestInfoReport:
    def test_negative_information_rejected(self):
        with pytest.raises(ContractViolation):
            InfoReport(J=-1e-3, m=1)

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ContractViolation):
            InfoReport(J=1.0, m=0)

    def test_bound_is_inverse_total_information(self):
        rep = InfoReport(J=0.25, m=8)
        assert rep.J_m == 2.0 and rep.crb == 0.5

    def test_table_family_step_is_second_order(self):
        """On a family linear in theta, J = sum p'^2 / p exactly; the central
        log-difference score misses it by O(step^2), so a tenfold smaller
        overriding step cuts the error a hundredfold, and the default step
        1e-4 lands within 1e-8."""
        fam = TableFamily.from_rows([0.0, 1.0], [[0.7, 0.3], [0.2, 0.8]])
        p, dp = fam.pmf(0.4), np.array([-0.5, 0.5])
        exact = float(np.sum(dp**2 / p))
        err = {h: fisher_information(fam, 0.4, step=h).J - exact for h in (1e-2, 1e-3)}
        assert err[1e-2] / err[1e-3] == pytest.approx(100.0, rel=0.01)
        assert abs(fisher_information(fam, 0.4).J - exact) <= 1e-8


class TestFisherInformation:
    def test_gaussian_closed_form(self):
        rep = fisher_information(GaussianMeanFamily(0.5), theta=3.0, m=4)
        assert rep.J == pytest.approx(4.0)
        assert rep.J_m == pytest.approx(16.0)
        assert rep.crb == pytest.approx(1.0 / 16.0)

    def test_laplace_closed_form(self):
        rep = fisher_information(LaplaceRateFamily(), theta=2.0, m=50)
        assert rep.J_m == pytest.approx(50.0 / 4.0)

    def test_theta_independent_family_degenerate(self):
        fam = TableFamily.from_rows([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])
        rep = fisher_information(fam, 0.5)
        assert rep.J == 0.0
        assert math.isinf(rep.crb)

    def test_quantized_gaussian_matches_analytic_within_1pct(self):
        sigma = 1.0
        grid = np.linspace(-6 * sigma, 6 * sigma, 2001)
        fam = quantized_gaussian_mean_family(sigma, grid, theta_domain=(-1, 1))
        rep = fisher_information(fam, 0.0, step=1e-4 * sigma)
        assert abs(rep.J - 1.0 / sigma**2) <= 0.01 / sigma**2

    def test_quantized_laplace_matches_analytic_within_1pct(self):
        rate = 2.0
        grid = np.linspace(-10 / rate, 10 / rate, 2001)
        fam = quantized_laplace_rate_family(grid, theta_domain=(1.0, 3.0))
        rep = fisher_information(fam, rate, step=1e-4 * rate)
        assert abs(rep.J - 1.0 / rate**2) <= 0.01 / rate**2

    def test_information_additive_for_product_family(self):
        """J of two independent coordinates is the sum of the parts."""
        g1 = np.linspace(-6, 6, 401)
        f1 = quantized_gaussian_mean_family(1.0, g1, theta_domain=(-1, 1))
        f2 = quantized_laplace_rate_family(np.linspace(-8, 8, 401), theta_domain=(0.5, 2.0))

        def product_pmf(theta):
            return np.outer(f1.pmf(theta), f2.pmf(theta)).reshape(-1)

        prod = TableFamily(
            support=tuple(range(401 * 401)),
            pmf_fn=product_pmf,
            theta_domain=(0.5, 1.0),
        )
        j1 = fisher_information(f1, 0.9).J
        j2 = fisher_information(f2, 0.9).J
        jp = fisher_information(prod, 0.9).J
        assert abs(jp - (j1 + j2)) < 1e-8 * (j1 + j2) + 1e-8


class TestDpiAudit:
    def test_invertible_everything_preserves_information(self):
        prior = normalize([0.3, 0.7], support=(0, 1))
        family = ConditionalTable(prior.support, (0, 1, 2),
                                  np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        channel = ConditionalTable.deterministic((0, 1, 2), ("a", "b", "c"),
                                                 {0: "b", 1: "c", 2: "a"})
        restorer = ConditionalTable.deterministic(("a", "b", "c"), (0, 1, 2),
                                                  {"a": 2, "b": 0, "c": 1})
        audit = dpi_audit(PipelineChain(prior, family, channel, restorer))
        assert audit.first_equal and audit.monotone
        assert abs(audit.i_theta_y - audit.i_theta_xhat) <= MI_EQUALITY_TOL

    def test_naive_tree_strictly_loses_information(self):
        chain = naive_tree_chain()
        audit = dpi_audit(chain)
        assert audit.i_theta_x > audit.i_theta_y + 1e-3
        assert audit.monotone

    def test_identity_restorer_keeps_measurement_information(self):
        base = naive_tree_chain()
        identity = ConditionalTable.deterministic(
            base.channel.output_support, base.channel.output_support,
            {y: y for y in base.channel.output_support})
        audit = dpi_audit(PipelineChain(base.prior, base.family, base.channel, identity))
        assert abs(audit.i_theta_y - audit.i_theta_xhat) <= MI_EQUALITY_TOL

    def test_monotone_on_many_random_chains(self):
        for i in range(200):
            chain = random_chain(stream_rng(34, i), 3, 4, 4, 4)
            assert dpi_audit(chain).monotone


    def test_chain_without_restorer_audits_two_stages(self):
        audit = dpi_audit(random_chain(stream_rng(34, 500), 2, 4, 4, None))
        assert audit.i_theta_xhat is None
        assert audit.monotone == (audit.i_theta_x >= audit.i_theta_y - MI_EQUALITY_TOL)


class TestSufficiency:
    def test_identity_statistic(self):
        rows = stream_rng(35, 0).dirichlet(np.ones(5), size=3)
        fam = TableFamily.from_rows(np.arange(3.0), rows)
        assert sufficiency_check(fam, lambda x: x)

    def test_constant_statistic_on_informative_family(self):
        fam = TableFamily.from_rows([0.0, 1.0], [[0.9, 0.1], [0.2, 0.8]])
        assert not sufficiency_check(fam, lambda x: 0)

    def test_head_count_sufficient_for_two_tosses(self):
        assert sufficiency_check(two_toss_coin_family(), head_count_statistic)

    def test_constructed_instances_and_chain_equality_agree(self):
        """Splitting outcomes with class-independent weights is invertible
        in information terms: the audit equality flag and the sufficiency
        check must agree."""
        for i in range(50):
            family, statistic, chain = sufficient_statistic_instance(stream_rng(36, i))
            assert sufficiency_check(family, statistic)
            assert dpi_audit(chain).first_equal


    def test_family_without_grid_rejected(self):
        fam = TableFamily(support=(0, 1), pmf_fn=lambda t: np.array([t, 1 - t]),
                          theta_domain=(0.0, 1.0))
        with pytest.raises(ContractViolation, match="grid"):
            sufficiency_check(fam, lambda x: x)

    def test_mapping_statistic_matches_callable(self):
        fam = two_toss_coin_family()
        mapping = {x: head_count_statistic(x) for x in fam.support}
        assert sufficiency_check(fam, mapping)
        assert not sufficiency_check(fam, {"tt": 0, "th": 0, "ht": 1, "hh": 1})


class TestRaoBlackwell:
    def test_two_toss_conditioning(self):
        improved = rao_blackwellize(two_toss_coin_family(), first_toss_estimator,
                                    head_count_statistic)
        assert improved == {0: 0.0, 1: 0.5, 2: 1.0}

    def test_function_of_statistic_unchanged(self):
        fam = two_toss_coin_family()
        improved = rao_blackwellize(fam, lambda x: head_count_statistic(x) * 2.0,
                                    head_count_statistic)
        assert improved == {0: 0.0, 1: 2.0, 2: 4.0}

    def test_constant_estimator_unchanged_with_zero_variance(self):
        fam = two_toss_coin_family()
        improved = rao_blackwellize(fam, lambda x: 3.25, head_count_statistic)
        np.testing.assert_allclose(sorted(improved.values()), 3.25, rtol=1e-14)
        for theta in fam.theta_grid:
            p = fam.pmf(theta)
            g = np.array([improved[head_count_statistic(x)] for x in fam.support])
            assert p @ (g - p @ g) ** 2 < 1e-25

    def test_never_increases_variance_and_preserves_mean(self):
        fam = two_toss_coin_family()
        improved = rao_blackwellize(fam, first_toss_estimator, head_count_statistic)
        for theta in fam.theta_grid:
            p = fam.pmf(theta)
            f = np.array([first_toss_estimator(x) for x in fam.support])
            g = np.array([improved[head_count_statistic(x)] for x in fam.support])
            assert abs(p @ f - p @ g) < 1e-12
            var_f = p @ (f - p @ f) ** 2
            var_g = p @ (g - p @ g) ** 2
            assert var_g <= var_f + 1e-9

    def test_insufficient_statistic_rejected(self):
        fam = TableFamily.from_rows([0.0, 1.0], [[0.9, 0.05, 0.05], [0.2, 0.4, 0.4]])
        with pytest.raises(NotSufficient):
            rao_blackwellize(fam, lambda x: float(x), lambda x: 0)


    def test_mapping_estimator_matches_callable(self):
        fam = two_toss_coin_family()
        table = {x: first_toss_estimator(x) for x in fam.support}
        assert rao_blackwellize(fam, table, head_count_statistic) == \
            rao_blackwellize(fam, first_toss_estimator, head_count_statistic)


class TestEntropyErrorBound:
    def test_unit_gaussian(self):
        assert entropy_error_bound_gaussian(1.0) == pytest.approx(1.0)

    def test_variance_scaling(self):
        assert entropy_error_bound_gaussian(2.0) == pytest.approx(4.0)

    def test_gaussian_mmse_attains_bound(self):
        """Estimating with the mean achieves the bound exactly."""
        sigma = 1.7
        assert entropy_error_bound_gaussian(sigma) == pytest.approx(sigma**2, rel=1e-12)

    def test_uniform_grid_bound_below_true_error(self):
        k = 1000
        bound = entropy_error_bound_grid(np.full(k, 1.0 / k), 1.0 / k)
        assert bound == pytest.approx(1.0 / (2 * math.pi * math.e), rel=1e-9)
        assert bound <= 1.0 / 12.0

    def test_gridded_gaussian_matches_analytic_within_1pct(self):
        sigma = 1.0
        grid = np.linspace(-8, 8, 4001)
        masses = binned_pmf(lambda e: normal_cdf(e / sigma), grid)
        bound = entropy_error_bound_grid(masses, grid[1] - grid[0])
        assert abs(bound - sigma**2) <= 0.01 * sigma**2

    def test_normal_cdf_matches_scipy(self):
        """erfc keeps the relative precision of the lower tail that 1 - cdf
        would lose: within 1e-12 of scipy's ndtr down to x = -37."""
        from scipy.special import ndtr

        x = np.linspace(-37.0, 37.0, 20000).reshape(100, 200)
        got = normal_cdf(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, ndtr(x), rtol=1e-12, atol=0)
        assert normal_cdf(0.0) == 0.5 and normal_cdf(-37.0) > 0.0

    @pytest.mark.parametrize("sigma", [0.0, -2.0])
    def test_gaussian_scale_must_be_positive(self, sigma):
        with pytest.raises(ContractViolation):
            entropy_error_bound_gaussian(sigma)

    @pytest.mark.parametrize("probs,binwidth", [
        ([0.5, 0.5], 0.0),
        ([0.5, 0.6], 0.1),
        ([1.5, -0.5], 0.1),
    ], ids=["zero_binwidth", "masses_not_normalized", "negative_mass"])
    def test_grid_input_checked(self, probs, binwidth):
        with pytest.raises(ContractViolation):
            entropy_error_bound_grid(probs, binwidth)

    def test_point_mass_bound_is_the_bin_entropy_floor(self):
        """All mass in one bin: zero bin entropy leaves log(binwidth)."""
        bound = entropy_error_bound_grid([0.0, 1.0, 0.0], 0.5)
        assert bound == pytest.approx(0.25 / (2 * math.pi * math.e), rel=1e-14)
