"""Score, Fisher information, bound comparisons, chain audits, and the
auxiliary information-theoretic bounds.

Monte Carlo checks use fixed seeds and wide tolerances anchored by known
asymptotics (the sample-median inefficiency, the zero-mean score). Exact
statements (bound orderings, sufficiency equalities, variance reduction)
are asserted at numerical precision.
"""

import math

import numpy as np
import pytest

from chainlab.errors import (
    ContractViolation,
    DpiViolation,
    NotSufficient,
    SuperEfficient,
    ZeroDensity,
)
from chainlab.information import (
    GaussianMeanFamily,
    InfoReport,
    LaplaceRateFamily,
    TableFamily,
    crb_compare,
    dpi_audit,
    efficiency,
    entropy_error_bound_gaussian,
    entropy_error_bound_grid,
    fisher_information,
    quantized_gaussian_mean_family,
    quantized_laplace_rate_family,
    rao_blackwellize,
    score,
    sufficiency_check,
)
from chainlab.instances import (
    first_toss_estimator,
    head_count_statistic,
    naive_tree_chain,
    random_chain,
    random_table_family,
    sufficient_statistic_instance,
    two_toss_coin_family,
)
from chainlab.probability import ConditionalTable, PipelineChain, normalize
from chainlab.rng import stream_rng


class TestScore:
    def test_gaussian_location_score(self):
        fam = GaussianMeanFamily(1.0)
        assert score(fam, 2.0, 1.0) == pytest.approx(1.0)

    def test_laplace_rate_score(self):
        fam = LaplaceRateFamily()
        x = np.array([0.5, -1.0, 0.25])  # l1 mass 1.75
        assert score(fam, x, 2.0) == pytest.approx(1.0 / 2.0 - 1.75)

    def test_table_score_zero_density(self):
        fam = TableFamily.from_rows([0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroDensity):
            score(fam, 1, 0.5)

    def test_score_zero_mean_gaussian_quadrature(self):
        """E[score] = 0, checked by fine-grid quadrature."""
        fam = GaussianMeanFamily(1.3)
        theta = 0.4
        xs = np.linspace(theta - 10, theta + 10, 20001)
        pdf = np.exp(-((xs - theta) ** 2) / (2 * 1.3**2)) / (1.3 * math.sqrt(2 * math.pi))
        s = (xs - theta) / 1.3**2
        assert abs(np.trapezoid(pdf * s, xs)) < 1e-8

    def test_score_zero_mean_table_enumeration(self):
        """E[score] = 0 by enumeration on a smooth-in-theta table family."""
        fam = quantized_gaussian_mean_family(
            1.0, np.linspace(-7, 7, 801), theta_domain=(-1, 1)
        )
        for theta in (-0.3, 0.0, 0.45):
            p = fam.pmf(theta)
            mean_score = sum(
                p[k] * score(fam, x, theta)
                for k, x in enumerate(fam.support)
                if p[k] > 0
            )
            assert abs(mean_score) < 1e-8

    def test_score_near_zero_mean_interpolated_rows(self):
        """Interpolated families are piecewise linear in theta; between the
        nodes the enumerated score mean vanishes up to the quadratic
        finite-difference error."""
        for i in range(10):
            fam = random_table_family(stream_rng(31, i))
            theta = 0.5  # interior of a segment, away from kinks
            p = fam.pmf(theta)
            mean_score = sum(
                p[k] * score(fam, x, theta)
                for k, x in enumerate(fam.support)
                if p[k] > 0
            )
            assert abs(mean_score) < 1e-6


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
        assert rep.degenerate
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


class TestCrbCompare:
    def test_relabeling_preserves_bound(self):
        fam = random_table_family(stream_rng(32, 0), n_theta=3, n_x=4)
        rep = fisher_information(fam, 1.0)
        # an invertible relabeling leaves the pmf values, hence J, unchanged
        perm = [2, 0, 3, 1]
        relabeled = TableFamily(
            support=tuple(range(4)),
            pmf_fn=lambda th: fam.pmf(th)[perm],
            theta_domain=fam.theta_domain,
        )
        rep2 = fisher_information(relabeled, 1.0)
        assert crb_compare(rep, rep2).verdict == "equal"

    def test_constant_map_is_infinitely_worse(self):
        fam = random_table_family(stream_rng(32, 1))
        rep_y = fisher_information(fam, 1.0)
        rep_const = InfoReport(theta=1.0, J=0.0, m=1, method="finite-difference")
        cmp = crb_compare(rep_y, rep_const)
        assert cmp.verdict == "y_tighter"
        assert math.isinf(cmp.delta_xhat)

    def test_merging_symbols_loosens_bound(self):
        """Collapsing two outcomes can only lose sensitivity."""
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5], [0.1, 0.2, 0.7]])
        fam = TableFamily.from_rows([0.0, 1.0, 2.0], rows)
        merged = TableFamily(
            support=(0, 1),
            pmf_fn=lambda th: np.array([fam.pmf(th)[0] + fam.pmf(th)[1], fam.pmf(th)[2]]),
            theta_domain=fam.theta_domain,
        )
        rep_y = fisher_information(fam, 1.0)
        rep_m = fisher_information(merged, 1.0)
        cmp = crb_compare(rep_y, rep_m, tol=1e-12)
        assert cmp.verdict == "y_tighter"
        assert rep_m.J < rep_y.J

    def test_violation_raises(self):
        a = InfoReport(theta=0.0, J=1.0, m=1, method="analytic")
        b = InfoReport(theta=0.0, J=2.0, m=1, method="analytic")
        with pytest.raises(DpiViolation):
            crb_compare(a, b)

    def test_mismatched_reports_rejected(self):
        a = InfoReport(theta=0.0, J=1.0, m=1, method="analytic")
        b = InfoReport(theta=1.0, J=1.0, m=1, method="analytic")
        with pytest.raises(ContractViolation):
            crb_compare(a, b)


class TestEfficiency:
    def test_sample_mean_is_efficient(self):
        m, sigma = 20, 1.5
        rep = fisher_information(GaussianMeanFamily(sigma), 0.0, m)
        assert efficiency(sigma**2 / m, rep) == pytest.approx(1.0)

    def test_half_the_samples_half_the_efficiency(self):
        m, sigma = 20, 1.0
        rep = fisher_information(GaussianMeanFamily(sigma), 0.0, m)
        assert efficiency(sigma**2 / (m // 2), rep) == pytest.approx(0.5)

    def test_super_efficiency_rejected(self):
        rep = fisher_information(GaussianMeanFamily(1.0), 0.0, 10)
        with pytest.raises(SuperEfficient):
            efficiency(0.05, rep)

    def test_sample_median_inefficiency_monte_carlo(self):
        """Median of 11 normals: Monte Carlo variance against the bound.

        The asymptotic efficiency is 2/pi ~ 0.64; at m = 11 the exact value
        sits slightly above it. 1e5 replicates pin it within a few percent.
        """
        m, replicates = 11, 100_000
        rng = stream_rng(33, 0)
        draws = rng.standard_normal((replicates, m))
        medians = np.median(draws, axis=1)
        var = float(medians.var(ddof=1))
        rep = fisher_information(GaussianMeanFamily(1.0), 0.0, m)
        v = efficiency(var, rep, tol=0.05)
        assert 0.60 <= v <= 0.75
        assert v == pytest.approx(2 / math.pi, abs=0.08)


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
        assert audit.first_equal and audit.second_equal and audit.monotone

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
        assert audit.second_equal

    def test_monotone_on_many_random_chains(self):
        for i in range(200):
            chain = random_chain(stream_rng(34, i), 3, 4, 4, 4)
            assert dpi_audit(chain).monotone


class TestSufficiency:
    def test_identity_statistic(self):
        fam = random_table_family(stream_rng(35, 0))
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
        from scipy.special import ndtr

        from chainlab.information import binned_pmf

        sigma = 1.0
        grid = np.linspace(-8, 8, 4001)
        masses = binned_pmf(lambda e: ndtr(e / sigma), grid)
        bound = entropy_error_bound_grid(masses, grid[1] - grid[0])
        assert abs(bound - sigma**2) <= 0.01 * sigma**2
