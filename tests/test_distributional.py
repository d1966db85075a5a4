import math

import pytest
from hypothesis import assume, given, strategies as st

from distnull.distributional import (
    DistributionalNull,
    ExperimentDesign,
    ExperimentSummary,
    asymptotic_z_bound,
    degrees_of_freedom,
    dist_p_value,
    dist_t_crit,
    dist_test,
    dist_test_from_t,
    dist_z_crit,
    posterior_update,
    replication_probability,
    t_statistic,
)
from distnull.errors import DegenerateSampleError, DomainError
from distnull.point import point_p_value, point_z_crit
from distnull.special import t_quantile

# frozen references (scipy.stats.t)
T_PPF_95_NU9 = 1.8331129326536335
T_CRIT_Q05_N20 = 2.4453630731978384  # t.ppf(0.95, 19) * sqrt(1 + 0.05 * 20)
P_R_AT_0 = 0.0301979349229716  # t.cdf((0 - T_CRIT_Q05_N20) / sqrt(1.5), 19)
P_R_AT_4 = 0.36007177496377263  # t.cdf((2 - T_CRIT_Q05_N20) / sqrt(1.5), 19)


class TestTStatistic:
    def test_one_sample(self):
        summary = ExperimentSummary(ExperimentDesign.ONE_SAMPLE, 25, 1.0, 5.0)
        t, nu = t_statistic(summary)
        assert t == pytest.approx(1.0, rel=1e-15)
        assert nu == 24.0

    def test_paired(self):
        summary = ExperimentSummary(ExperimentDesign.PAIRED, 10, 0.9, 1.2)
        t, nu = t_statistic(summary)
        assert t == pytest.approx(0.75 * math.sqrt(10), rel=1e-14)
        assert nu == 9.0

    def test_two_sample_equal_n(self):
        summary = ExperimentSummary(ExperimentDesign.TWO_SAMPLE_EQUAL_N, 8, 1.0, 2.0)
        t, nu = t_statistic(summary)
        assert t == pytest.approx(1.0, rel=1e-15)
        assert nu == 14.0

    def test_two_sample_pools_the_group_sds(self):
        summary = ExperimentSummary.two_sample(8, 3.0, 3.0, 2.0, 4.0)
        assert summary == ExperimentSummary(
            ExperimentDesign.TWO_SAMPLE_EQUAL_N, 8, 1.0, 5.0 / math.sqrt(2.0)
        )
        # hypot, not the sum of squares, which would overflow at these sds
        huge = ExperimentSummary.two_sample(20, 1.5e308, 1e308, 0.5e308, 1e308)
        assert huge.mean == pytest.approx(1e308, rel=1e-15)
        assert huge.sd == pytest.approx(1e308, rel=1e-15)
        for sd, sd2 in ((-1.0, 1.7e308), (1.0, 0.0), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="^sd and sd2 must be positive"):
                ExperimentSummary.two_sample(20, 2.0, sd, 0.0, sd2)

    def test_standard_error_below_the_float_range(self):
        # sd / sqrt(N) underflows to 0, but mean / sd does not
        for design in ExperimentDesign:
            summary = ExperimentSummary(design, 20, 1e-300, 5e-324)
            t, _ = t_statistic(summary)
            root_n = math.sqrt(10 if design is ExperimentDesign.TWO_SAMPLE_EQUAL_N else 20)
            assert t == pytest.approx(1e-300 / 5e-324 * root_n, rel=1e-15)
        with pytest.raises(DomainError, match="t overflows"):
            t_statistic(ExperimentSummary(ExperimentDesign.PAIRED, 20, 1e300, 5e-324))

    def test_degrees_of_freedom(self):
        assert degrees_of_freedom(ExperimentDesign.ONE_SAMPLE, 12) == 11.0
        assert degrees_of_freedom(ExperimentDesign.PAIRED, 12) == 11.0
        assert degrees_of_freedom(ExperimentDesign.TWO_SAMPLE_EQUAL_N, 12) == 22.0

    def test_design_must_be_a_member(self):
        # A design's value string used to give one-sample nu (19, not 38).
        with pytest.raises(DomainError, match="ExperimentDesign"):
            degrees_of_freedom("two_sample_equal_n", 20)
        with pytest.raises(DomainError, match="ExperimentDesign"):
            t_statistic(ExperimentSummary("two_sample_equal_n", 20, 1.0, 2.0))

    def test_validation(self):
        with pytest.raises(DegenerateSampleError):
            ExperimentSummary(ExperimentDesign.ONE_SAMPLE, 10, 1.0, 0.0)
        with pytest.raises(DegenerateSampleError):
            ExperimentSummary(ExperimentDesign.ONE_SAMPLE, 10, 1.0, -2.0)
        with pytest.raises(DomainError):
            ExperimentSummary(ExperimentDesign.ONE_SAMPLE, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            ExperimentSummary(ExperimentDesign.ONE_SAMPLE, 10, math.inf, 1.0)


def test_alpha_is_checked_before_n():
    with pytest.raises(DomainError, match="alpha"):
        dist_test_from_t(2.0, 19.0, 1, DistributionalNull(0.1), alpha=0.7)


def test_overflowing_q_times_n():
    null, n = DistributionalNull(1e20), 2**1022
    for call in (
        lambda: dist_p_value(0.5, 19.0, n, null),
        lambda: dist_t_crit(0.05, 19.0, n, null),
        lambda: posterior_update(1.0, n, null),
        lambda: replication_probability(0.5, 0.05, 19.0, n, null),
        lambda: dist_test_from_t(0.5, 19.0, n, null),
    ):
        with pytest.raises(DomainError, match=r"q \* n must be finite"):
            call()


def test_null_validation():
    assert DistributionalNull(0.0).q == 0.0
    with pytest.raises(DomainError):
        DistributionalNull(-0.01)
    with pytest.raises(DomainError):
        DistributionalNull(math.inf)


class TestSignificance:
    def test_p_value_at_zero(self):
        assert dist_p_value(0.0, 19, 20, DistributionalNull(0.3)) == 0.5

    def test_p_value_hits_alpha_at_the_critical_value(self):
        null = DistributionalNull(0.05)
        t1 = t_quantile(0.95, 19) * math.sqrt(2.0)
        assert dist_p_value(t1, 19, 20, null) == pytest.approx(0.05, abs=1e-12)

    def test_deep_tail_p_values(self):
        # scipy.special.stdtr(nu, -|t1| / sqrt(1 + qN)), frozen
        assert dist_p_value(200.0, 19, 20, DistributionalNull(0.5)) == pytest.approx(
            1.8078557252532705e-23, rel=1e-12, abs=0.0
        )
        assert dist_p_value(-300.0, 9, 10, DistributionalNull(0.05)) == pytest.approx(
            8.014819197062447e-19, rel=1e-12, abs=0.0
        )

    def test_p_value_sign_symmetric(self):
        null = DistributionalNull(0.1)
        assert dist_p_value(2.2, 19, 20, null) == dist_p_value(-2.2, 19, 20, null)

    def test_t_crit_frozen_values(self):
        assert dist_t_crit(0.05, 9, 10, DistributionalNull(0.0)) == pytest.approx(
            T_PPF_95_NU9, abs=1e-11
        )
        assert dist_t_crit(0.05, 19, 20, DistributionalNull(0.05)) == pytest.approx(
            T_CRIT_Q05_N20, abs=1e-11
        )

    @given(
        t1=st.floats(0.0, 12.0),
        q1=st.floats(0.0, 2.0),
        q2=st.floats(0.0, 2.0),
        n=st.integers(2, 400),
    )
    def test_p_value_nondecreasing_in_q(self, t1, q1, q2, n):
        lo, hi = sorted([q1, q2])
        p_lo = dist_p_value(t1, 19, n, DistributionalNull(lo))
        p_hi = dist_p_value(t1, 19, n, DistributionalNull(hi))
        assert p_lo <= p_hi + 1e-14

    def test_z_crit_definition(self):
        null = DistributionalNull(0.07)
        assert dist_z_crit(0.05, 19, 20, null) == pytest.approx(
            dist_t_crit(0.05, 19, 20, null) / math.sqrt(20), rel=1e-15
        )

    def test_z_crit_approaches_the_bound_from_above(self):
        null = DistributionalNull(0.05)
        bound = asymptotic_z_bound(0.05, 19, null)
        gaps = []
        for n in (10, 1000, 10**6):
            z_c = dist_z_crit(0.05, 19, n, null)
            assert z_c > bound
            gaps.append(z_c - bound)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] / bound < 2e-5

    def test_bound_values(self):
        assert asymptotic_z_bound(0.05, 19, DistributionalNull(0.0)) == 0.0
        assert asymptotic_z_bound(0.05, 9, DistributionalNull(0.04)) == pytest.approx(
            T_PPF_95_NU9 * 0.2, abs=1e-11
        )

    def test_sub_bound_effects_never_significant(self):
        # below the asymptotic floor no sample size reaches significance
        null = DistributionalNull(0.09)
        z = 0.99 * asymptotic_z_bound(0.05, 19, null)
        for n in (2, 10, 1000, 10**6):
            report = dist_test_from_t(z * math.sqrt(n), 19, n, null)
            assert not report.significant
        # just above the floor, a large enough n does
        z = 1.01 * asymptotic_z_bound(0.05, 19, null)
        assert dist_test_from_t(z * 1000.0, 19, 10**6, null).significant

    def test_report_consistency(self):
        null = DistributionalNull(0.12)
        report = dist_test_from_t(3.1, 19, 20, null, alpha=0.02)
        assert report.q == 0.12
        assert report.significant == (abs(report.t_stat) >= report.t_crit)
        assert report.asymptotic_bound_z == asymptotic_z_bound(0.02, 19, null)

    def test_paired_reduces_to_one_sample(self):
        null = DistributionalNull(0.2)
        paired = dist_test(
            ExperimentSummary(ExperimentDesign.PAIRED, 14, 0.4, 1.1), null
        )
        one = dist_test(
            ExperimentSummary(ExperimentDesign.ONE_SAMPLE, 14, 0.4, 1.1), null
        )
        assert paired == one


class TestPosterior:
    def test_point_null_absorbs_everything(self):
        post = posterior_update(3.7, 50, DistributionalNull(0.0))
        assert post.mu_n == 0.0
        assert post.shrinkage == 0.0
        assert post.var_n_over_sigma2 == 0.0

    def test_worked_example(self):
        # qN = 2: shrinkage 2/3, mu_N = 2/3 x_bar, var_N = sigma^2 / 15
        post = posterior_update(2.0, 10, DistributionalNull(0.2))
        assert post.shrinkage == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert post.mu_n == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert post.var_n_over_sigma2 == pytest.approx(1.0 / 15.0, rel=1e-15)

    def test_shrinkage_saturates(self):
        post = posterior_update(1.0, 10, DistributionalNull(1e9))
        assert post.shrinkage == pytest.approx(1.0, abs=1e-9)

    @given(q=st.floats(0.0, 100.0), n=st.integers(2, 1000))
    def test_shrinkage_in_unit_interval(self, q, n):
        post = posterior_update(1.0, n, DistributionalNull(q))
        assert 0.0 <= post.shrinkage < 1.0

    @pytest.mark.parametrize("x_bar_1", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("q", [0.0, 0.1])
    def test_non_finite_mean_rejected(self, x_bar_1, q):
        with pytest.raises(DomainError, match=rf"^x_bar_1 must be finite, got {x_bar_1}$"):
            posterior_update(x_bar_1, 20, DistributionalNull(q))
        # after the checks of n and of q * n
        with pytest.raises(DomainError, match="^sample size"):
            posterior_update(x_bar_1, 1, DistributionalNull(q))
        with pytest.raises(DomainError, match=r"q \* n must be finite"):
            posterior_update(x_bar_1, 2**1022, DistributionalNull(q + 1e20))


class TestReplicationProbability:
    def test_point_null_gives_alpha(self):
        # with q = 0 a matching-sign significant repeat is a false positive
        for t1 in (0.0, 2.5, -7.0, 100.0):
            p_r = replication_probability(t1, 0.05, 19, 20, DistributionalNull(0.0))
            assert p_r == pytest.approx(0.05, abs=1e-13)

    def test_frozen_values(self):
        null = DistributionalNull(0.05)
        assert replication_probability(0.0, 0.05, 19, 20, null) == pytest.approx(
            P_R_AT_0, abs=1e-11
        )
        assert replication_probability(4.0, 0.05, 19, 20, null) == pytest.approx(
            P_R_AT_4, abs=1e-11
        )

    def test_finite_q_times_n_whose_double_overflows(self):
        # qN = 1e308: the repeat's spread is sqrt(2), not infinite, so t_crit
        # puts p_r deep in the tail instead of at 1/2.
        p_r = replication_probability(3.0, 0.05, 19.0, 10, DistributionalNull(1e307))
        assert p_r < 1e-300

    def test_sign_symmetric(self):
        null = DistributionalNull(0.08)
        assert replication_probability(
            3.0, 0.05, 19, 20, null
        ) == replication_probability(-3.0, 0.05, 19, 20, null)

    @given(
        t_lo=st.floats(0.0, 20.0),
        t_hi=st.floats(0.0, 20.0),
        q=st.floats(0.001, 5.0),
        n=st.integers(2, 200),
    )
    def test_monotone_in_magnitude(self, t_lo, t_hi, q, n):
        lo, hi = sorted([t_lo, t_hi])
        null = DistributionalNull(q)
        assert replication_probability(
            lo, 0.05, 19, n, null
        ) <= replication_probability(hi, 0.05, 19, n, null) + 1e-14


@given(
    t1=st.floats(-8.0, 8.0),
    alpha=st.floats(0.005, 0.45),
    n=st.integers(2, 300),
    nu=st.sampled_from([2.0, 9.0, 19.0, 120.0]),
)
def test_p_value_and_t_crit_agree(t1, alpha, n, nu):
    null = DistributionalNull(0.1)
    report = dist_test_from_t(t1, nu, n, null, alpha=alpha)
    assume(abs(report.p_value - alpha) > 1e-9)
    assert report.significant == (report.p_value <= alpha)


@given(
    z=st.floats(-6.0, 6.0),
    alpha=st.floats(0.005, 0.45),
    n=st.integers(2, 500),
    nu=st.sampled_from([1.0, 5.0, 19.0, 250.0]),
)
def test_q_zero_reduces_to_point_form(z, alpha, n, nu):
    null = DistributionalNull(0.0)
    t1 = z * math.sqrt(n)
    assert dist_p_value(t1, nu, n, null) == pytest.approx(
        point_p_value(z, n, nu), abs=1e-13
    )
    assert dist_z_crit(alpha, nu, n, null) == pytest.approx(
        point_z_crit(alpha, n, nu), rel=1e-13
    )
