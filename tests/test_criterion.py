import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distnull.criterion import (
    THUMB_RATIO,
    Criteria,
    NoSolution,
    QInterval,
    minimize_r,
    q_interval,
    r_crit,
    r_curve,
    rule_of_thumb,
    t_rep,
    _quantiles,
    _r_u,
)
from distnull.errors import DomainError
from distnull.special import t_quantile

# (3 sqrt(3) / 2) * t.ppf(0.95, 19), frozen
R_MIN_A05_NU19 = 4.492418823884141
# tail probabilities at the q-free bound, frozen from scipy
THUMB_P_NU10 = 0.00041513493944744795
THUMB_P_NU40 = 4.230708100882996e-05
# dense-grid + brentq oracle for alpha=0.05, beta=0.5, nu=19, n=20,
# |t1| = 1.05 * r_min
Q1_ORACLE = 0.05897224385563776
Q2_ORACLE = 0.17521862876955935
# 10^6-point log-grid oracle for alpha=0.05, beta=0.8, nu=19, n=20
GRID_MIN_U_B08 = 2.5481113728344633
GRID_MIN_R_B08 = 6.106705374435939
# minima that lie outside u in [1e-6, 1e6], with a, b from scipy's stdtrit:
# beta just above alpha has its kink at u = (a + b)(a - b) / (2 b^2); beta
# near 1 at nu = 0.5 has t_rep's stationary point, a root by brentq
U_MIN_B_NEAR_ALPHA, R_MIN_B_NEAR_ALPHA = 6.333882191608814e-07, 1.729133359127458
U_MIN_NU05_B_NEAR_1, R_MIN_NU05_B_NEAR_1 = 304137040405584.7, 1.4545704965343847e23

C_HALF = Criteria(alpha=0.05, beta=0.5)
C_LOW = Criteria(alpha=0.05, beta=0.3)
C_HIGH = Criteria(alpha=0.05, beta=0.8)


def test_criteria_validation():
    with pytest.raises(DomainError):
        Criteria(alpha=0.05, beta=0.05)
    with pytest.raises(DomainError):
        Criteria(alpha=0.05, beta=0.01)
    with pytest.raises(DomainError):
        Criteria(alpha=0.0, beta=0.5)
    with pytest.raises(DomainError):
        Criteria(alpha=0.5, beta=0.8)
    with pytest.raises(DomainError):
        Criteria(alpha=0.05, beta=1.0)


class TestTRep:
    def test_divergent_edge_rejected(self):
        with pytest.raises(DomainError):
            t_rep(C_HALF, 19, 20, 0.0)
        with pytest.raises(DomainError):
            t_rep(C_HALF, 19, 20, -0.1)

    def test_beta_half_collapses_to_scaled_t_crit(self):
        # the median term vanishes at beta = 0.5
        for q in (0.01, 0.1, 2.0, 50.0):
            u = q * 20
            expected = (1.0 + 1.0 / u) * r_crit(C_HALF, 19, 20, q).t_crit
            assert t_rep(C_HALF, 19, 20, q) == pytest.approx(expected, rel=1e-14)

    def test_frozen_value_at_qn_two(self):
        # qN = 2 with beta = 0.5: (3 sqrt(3) / 2) T_nu^{-1}(1 - alpha)
        assert t_rep(C_HALF, 19, 20, 0.1) == pytest.approx(R_MIN_A05_NU19, rel=1e-10)

    def test_increasing_in_beta(self):
        values = [
            t_rep(Criteria(alpha=0.05, beta=b), 19, 20, 0.1) for b in (0.2, 0.5, 0.8)
        ]
        assert values[0] < values[1] < values[2]

    @given(
        q=st.floats(1e-4, 1e3),
        n=st.integers(2, 500),
        beta=st.floats(0.1, 0.95),
    )
    def test_positive_whenever_beta_exceeds_alpha(self, q, n, beta):
        criteria = Criteria(alpha=0.05, beta=beta)
        assert t_rep(criteria, 19, n, q) > 0.0


class TestRCrit:
    def test_r_is_the_max(self):
        for criteria in (C_LOW, C_HALF, C_HIGH):
            for q in (0.001, 0.1, 10.0):
                res = r_crit(criteria, 19, 20, q)
                assert res.r_q == max(res.t_rep, res.t_crit)
                assert res.q == q

    def test_thresholds_cross_only_below_beta_half(self):
        # beta < 0.5: t_rep starts above t_crit and ends below it, with a
        # single crossing; beta >= 0.5 keeps t_rep on top everywhere.
        u_grid = np.logspace(-4, 4, 4001)
        q_grid = u_grid / 20.0

        diffs = [r_crit(C_LOW, 19, 20, q).t_rep - r_crit(C_LOW, 19, 20, q).t_crit
                 for q in q_grid]
        signs = [d > 0.0 for d in diffs]
        assert signs[0] and not signs[-1]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

        for criteria in (C_HALF, C_HIGH):
            for q in q_grid[::100]:
                res = r_crit(criteria, 19, 20, q)
                assert res.t_rep >= res.t_crit

    def test_t_crit_dominates_at_large_qn(self):
        res = r_crit(C_HALF, 19, 1000, 1e3)
        assert res.r_q >= res.t_crit
        assert res.r_q == pytest.approx(res.t_crit, rel=1e-5)

    def test_curve_matches_pointwise_evaluation(self):
        q = np.logspace(-5, 3, 50)
        curve = r_curve(C_HIGH, 19, 20, q)
        for qi, ri in zip(q, curve):
            assert ri == pytest.approx(r_crit(C_HIGH, 19, 20, float(qi)).r_q, rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [r_crit, t_rep, lambda c, nu, n, q: r_curve(c, nu, n, np.array([1.0, q]))],
        ids=["r_crit", "t_rep", "r_curve"],
    )
    def test_overflowing_qn_rejected(self, call):
        with pytest.raises(DomainError, match=r"q \* n must be finite"):
            call(C_HALF, 19.0, 2**1022, 1e20)

    def test_curve_rejects_bad_q(self):
        with pytest.raises(DomainError):
            r_curve(C_HALF, 19, 20, np.array([0.1, 0.0]))
        with pytest.raises(DomainError):
            r_curve(C_HALF, 19, 20, np.array([0.1, math.inf]))


class TestRuleOfThumb:
    def test_bound_is_a_fixed_multiple_of_the_quantile(self):
        assert THUMB_RATIO == 1.5 * math.sqrt(3.0)
        for alpha, nu in [(0.05, 10.0), (0.01, 40.0), (0.2, 3.0)]:
            thumb = rule_of_thumb(alpha, nu)
            assert thumb.t_bound == pytest.approx(
                THUMB_RATIO * t_quantile(1.0 - alpha, nu), rel=1e-15
            )

    def test_frozen_thresholds(self):
        assert rule_of_thumb(0.05, 10.0).p_threshold == pytest.approx(
            THUMB_P_NU10, abs=1e-13
        )
        assert rule_of_thumb(0.05, 40.0).p_threshold == pytest.approx(
            THUMB_P_NU40, abs=1e-14
        )

    def test_deep_tail_threshold(self):
        # scipy.special.stdtr(200, -THUMB_RATIO * stdtrit(200, 1 - 1e-4)), frozen
        assert rule_of_thumb(1e-4, 200.0).p_threshold == pytest.approx(
            3.378850391858275e-19, rel=1e-12, abs=0.0
        )

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            rule_of_thumb(0.5, 10.0)


class TestMinimizeR:
    def test_beta_half_minimum_location_and_value(self):
        for alpha, nu, n in [(0.05, 19.0, 20), (0.01, 9.0, 50), (0.1, 120.0, 7)]:
            criteria = Criteria(alpha=alpha, beta=0.5)
            q_at_min, r_min = minimize_r(criteria, nu, n)
            assert q_at_min * n == pytest.approx(2.0, abs=1e-11)
            assert r_min == pytest.approx(
                THUMB_RATIO * t_quantile(1.0 - alpha, nu), abs=1e-9
            )

    def test_kink_minimum_for_beta_near_alpha(self):
        # Close to alpha, R's minimum is the kink where t_rep meets t_crit:
        # a + b sqrt(1 + 2u) = 0, so u = ((a / b)^2 - 1) / 2.
        for beta, nu in ((0.06, 3.0), (0.06, 19.0), (0.1, 200.0)):
            criteria = Criteria(alpha=0.05, beta=beta)
            a, b = _quantiles(criteria, nu)
            u_kink = 0.5 * ((a / b) ** 2 - 1.0)
            q_at_min, r_min = minimize_r(criteria, nu, 20)
            assert q_at_min * 20 == pytest.approx(u_kink, rel=1e-10)
            assert r_min == pytest.approx(a * math.sqrt(1.0 + u_kink), rel=1e-11)

    def test_matches_dense_grid_oracle(self):
        q_at_min, r_min = minimize_r(C_HIGH, 19, 20)
        assert r_min == pytest.approx(GRID_MIN_R_B08, rel=1e-6)
        assert q_at_min * 20 == pytest.approx(GRID_MIN_U_B08, rel=1e-3)

    @pytest.mark.parametrize(
        "beta, nu, n, u_frozen, u_rel, r_frozen",
        [
            (0.0500001, 19.0, 20, U_MIN_B_NEAR_ALPHA, 1e-8, R_MIN_B_NEAR_ALPHA),
            (0.999999999999, 0.5, 2, U_MIN_NU05_B_NEAR_1, 1e-12, R_MIN_NU05_B_NEAR_1),
        ],
        ids=["kink-below-1e-6", "stationary-above-1e6"],
    )
    def test_minimum_has_no_search_window(self, beta, nu, n, u_frozen, u_rel, r_frozen):
        # u_frozen's relative error is that of a + b, about 1e-9, in the kink case
        criteria = Criteria(alpha=0.05, beta=beta)
        q_at_min, r_min = minimize_r(criteria, nu, n)
        curve = r_curve(criteria, nu, n, np.logspace(-12, 18, 30_001) / n)
        assert float(curve.min()) >= r_min * (1.0 - 1e-13)
        assert q_at_min * n == pytest.approx(u_frozen, rel=u_rel)
        assert r_min == pytest.approx(r_frozen, rel=1e-12)

    def test_located_value_is_the_grid_floor(self):
        for criteria in (C_LOW, C_HALF, C_HIGH):
            _, r_min = minimize_r(criteria, 19, 20)
            curve = r_curve(criteria, 19, 20, np.logspace(-6, 4, 100_000) / 20.0)
            assert float(curve.min()) >= r_min - 1e-12 * r_min


class TestQInterval:
    def test_no_solution_below_the_floor(self):
        q_at_min, r_min = minimize_r(C_HALF, 19, 20)
        for t1 in (0.0, 0.5 * r_min, 0.999 * r_min):
            outcome = q_interval(t1, C_HALF, 19, 20)
            assert isinstance(outcome, NoSolution)
            assert outcome.r_min == r_min
            assert outcome.q_at_min == q_at_min

    def test_tangent_case_pinches_to_the_minimum(self):
        _, r_min = minimize_r(C_HALF, 19, 20)
        outcome = q_interval(r_min, C_HALF, 19, 20)
        assert isinstance(outcome, QInterval)
        assert outcome.q1 <= outcome.q2
        assert outcome.q1 * 20 == pytest.approx(2.0, rel=5e-4)
        assert outcome.q2 * 20 == pytest.approx(2.0, rel=5e-4)

    def test_matches_independent_root_finder(self):
        _, r_min = minimize_r(C_HALF, 19, 20)
        outcome = q_interval(1.05 * r_min, C_HALF, 19, 20)
        assert isinstance(outcome, QInterval)
        assert outcome.q1 == pytest.approx(Q1_ORACLE, rel=1e-8)
        assert outcome.q2 == pytest.approx(Q2_ORACLE, rel=1e-8)
        assert outcome.q1 < 0.1 < outcome.q2
        assert outcome.gamma == outcome.q2
        assert not outcome.q2_censored

    def test_endpoints_invert_the_curve(self):
        t1 = 1.05 * R_MIN_A05_NU19
        outcome = q_interval(t1, C_HALF, 19, 20)
        assert r_crit(C_HALF, 19, 20, outcome.q1).r_q == pytest.approx(t1, rel=1e-8)
        assert r_crit(C_HALF, 19, 20, outcome.q2).r_q == pytest.approx(t1, rel=1e-8)
        mid = 0.5 * (outcome.q1 + outcome.q2)
        assert r_crit(C_HALF, 19, 20, mid).r_q <= t1
        assert r_crit(C_HALF, 19, 20, 0.3 * outcome.q1).r_q > t1
        assert r_crit(C_HALF, 19, 20, 3.0 * outcome.q2).r_q > t1

    def test_sign_of_t1_is_ignored(self):
        t1 = 1.2 * R_MIN_A05_NU19
        assert q_interval(-t1, C_HALF, 19, 20) == q_interval(t1, C_HALF, 19, 20)

    def test_right_censoring(self):
        outcome = q_interval(1e6, C_HALF, 19, 20)
        assert isinstance(outcome, QInterval)
        assert outcome.q2_censored
        assert outcome.q2 == 1e3
        assert outcome.gamma == 1e3
        assert 0.0 < outcome.q1 < 1e-6

        lifted = q_interval(1e6, C_HALF, 19, 20, q_ceiling=1e12)
        assert not lifted.q2_censored
        assert lifted.q2 > 1e3

        # a ceiling between q1 and q_at_min censors the interval there
        full = q_interval(4.5, C_HALF, 19, 20)
        low = q_interval(4.5, C_HALF, 19, 20, q_ceiling=0.095)
        assert full.q1 < 0.095 < full.q_at_min
        assert (low.q1, low.q2, low.q2_censored) == (full.q1, 0.095, True)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_interval(math.inf, C_HALF, 19, 20)
        with pytest.raises(DomainError):
            q_interval(5.0, C_HALF, 19, 20, q_ceiling=0.0)
        # q_ceiling * n overflows
        with pytest.raises(DomainError, match=r"q_ceiling \* n must be finite"):
            q_interval(5.0, C_HALF, 19, 2**1020)
        # the ceiling lies below q1 = 0.0905: no interval, not a censored one
        with pytest.raises(DomainError, match=r"q_ceiling=0\.01 lies below q1=0\.0904"):
            q_interval(4.5, C_HALF, 19, 20, q_ceiling=0.01)

    @pytest.mark.parametrize(
        "n", [0, -5, 1, True, 20.0, 10**400], ids=["0", "-5", "1", "True", "20.0", "10**400"]
    )
    def test_n_is_checked(self, n):
        for call in (
            lambda: q_interval(5.0, C_HALF, 19, n),
            lambda: minimize_r(C_HALF, 19, n),
            lambda: r_crit(C_HALF, 19, n, 0.1),
            lambda: t_rep(C_HALF, 19, n, 0.1),
            lambda: r_curve(C_HALF, 19, n, np.array([0.1])),
        ):
            with pytest.raises(DomainError):
                call()

    def test_degenerate_quantiles_rejected(self):
        # beta one ulp above alpha, and a nu so small that both quantiles
        # saturate: T^-1(1 - alpha) + T^-1(beta) rounds to 0
        for criteria, nu in (
            (Criteria(alpha=0.05, beta=0.05000000000000001), 19.0),
            (Criteria(alpha=0.05, beta=0.074), 0.0014),
        ):
            with pytest.raises(DomainError):
                q_interval(5.0, criteria, nu, 20)
            with pytest.raises(DomainError):
                minimize_r(criteria, nu, 20)

    def test_huge_t_has_the_asymptotic_left_root(self):
        a, b = _quantiles(C_HIGH, 19)
        for t1 in (1e12, 1e300, -1.7e308):
            outcome = q_interval(t1, C_HIGH, 19, 20)
            assert isinstance(outcome, QInterval)
            assert outcome.q1 == pytest.approx((a + b) / (abs(t1) * 20), rel=1e-9)
            assert outcome.q2_censored

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.001, 0.45),
        gap=st.floats(0.0, 1.0),
        log_nu=st.floats(math.log(0.5), math.log(1e6)),
        w=st.floats(0.0, 1.0),
    )
    def test_left_bracket_clears_t(self, alpha, gap, log_nu, w):
        # q_interval's left bracket u = (a + b) / (2|t1|) must have R >= |t1|.
        beta = alpha + 1e-3 + gap * (0.999 - alpha - 1e-3)
        criteria = Criteria(alpha=alpha, beta=beta)
        nu = math.exp(log_nu)
        _, r_min = minimize_r(criteria, nu, 20)
        t1 = math.exp((1.0 - w) * math.log(r_min) + w * math.log(1e308))
        a, b = _quantiles(criteria, nu)
        assert _r_u(a, b, 0.5 * (a + b) / t1) >= t1

    @settings(max_examples=40)
    @given(
        alpha=st.floats(0.01, 0.2),
        beta=st.floats(0.25, 0.9),
        nu=st.sampled_from([3.0, 19.0, 80.0]),
        n=st.integers(2, 200),
        factor=st.floats(1.001, 4.0),
    )
    def test_returned_roots_solve_the_equation(self, alpha, beta, nu, n, factor):
        criteria = Criteria(alpha=alpha, beta=beta)
        _, r_min = minimize_r(criteria, nu, n)
        t1 = factor * r_min
        outcome = q_interval(t1, criteria, nu, n, q_ceiling=1e9)
        assert isinstance(outcome, QInterval)
        assert not outcome.q2_censored
        assert r_crit(criteria, nu, n, outcome.q1).r_q == pytest.approx(t1, rel=1e-8)
        assert r_crit(criteria, nu, n, outcome.q2).r_q == pytest.approx(t1, rel=1e-8)
