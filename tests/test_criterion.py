import math
from decimal import Decimal, localcontext

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

# C_LOW, nu = 19, n = 20, |t1| = 6, with a, b from scipy's stdtrit: q2 lies past
# the kink on t_crit's branch, q2 n = (6 / a)^2 - 1; q1 on t_rep's by brentq
Q1_LOW_T6, Q2_LOW_T6 = 0.01491902258551725, 0.5520267672848169

C_HALF = Criteria(alpha=0.05, beta=0.5)
C_LOW = Criteria(alpha=0.05, beta=0.3)
C_HIGH = Criteria(alpha=0.05, beta=0.8)
# beta 4e-9 above alpha: a + b s cancels at small u unless it is summed as (a + b) - b w^2 / (1 + s)
C_NEAR = Criteria(alpha=0.0038527756, beta=0.0038527756 + 4e-9)


def t_rep_reference(a, b, u):
    """t_rep = (1 + 1/u) (a sqrt(1 + u) + b sqrt((1 + 2u) / (1 + u))) at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, u = Decimal(a), Decimal(b), Decimal(u)
        return float((1 + 1 / u) * (a * (1 + u).sqrt() + b * ((1 + 2 * u) / (1 + u)).sqrt()))


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

    def test_no_cancellation_for_beta_near_alpha(self):
        a, b = _quantiles(C_NEAR, 10.34)
        for q in np.logspace(-12, -8, 41):
            ref = t_rep_reference(a, b, float(q) * 11)
            assert t_rep(C_NEAR, 10.34, 11, float(q)) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.001, 0.45),
        log_gap=st.floats(math.log(1e-9), math.log(1e-3)),
        log_nu=st.floats(math.log(0.5), math.log(1e6)),
        n=st.integers(2, 1000),
        log_q=st.floats(math.log(1e-12), math.log(1e12)),
    )
    def test_matches_reference_for_beta_near_alpha(self, alpha, log_gap, log_nu, n, log_q):
        criteria = Criteria(alpha=alpha, beta=alpha + math.exp(log_gap))
        nu, q = math.exp(log_nu), math.exp(log_q)
        a, b = _quantiles(criteria, nu)
        ref = t_rep_reference(a, b, q * n)
        assert t_rep(criteria, nu, n, q) == pytest.approx(ref, rel=1e-14, abs=0.0)


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
        for criteria in (C_HIGH, C_NEAR):
            curve = r_curve(criteria, 19, 20, q)
            for qi, ri in zip(q, curve):
                assert ri == r_crit(criteria, 19, 20, float(qi)).r_q

    def test_finite_at_the_top_of_u(self):
        res = r_crit(C_HALF, 19, 2, 8e307)
        t_crit = t_quantile(0.95, 19) * math.sqrt(1.6e308)
        assert res.t_crit == pytest.approx(t_crit, rel=1e-15)
        assert res.t_rep == pytest.approx(t_crit, rel=1e-15)
        assert res.r_q == res.t_crit

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.001, 0.45),
        gap=st.floats(1e-6, 1.0),
        log_nu=st.floats(math.log(0.5), math.log(1e6)),
        n=st.integers(2, 10**5),
        # u = qN over its whole float range, with the top decade drawn on its own
        log_u=st.floats(math.log(1e-300), math.log(1.79e308))
        | st.floats(math.log(1.79e307), math.log(1.79e308)),
    )
    def test_finite_over_the_range_of_u(self, alpha, gap, log_nu, n, log_u):
        criteria = Criteria(alpha=alpha, beta=alpha + gap * (0.999 - alpha))
        res = r_crit(criteria, math.exp(log_nu), n, math.exp(log_u) / n)
        assert math.isfinite(res.r_q)
        assert res.r_q >= res.t_crit

    @pytest.mark.parametrize(
        "call",
        [r_crit, t_rep, lambda c, nu, n, q: r_curve(c, nu, n, np.array([1.0, q]))],
        ids=["r_crit", "t_rep", "r_curve"],
    )
    def test_overflowing_qn_rejected(self, call):
        with pytest.raises(DomainError, match=r"q \* n must be finite"):
            call(C_HALF, 19.0, 2**1022, 1e20)

    def test_curve_rejects_bad_q(self):
        # r_crit's message for the first bad q, whatever comes after it
        for bad in (0.0, -0.0, -1.0, math.nan, math.inf, 1e308):
            with pytest.raises(DomainError) as pointwise:
                r_crit(C_HALF, 19, 20, bad)
            for later in (-2.0, 1e307):
                with pytest.raises(DomainError) as curve:
                    r_curve(C_HALF, 19, 20, np.array([[0.1, bad], [later, 0.2]]))
                assert str(curve.value) == str(pointwise.value)
        # an empty q still checks n
        with pytest.raises(DomainError, match="^sample size"):
            r_curve(C_HALF, 19, 1, np.array([]))

    def test_curve_keeps_the_type_and_shape_of_q(self):
        for q in (np.array(0.1), np.array([]), np.empty((2, 0)), np.full((4, 3), 0.1).T):
            curve = r_curve(C_LOW, 19, 20, q)
            assert type(curve) is np.ndarray and curve.flags.c_contiguous
            assert (curve.shape, curve.dtype) == (q.shape, np.float64)
            assert (curve == r_crit(C_LOW, 19, 20, 0.1).r_q).all()

    def test_curve_is_r_crit_bit_for_bit(self):
        # both branches of t_rep (beta either side of 1/2), nu from 0.5 to 1e8, u up to 1.7e308
        rng = np.random.default_rng(29)
        for i in range(40):
            alpha = math.exp(rng.uniform(math.log(1e-6), math.log(0.45)))
            beta = rng.uniform(alpha, 0.5) if i % 2 else rng.uniform(0.5, 0.999)
            nu, n = math.exp(rng.uniform(math.log(0.5), math.log(1e8))), int(rng.integers(2, 2**60))
            criteria = Criteria(alpha=alpha, beta=beta)
            q = np.exp(rng.uniform(math.log(1e-12), math.log(1.7e308), 25)) / n
            for qi, ri in zip(q, r_curve(criteria, nu, n, q)):
                assert ri == r_crit(criteria, nu, n, float(qi)).r_q


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

    def test_right_root_past_the_kink_is_on_t_crits_branch(self):
        a, b = _quantiles(C_LOW, 19)
        outcome = q_interval(6.0, C_LOW, 19, 20)
        assert isinstance(outcome, QInterval)
        u1, u2 = outcome.q1 * 20, outcome.q2 * 20
        # b < 0: t_rep < t_crit once sqrt(1 + 2u) > -a / b
        assert math.sqrt(1.0 + 2.0 * u1) < -a / b < math.sqrt(1.0 + 2.0 * u2)
        assert outcome.q1 == pytest.approx(Q1_LOW_T6, rel=1e-12)
        assert outcome.q2 == pytest.approx(Q2_LOW_T6, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.001, 0.45),
        gap=st.floats(0.0, 1.0),
        log_nu=st.floats(math.log(0.5), math.log(1e6)),
    )
    def test_ln_r_is_convex_in_ln_u(self, alpha, gap, log_nu):
        # q_interval's Newton loop in ln u rests on this: no step passes a root
        beta = alpha + 1e-3 + gap * (0.999999 - alpha - 1e-3)
        v = np.linspace(-30.0, 30.0, 601)
        criteria = Criteria(alpha=alpha, beta=beta)
        ln_r = np.log(r_curve(criteria, math.exp(log_nu), 20, np.exp(v) / 20))
        second = ln_r[:-2] - 2.0 * ln_r[1:-1] + ln_r[2:]
        assert np.all(second >= -1e-12 * np.maximum(1.0, np.abs(ln_r[1:-1])))
