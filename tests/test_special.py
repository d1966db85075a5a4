"""Special-function checks against closed forms and frozen reference values."""

import math

import pytest
from hypothesis import given, strategies as st

from distnull.errors import DomainError
from distnull.special import normal_cdf, reg_inc_beta, t_cdf, t_quantile

# Reference quantiles computed once with an independent implementation
# (scipy.stats.t.ppf) and frozen.
T_PPF_95_NU10 = 1.8124611228107335
T_PPF_95_NU19 = 1.729132811521367
NORM_PPF_975 = 1.959963984540054

# (x, nu) -> scipy.stats.t.cdf(x, nu), frozen.
T_CDF_TABLE = [
    (1.5, 5, 0.9030481598787634),
    (-2.5, 7, 0.020496109292876437),
    (3.0, 40, 0.9976849301079219),
    (0.5, 200, 0.6911876238417696),
    (10.0, 3, 0.9989358004707929),
    (-12.0, 1, 0.02646467605958987),
    (0.25, 2.5, 0.5891596994373485),
]


def t_cdf_nu1(x):
    return 0.5 + math.atan(x) / math.pi


def t_cdf_nu2(x):
    return 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))


def grid(lo, hi, k):
    step = (hi - lo) / (k - 1)
    return [lo + i * step for i in range(k)]


class TestRegIncBeta:
    def test_endpoints_exact(self):
        for a, b in [(0.5, 0.5), (1, 1), (2, 3), (100, 0.5)]:
            assert reg_inc_beta(0.0, a, b) == 0.0
            assert reg_inc_beta(1.0, a, b) == 1.0

    def test_uniform_case_is_identity(self):
        # I_x(1, 1) = x
        for x in grid(0.001, 0.999, 101):
            assert abs(reg_inc_beta(x, 1.0, 1.0) - x) < 1e-14

    def test_symmetric_cubic(self):
        # I_x(2, 2) = x^2 (3 - 2x)
        for x in grid(0.001, 0.999, 101):
            assert abs(reg_inc_beta(x, 2.0, 2.0) - x * x * (3.0 - 2.0 * x)) < 1e-14
        assert reg_inc_beta(0.25, 2.0, 2.0) == pytest.approx(0.15625, abs=1e-14)

    def test_complement_identity(self):
        for x in grid(0.01, 0.99, 23):
            for a, b in [(0.5, 0.5), (3, 1.5), (10, 0.5), (100, 100)]:
                assert abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(-0.01, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.01, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, math.inf, 1.0)
        # finite shapes whose log-beta overflows a float
        with pytest.raises(DomainError, match="overflows"):
            reg_inc_beta(0.5, 1e306, 0.5)
        with pytest.raises(DomainError, match="overflows"):
            t_quantile(0.95, 1e308)

    @given(
        x1=st.floats(0.0, 1.0),
        x2=st.floats(0.0, 1.0),
        a=st.sampled_from([0.5, 1.0, 2.5, 17.0]),
        b=st.sampled_from([0.5, 1.0, 4.0]),
    )
    def test_monotone_in_x(self, x1, x2, a, b):
        lo, hi = min(x1, x2), max(x1, x2)
        assert reg_inc_beta(lo, a, b) <= reg_inc_beta(hi, a, b) + 1e-15


class TestTCdf:
    def test_zero_is_half(self):
        for nu in [1.0, 2.0, 7.5, 300.0]:
            assert t_cdf(0.0, nu) == 0.5

    def test_nu1_closed_form(self):
        for x in grid(-30.0, 30.0, 1001):
            assert abs(t_cdf(x, 1.0) - t_cdf_nu1(x)) < 1e-13

    def test_nu2_closed_form(self):
        for x in grid(-30.0, 30.0, 1001):
            assert abs(t_cdf(x, 2.0) - t_cdf_nu2(x)) < 1e-13

    def test_frozen_reference_values(self):
        for x, nu, expected in T_CDF_TABLE:
            assert t_cdf(x, nu) == pytest.approx(expected, abs=5e-13)

    def test_matches_scipy_sweep(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        worst = 0.0
        for nu in [1.0, 2.0, 3.0, 7.0, 10.5, 40.0, 200.0]:
            for x in grid(-40.0, 40.0, 401):
                worst = max(worst, abs(t_cdf(x, nu) - float(scipy_stats.t.cdf(x, nu))))
        assert worst < 1e-12

    def test_large_nu_approaches_normal(self):
        for x in grid(-5.0, 5.0, 41):
            assert abs(t_cdf(x, 1e6) - normal_cdf(x)) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            t_cdf(math.nan, 5.0)
        with pytest.raises(DomainError):
            t_cdf(math.inf, 5.0)
        with pytest.raises(DomainError):
            t_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            t_cdf(1.0, -3.0)

    @given(
        x1=st.floats(-60.0, 60.0),
        x2=st.floats(-60.0, 60.0),
        nu=st.sampled_from([0.7, 1.0, 2.5, 10.0, 100.0, 5000.0]),
    )
    def test_monotone(self, x1, x2, nu):
        lo, hi = min(x1, x2), max(x1, x2)
        assert t_cdf(lo, nu) <= t_cdf(hi, nu) + 1e-15

    @given(
        x=st.floats(-60.0, 60.0),
        nu=st.sampled_from([0.7, 1.0, 2.5, 10.0, 100.0, 5000.0]),
    )
    def test_reflection(self, x, nu):
        assert abs(t_cdf(x, nu) + t_cdf(-x, nu) - 1.0) < 3e-16


class TestTQuantile:
    def test_median_is_exactly_zero(self):
        for nu in [1.0, 4.0, 250.0]:
            assert t_quantile(0.5, nu) == 0.0

    def test_nu1_closed_form(self):
        assert t_quantile(0.75, 1.0) == pytest.approx(1.0, abs=1e-12)
        expected = math.tan(math.pi * 0.4)
        assert t_quantile(0.9, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_frozen_reference_values(self):
        assert t_quantile(0.95, 10.0) == pytest.approx(T_PPF_95_NU10, abs=1e-11)
        assert t_quantile(0.95, 19.0) == pytest.approx(T_PPF_95_NU19, abs=1e-11)

    def test_domain_errors(self):
        for bad_p in [0.0, 1.0, -0.2, 1.3, math.nan]:
            with pytest.raises(DomainError):
                t_quantile(bad_p, 5.0)
        with pytest.raises(DomainError):
            t_quantile(0.9, 0.0)

    @given(
        p=st.floats(1e-6, 1.0 - 1e-6),
        nu=st.sampled_from([1.0, 2.0, 5.0, 10.0, 40.0, 200.0]),
    )
    def test_round_trip(self, p, nu):
        assert abs(t_cdf(t_quantile(p, nu), nu) - p) < 1e-10

    @given(
        p=st.floats(1e-6, 1.0 - 1e-6),
        nu=st.sampled_from([1.0, 2.0, 5.0, 10.0, 40.0, 200.0]),
    )
    def test_antisymmetry(self, p, nu):
        x = t_quantile(p, nu)
        y = t_quantile(1.0 - p, nu)
        assert abs(x + y) < 1e-8 * max(1.0, abs(x))


class TestNormalCdf:
    def test_basics(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(NORM_PPF_975) == pytest.approx(0.975, abs=1e-12)
        assert normal_cdf(math.inf) == 1.0
        assert normal_cdf(-math.inf) == 0.0
        assert normal_cdf(-40.0) < 1e-300

    def test_reflection(self):
        for x in grid(-8.0, 8.0, 33):
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 3e-16

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            normal_cdf(math.nan)
