import math
import re

import pytest
from hypothesis import assume, given, strategies as st

from distnull.criterion import Criteria, q_interval
from distnull.distributional import (
    DistributionalNull,
    ExperimentDesign,
    dist_p_value,
    dist_test_from_t,
    replication_probability,
)
from distnull.errors import DomainError
from distnull.mc import SimConfig, simulate_replication
from distnull.point import (
    point_p_value,
    point_test,
    point_z_crit,
    power_replication_estimate,
)
from distnull.special import t_quantile

# scipy.stats.t.ppf(0.95, 9), frozen
T_PPF_95_NU9 = 1.8331129326536335
# the verbatim power-style formula at t1 = 0, alpha = 0.05, nu = 40, frozen
POWER_AT_NULL = 0.9510156371441539


def test_p_value_at_zero_effect():
    assert point_p_value(0.0, 10, 9) == 0.5


def test_p_value_example():
    # z = 1, N = 2, nu = 1: 1 - T_1(sqrt(2)) = 1/2 - atan(sqrt 2)/pi
    expected = 0.5 - math.atan(math.sqrt(2.0)) / math.pi
    assert point_p_value(1.0, 2, 1) == pytest.approx(expected, abs=1e-13)
    assert point_p_value(1.0, 2, 1) == pytest.approx(0.1959132760153035, abs=1e-13)


def test_deep_tail_p_value():
    # scipy.special.stdtr(19, -40.0), frozen; 1 - T_nu(40) cancels to 0
    assert point_p_value(40.0 / math.sqrt(20), 20, 19) == pytest.approx(
        4.153878599669217e-20, rel=1e-12, abs=0.0
    )


def test_sign_does_not_matter():
    assert point_p_value(-1.3, 12, 11) == point_p_value(1.3, 12, 11)


def test_z_crit_frozen_value():
    assert point_z_crit(0.05, 10, 9) == pytest.approx(
        T_PPF_95_NU9 / math.sqrt(10), abs=1e-11
    )


# -scipy.special.stdtrit(nu, alpha), frozen: T_nu^{-1}(1 - alpha) for alpha
# at or below the spacing of floats next to 1, where 1 - alpha loses bits.
TINY_ALPHA_T_CRIT = [
    (1e-12, 5.0, 393.95695957760375),
    (1e-12, 19.0, 15.884838733726818),
    (1e-12, 1000.0, 7.124228925314409),
    (1e-15, 5.0, 1568.3911928228774),
    (1e-15, 19.0, 23.268048548241097),
    (1e-15, 1000.0, 8.070281832298525),
    (1e-17, 5.0, 3939.6234445579057),
    (1e-17, 19.0, 29.83939865840545),
    (1e-17, 1000.0, 8.65154413166219),
    (1e-100, 5.0, 1.5683925590993378e20),
    (1e-100, 19.0, 704008.5470071809),
    (1e-100, 1000.0, 23.930617087826437),
]


@pytest.mark.parametrize("alpha, nu, expected", TINY_ALPHA_T_CRIT)
def test_t_crit_keeps_tiny_alpha(alpha, nu, expected):
    # N = 4: z_crit = t_crit / 2 and back are exact
    assert point_test(0.0, 4, nu, alpha).t_crit == pytest.approx(expected, rel=1e-12)


def test_z_crit_decreases_with_n():
    values = [point_z_crit(0.05, n, 9) for n in (2, 5, 20, 100, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_domain_checks():
    with pytest.raises(DomainError):
        point_p_value(1.0, 1, 5)
    with pytest.raises(DomainError):
        point_p_value(1.0, True, 5)
    with pytest.raises(DomainError):
        point_z_crit(0.0, 10, 9)
    with pytest.raises(DomainError):
        point_z_crit(0.5, 10, 9)
    with pytest.raises(DomainError):
        point_z_crit(0.05, 0, 9)
    # largest accepted n, and the first one past it
    assert point_z_crit(0.05, 2**1022, 9) > 0.0
    with pytest.raises(DomainError):
        point_z_crit(0.05, 2**1022 + 1, 9)


def test_report_fields_consistent():
    report = point_test(0.7, 16, 15, alpha=0.01)
    assert report.t_stat == pytest.approx(0.7 * 4.0, rel=1e-15)
    assert report.t_crit == pytest.approx(report.z_crit * 4.0, rel=1e-15)
    assert report.nu == 15.0
    assert report.alpha == 0.01
    assert report.significant == (abs(report.t_stat) >= report.t_crit)


@given(
    z=st.floats(-3.0, 3.0),
    n=st.integers(2, 500),
    nu=st.sampled_from([1.0, 4.0, 19.0, 99.0]),
    alpha=st.floats(0.005, 0.45),
)
def test_p_value_and_z_crit_agree(z, n, nu, alpha):
    p = point_p_value(z, n, nu)
    assume(abs(p - alpha) > 1e-9)  # stay off the knife edge of the solver tolerance
    assert (p <= alpha) == (abs(z) >= point_z_crit(alpha, n, nu))


class TestPowerReplicationEstimate:
    def test_half_at_the_quantile(self):
        # the numerator vanishes when t1 equals the quantile the formula uses
        assert power_replication_estimate(t_quantile(0.05, 30), 0.05, 30) == 0.5

    def test_frozen_value_at_null_result(self):
        # the published formula is this optimistic about a t1 = 0 result
        assert power_replication_estimate(0.0, 0.05, 40) == pytest.approx(
            POWER_AT_NULL, abs=1e-11
        )

    def test_deep_tail(self):
        # scipy.special.ndtr((t1 - t_a) / sqrt(1 + t_a^2 / 80)) with
        # t_a = scipy.special.stdtrit(40, 0.05), frozen
        for t1, expected in [(-15.0, 1.972634836958648e-39), (-30.0, 1.013563145681e-170)]:
            assert power_replication_estimate(t1, 0.05, 40) == pytest.approx(
                expected, rel=1e-11, abs=0.0
            )

    def test_monotone_in_t1(self):
        values = [
            power_replication_estimate(t1, 0.05, 20) for t1 in (-2.0, 0.0, 1.0, 3.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(
        d=st.floats(0.0, 6.0),
        alpha=st.floats(0.005, 0.45),
        nu=st.sampled_from([2.0, 10.0, 40.0]),
    )
    def test_reflection_about_the_quantile(self, d, alpha, nu):
        t_a = t_quantile(alpha, nu)
        total = power_replication_estimate(
            t_a + d, alpha, nu
        ) + power_replication_estimate(t_a - d, alpha, nu)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            power_replication_estimate(1.0, 0.05, 0.5)
        with pytest.raises(DomainError):
            power_replication_estimate(1.0, 0.6, 20)


T1_TAKERS = {
    "dist_p_value": lambda t1: dist_p_value(t1, 19, 20, DistributionalNull(0.1)),
    "dist_test_from_t": lambda t1: dist_test_from_t(t1, 19, 20, DistributionalNull(0.1)),
    "replication_probability": lambda t1: replication_probability(
        t1, 0.05, 19, 20, DistributionalNull(0.1)
    ),
    "power_replication_estimate": lambda t1: power_replication_estimate(t1, 0.05, 19),
    "q_interval": lambda t1: q_interval(t1, Criteria(alpha=0.05, beta=0.5), 19, 20),
    "simulate_replication": lambda t1: simulate_replication(
        t1, SimConfig(ExperimentDesign.ONE_SAMPLE, 20, 0.1, trials=10), 0.05
    ),
}


@pytest.mark.parametrize("t1", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", list(T1_TAKERS.values()), ids=list(T1_TAKERS))
def test_every_t1_taker_rejects_a_non_finite_t1(call, t1):
    # one rule, one message: naming t1, not the t_cdf argument it would become
    with pytest.raises(DomainError, match=r"^t1 must be finite, got (-?inf|nan)$"):
        call(t1)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", [point_p_value, point_test], ids=["point_p_value", "point_test"])
def test_every_z_taker_rejects_a_non_finite_z(call, z):
    # named z, with z's own sign, not -|z| sqrt(N) as the t_cdf argument
    with pytest.raises(DomainError, match=rf"^z must be finite, got {z}$"):
        call(z, 20, 19)
    # n and nu are still checked before z
    with pytest.raises(DomainError, match="^sample size"):
        call(z, 1, 19)
    with pytest.raises(DomainError, match="^degrees of freedom"):
        call(z, 20, -1.0)


@pytest.mark.parametrize("call", [point_p_value, point_test], ids=["point_p_value", "point_test"])
def test_every_z_taker_rejects_a_t_that_overflows(call):
    # a finite z whose t = z sqrt(N) overflows: named so, not as t_cdf's non-finite x
    for z in (1e308, -1e308):
        message = re.escape(f"t = z * sqrt(n) overflows at z={z}, n=20")
        with pytest.raises(DomainError, match=f"^{message}$"):
            call(z, 20, 19)
        # n and nu are still checked before z
        with pytest.raises(DomainError, match="^sample size"):
            call(z, 1, 19)
        with pytest.raises(DomainError, match="^degrees of freedom"):
            call(z, 20, -1.0)
    assert call(1e153, 20, 19) is not None  # t = 4.5e153 is still finite
