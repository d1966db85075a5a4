"""Point-form null hypothesis tests.

The point-form null says the experiment mean is exactly zero.  With the
standardized effect z = mean / sd and per-group sample size N, the test
statistic is z * sqrt(N) and significance compares it against a t
quantile.  These are the classical results the distributional test is
measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .special import _check_nu, normal_cdf, t_cdf, t_quantile

__all__ = [
    "PointTestReport",
    "point_p_value",
    "point_z_crit",
    "point_test",
    "power_replication_estimate",
]


@dataclass(frozen=True)
class PointTestReport:
    """Outcome of a point-form test of a standardized effect z."""

    t_stat: float
    nu: float
    p_value: float
    z_crit: float
    t_crit: float
    significant: bool
    alpha: float


def _check_n(n: int) -> int:
    # The cap keeps N and 2N - 2 within float range.
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= 2**1022:
        raise DomainError(f"sample size must be an integer in [2, 2**1022], got {n!r}")
    return n


def _qn(q: float, n: int, name: str = "q") -> float:
    # u = qN, through which q enters every closed form of the
    # distributional null, the joint criterion and the simulator.
    u = q * _check_n(n)
    if u == math.inf:
        raise DomainError(f"{name} * n must be finite, got {q} * {n}")
    return u


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha}")
    return float(alpha)


def _check_t1(t1: float, name: str = "t1") -> float:
    if not math.isfinite(t1):
        raise DomainError(f"{name} must be finite, got {t1}")
    return t1


def _t_alpha(alpha: float, nu: float) -> float:
    # T_nu^{-1}(1 - alpha): the one-tail quantile every threshold scales,
    # as -T_nu^{-1}(alpha), since 1 - alpha would round alpha's bits away.
    _check_alpha(alpha)
    return -t_quantile(alpha, nu)


def _t_crit_u(a: float, u: float, sqrt=math.sqrt) -> float:
    # a sqrt(1 + u): the critical t of the distributional null, a = _t_alpha and u = qN.
    return a * sqrt(1.0 + u)


def _t_stat(z: float, n: int) -> float:
    if math.isinf(t := _check_t1(z, "z") * math.sqrt(n)):  # n checked; a finite z can overflow t
        raise DomainError(f"t = z * sqrt(n) overflows at z={z}, n={n}")
    return t


def point_p_value(z: float, n: int, nu: float) -> float:
    """Tail probability of the absolute statistic, T_nu(-|z| sqrt(N)).

    This is the one-tail probability of |z|, the quantity the
    significance rule |z| >= z_crit corresponds to.
    """
    _check_n(n)
    _check_nu(nu)  # nu before z, the order t_cdf checks them in
    return t_cdf(-abs(_t_stat(z, n)), nu)


def point_z_crit(alpha: float, n: int, nu: float) -> float:
    """Smallest |z| that is significant at level alpha: T_nu^{-1}(1-alpha)/sqrt(N)."""
    return _t_alpha(alpha, nu) / math.sqrt(_check_n(n))


def point_test(z: float, n: int, nu: float, alpha: float = 0.05) -> PointTestReport:
    """Full point-form report for a standardized effect z."""
    t_crit = _t_alpha(alpha, nu)
    t_stat = _t_stat(z, _check_n(n))
    return PointTestReport(
        t_stat=t_stat,
        nu=float(nu),
        p_value=t_cdf(-abs(t_stat), nu),
        z_crit=t_crit / math.sqrt(n),
        t_crit=t_crit,
        significant=abs(t_stat) >= t_crit,
        alpha=float(alpha),
    )


def power_replication_estimate(t1: float, alpha: float, nu: float) -> float:
    """Power-style estimate of replication probability, as found in the
    replication literature:

        1 - Phi((T_nu^{-1}(alpha) - t1) / sqrt(1 + T_nu^{-1}(alpha)^2 / (2 nu)))

    The lower-tail quantile T_nu^{-1}(alpha) is negative for alpha < 0.5,
    which makes the estimate implausibly high for null results (about 0.95
    at t1 = 0 with alpha = 0.05).  The formula is reproduced verbatim
    anyway, for comparison.
    """
    _check_alpha(alpha)
    if nu < 1.0:
        raise DomainError(f"need nu >= 1, got {nu}")
    t_a = t_quantile(alpha, nu)
    return normal_cdf((_check_t1(t1) - t_a) / math.sqrt(1.0 + t_a * t_a / (2.0 * nu)))
