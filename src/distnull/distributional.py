"""Significance and replication under a distributional null.

The distributional null keeps "no overall effect" but lets the
per-experiment mean vary: mu ~ N(0, q sigma^2), where sigma^2 is the
within-experiment variance and q = sigma_0^2 / sigma^2 is the variance
ratio.  Under this model the statistic t / sqrt(1 + qN) is exactly
t-distributed, which yields closed forms for p-values, critical values,
posterior updates, and the probability that an exact repeat of the
experiment comes out significant in the same direction.

Everything is expressed in sigma-normalized ratios; sigma itself is
never observed and never appears alone in any result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateSampleError, DomainError
from .point import _check_n, _check_t1, _qn, _t_alpha, _t_crit_u
from .special import t_cdf

__all__ = [
    "ExperimentDesign",
    "ExperimentSummary",
    "DistributionalNull",
    "PosteriorMean",
    "DistTestReport",
    "degrees_of_freedom",
    "t_statistic",
    "dist_p_value",
    "dist_t_crit",
    "dist_z_crit",
    "asymptotic_z_bound",
    "posterior_update",
    "replication_probability",
    "dist_test",
    "dist_test_from_t",
]


class ExperimentDesign(enum.Enum):
    """Supported experiment shapes.

    Paired designs reduce to a one-sample test on the pair differences;
    two-sample designs require the same N in both groups, because the
    pooled-variance algebra with nu = 2N - 2 assumes it.
    """

    ONE_SAMPLE = "one_sample"
    PAIRED = "paired"
    TWO_SAMPLE_EQUAL_N = "two_sample_equal_n"


@dataclass(frozen=True)
class ExperimentSummary:
    """Sufficient statistics of one experiment.

    ``mean`` and ``sd`` are in measurement units: the sample mean and
    sample standard deviation for a one-sample design, the mean and
    standard deviation of the pair differences for a paired design, or
    the difference of group means and the pooled standard deviation for
    a two-sample design with equal group sizes.  ``n`` is the per-group
    sample size N.
    """

    design: ExperimentDesign
    n: int
    mean: float
    sd: float

    def __post_init__(self) -> None:
        degrees_of_freedom(self.design, self.n)
        if not math.isfinite(self.mean):
            raise DomainError(f"mean must be finite, got {self.mean}")
        if not (self.sd > 0.0 and math.isfinite(self.sd)):
            raise DegenerateSampleError(
                f"sd must be positive and finite, got {self.sd}"
            )

    @classmethod
    def two_sample(
        cls, n: int, mean: float, sd: float, mean2: float, sd2: float
    ) -> ExperimentSummary:
        """Equal-N two-sample summary, pooling the sds as hypot(sd, sd2) / sqrt(2)."""
        if not (sd > 0.0 and sd2 > 0.0):
            raise DomainError(f"sd and sd2 must be positive, got {sd}, {sd2}")
        pooled = math.hypot(sd, sd2) / math.sqrt(2.0)
        return cls(ExperimentDesign.TWO_SAMPLE_EQUAL_N, n, mean - mean2, pooled)


@dataclass(frozen=True)
class DistributionalNull:
    """The null model mu ~ N(0, q sigma^2); q = 0 is the point-form null."""

    q: float

    def __post_init__(self) -> None:
        if not (self.q >= 0.0 and math.isfinite(self.q)):
            raise DomainError(f"variance ratio q must be >= 0 and finite, got {self.q}")


@dataclass(frozen=True)
class PosteriorMean:
    """Posterior for the experiment mean after observing x_bar_1.

    ``shrinkage`` is qN / (1 + qN), the weight on the observed mean;
    ``var_n_over_sigma2`` is the posterior variance divided by sigma^2.
    """

    mu_n: float
    shrinkage: float
    var_n_over_sigma2: float


@dataclass(frozen=True)
class DistTestReport:
    """Outcome of a significance test against a distributional null."""

    t_stat: float
    nu: float
    q: float
    p_value: float
    t_crit: float
    significant: bool
    asymptotic_bound_z: float


def degrees_of_freedom(design: ExperimentDesign, n: int) -> float:
    """nu for a design with per-group sample size n."""
    _check_n(n)
    if not isinstance(design, ExperimentDesign):
        raise DomainError(f"design must be an ExperimentDesign, got {design!r}")
    if design is ExperimentDesign.TWO_SAMPLE_EQUAL_N:
        return float(2 * n - 2)
    return float(n - 1)


def t_statistic(summary: ExperimentSummary) -> tuple[float, float]:
    """The t statistic and degrees of freedom implied by a summary.

    One-sample and paired designs use t = mean / (sd / sqrt(N)) with
    nu = N - 1; the equal-N two-sample design uses
    t = mean / (sd * sqrt(2 / N)) with nu = 2N - 2.
    """
    nu = degrees_of_freedom(summary.design, summary.n)
    two_sample = summary.design is ExperimentDesign.TWO_SAMPLE_EQUAL_N
    # mean / sd first: the standard error itself may underflow to 0.
    t = summary.mean / summary.sd * math.sqrt(0.5 * summary.n if two_sample else summary.n)
    if math.isinf(t):
        raise DomainError(f"t overflows at mean={summary.mean}, sd={summary.sd}")
    return t, nu


def dist_p_value(t1: float, nu: float, n: int, null: DistributionalNull) -> float:
    """p-value against the distributional null: T_nu(-|t1| / sqrt(1 + qN)).

    Nondecreasing in q for fixed |t1|: the more the mean is allowed to
    wander between experiments, the less surprising any one result is.
    """
    return _p_u(_check_t1(t1), nu, _qn(null.q, n))


def _p_u(t1: float, nu: float, u: float) -> float:
    return t_cdf(-abs(t1) / math.sqrt(1.0 + u), nu)


def dist_t_crit(alpha: float, nu: float, n: int, null: DistributionalNull) -> float:
    """Critical t value under the null: T_nu^{-1}(1 - alpha) sqrt(1 + qN)."""
    return _t_crit_u(_t_alpha(alpha, nu), _qn(null.q, n))


def dist_z_crit(alpha: float, nu: float, n: int, null: DistributionalNull) -> float:
    """Critical standardized effect: T_nu^{-1}(1 - alpha) sqrt(1 + qN) / sqrt(N).

    Unlike the point-form bound, this does not vanish as N grows; it
    approaches the asymptotic floor T_nu^{-1}(1 - alpha) sqrt(q).
    """
    return dist_t_crit(alpha, nu, n, null) / math.sqrt(n)


def asymptotic_z_bound(alpha: float, nu: float, null: DistributionalNull) -> float:
    """Large-N floor of dist_z_crit: T_nu^{-1}(1 - alpha) sqrt(q).

    Standardized effects below this bound never reach significance
    against the null, at any sample size.
    """
    return _t_alpha(alpha, nu) * math.sqrt(null.q)


def _shrinkage(u: float) -> float:
    # u / (1 + u), u = qN: the posterior's weight on the observed mean.
    return u / (1.0 + u)


def posterior_update(x_bar_1: float, n: int, null: DistributionalNull) -> PosteriorMean:
    """Gaussian posterior for the experiment mean given the observed x_bar_1.

    mu_N = (qN / (1 + qN)) x_bar_1 and sigma_N^2 = (qN / (1 + qN)) sigma^2 / N.
    With q = 0 the null absorbs all evidence (mu_N = 0); as q grows the
    posterior approaches the observed mean.
    """
    shrinkage = _shrinkage(_qn(null.q, n))
    return PosteriorMean(
        mu_n=shrinkage * _check_t1(x_bar_1, "x_bar_1"),
        shrinkage=shrinkage,
        var_n_over_sigma2=shrinkage / n,
    )


def replication_probability(
    t1: float, alpha: float, nu: float, n: int, null: DistributionalNull
) -> float:
    """Probability that an exact repeat experiment (same N, sigma, q,
    alpha) is significant in the same direction as t1:

        p_r = T_nu((shrinkage * |t1| - t_crit) / sqrt((1 + 2qN) / (1 + qN)))

    with shrinkage = qN / (1 + qN) and t_crit the distributional critical
    value.  At q = 0 this is alpha regardless of t1: under a point null a
    significant repeat is pure false-positive luck.
    """
    a, u = _t_alpha(alpha, nu), _qn(null.q, n)
    shrinkage = _shrinkage(u)
    # (1 + 2qN) / (1 + qN), without forming 2qN, which may overflow
    spread = math.sqrt(1.0 + shrinkage)
    return t_cdf((shrinkage * abs(_check_t1(t1)) - _t_crit_u(a, u)) / spread, nu)


def dist_test_from_t(
    t1: float, nu: float, n: int, null: DistributionalNull, alpha: float = 0.05
) -> DistTestReport:
    """Distributional-null report from a precomputed t statistic."""
    a, u = _t_alpha(alpha, nu), _qn(null.q, n)
    t_crit = _t_crit_u(a, u)
    return DistTestReport(
        t_stat=t1,
        nu=float(nu),
        q=null.q,
        p_value=_p_u(_check_t1(t1), nu, u),
        t_crit=t_crit,
        significant=abs(t1) >= t_crit,
        asymptotic_bound_z=a * math.sqrt(null.q),
    )


def dist_test(
    summary: ExperimentSummary, null: DistributionalNull, alpha: float = 0.05
) -> DistTestReport:
    """Distributional-null report from raw summary statistics."""
    t1, nu = t_statistic(summary)
    return dist_test_from_t(t1, nu, summary.n, null, alpha)
