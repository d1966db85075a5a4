"""Seeded Monte-Carlo verification of the analytic results.

Simulates the generative model behind the distributional null: each
trial draws a per-experiment mean mu ~ N(0, q sigma^2) (independently
per group for paired and two-sample designs), then data around it, then
runs the test.  Rather than materializing raw samples, trials draw the
exact sampling distributions of the sufficient statistics: the sample
mean is normal around mu and the sample variance is a scaled chi-square,
which is the same joint law at a fraction of the cost.

Reproducibility: trials are processed in fixed-size chunks and each
chunk gets its own counter-based generator derived from (seed, chunk
index), so a given (config, seed) produces bit-identical results
regardless of how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .distributional import (
    DistributionalNull,
    ExperimentDesign,
    degrees_of_freedom,
    dist_t_crit,
)
from .errors import DomainError
from .point import _check_alpha, _check_n

__all__ = [
    "SimConfig",
    "CalibrationReport",
    "simulate_fpr",
    "fpr_vs_n",
    "simulate_replication",
    "REPLICATION_VARIANTS",
]

_CHUNK = 1 << 14
# Chi-square via sums of squared normals up to this nu (exact and cheap);
# larger nu switches to the gamma representation behind the same interface.
_SUMSQ_NU_MAX = 64

REPLICATION_VARIANTS = ("shared_s", "independent_s")


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; ``sigma`` is arbitrary and must not matter."""

    design: ExperimentDesign
    n: int
    q_true: float
    sigma: float = 1.0
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not (self.q_true >= 0.0 and math.isfinite(self.q_true)):
            raise DomainError(f"q_true must be >= 0 and finite, got {self.q_true}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CalibrationReport:
    """Observed rate of a binary outcome, with its Monte-Carlo standard error."""

    rate: float
    mc_se: float
    trials: int


def _design_params(cfg: SimConfig) -> tuple[int, float, float, float]:
    """(nu, se, s_sigma, k) for the design.

    The observed statistic is t = M / (k S) where M is the mean estimate
    with standard error se, and S estimates s_sigma (sd of one-sample
    data, of pair differences, or the pooled per-group sd) via
    S^2 ~ s_sigma^2 chi^2_nu / nu.  In all three designs se = k s_sigma
    and the effect prior has sd sqrt(qN) * se, which is what makes
    t / sqrt(1 + qN) exactly t-distributed.
    """
    nu = int(degrees_of_freedom(cfg.design, cfg.n))
    if cfg.design is ExperimentDesign.TWO_SAMPLE_EQUAL_N:
        s_sigma = cfg.sigma
        k = math.sqrt(2.0 / cfg.n)
    elif cfg.design is ExperimentDesign.PAIRED:
        # differences of two equal-variance arms
        s_sigma = cfg.sigma * math.sqrt(2.0)
        k = 1.0 / math.sqrt(cfg.n)
    else:
        s_sigma = cfg.sigma
        k = 1.0 / math.sqrt(cfg.n)
    return nu, k * s_sigma, s_sigma, k


def _chi2_over_nu(rng: np.random.Generator, nu: int, size: int) -> np.ndarray:
    if nu <= _SUMSQ_NU_MAX:
        z = rng.standard_normal((size, nu))
        return np.square(z).sum(axis=1) / nu
    return 2.0 * rng.standard_gamma(0.5 * nu, size) / nu


def _rate(
    cfg: SimConfig, chunk_hits: Callable[[np.random.Generator, int], int]
) -> CalibrationReport:
    """Share of cfg.trials trials counted as hits by ``chunk_hits(rng, size)``.

    Chunk i of the trials draws from its own Philox generator keyed by
    (cfg.seed, i), so the result does not depend on chunk scheduling.
    """
    hits = 0
    for start in range(0, cfg.trials, _CHUNK):
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(start // _CHUNK,))
        size = min(_CHUNK, cfg.trials - start)
        hits += chunk_hits(np.random.Generator(np.random.Philox(ss)), size)
    rate = hits / cfg.trials
    return CalibrationReport(
        rate=rate, mc_se=math.sqrt(rate * (1.0 - rate) / cfg.trials), trials=cfg.trials
    )


def simulate_fpr(
    cfg: SimConfig, alpha: float, q_test: float, two_sided: bool = True
) -> CalibrationReport:
    """Rejection rate of the distributional test under the generative model.

    Each trial tests |t| >= dist_t_crit.  With ``two_sided=True`` (the
    default) the critical value uses the alpha/2 quantile, so the
    two-sided rejection event has probability alpha when q_test matches
    q_true: classical t-test calibration.  With ``two_sided=False`` the
    critical value is the single-tail one the closed forms print, under
    which the |t| event occurs at rate 2 alpha; that convention is
    coherent with the replication analysis, where the matching-sign
    restriction supplies the other factor of two.
    """
    _check_alpha(alpha)
    nu, se, s_sigma, k = _design_params(cfg)
    tail = 0.5 * alpha if two_sided else alpha
    crit = dist_t_crit(tail, nu, cfg.n, DistributionalNull(q_test))
    mu_sd = se * math.sqrt(cfg.q_true * cfg.n)

    def chunk_hits(rng: np.random.Generator, size: int) -> int:
        mu = mu_sd * rng.standard_normal(size)
        m = mu + se * rng.standard_normal(size)
        s = s_sigma * np.sqrt(_chi2_over_nu(rng, nu, size))
        t = m / (k * s)
        return int(np.count_nonzero(np.abs(t) >= crit))

    return _rate(cfg, chunk_hits)


def fpr_vs_n(
    cfg_base: SimConfig,
    alpha: float,
    n_list: list[int],
    q_test: float,
    two_sided: bool = True,
) -> list[tuple[int, CalibrationReport]]:
    """Rejection rate as a function of sample size, same scenario otherwise.

    Testing with q_test = 0 while q_true > 0 makes the rate climb with
    n: against a point-form null, enough participants buy significance.
    With q_test = q_true the rate stays flat at alpha.  Each n gets an
    independent substream derived from (seed, n), so results do not
    depend on the order or length of ``n_list``.
    """
    if not n_list:
        raise DomainError("n_list must be non-empty")
    out = []
    for n in n_list:
        child = np.random.SeedSequence(entropy=[cfg_base.seed, n])
        derived_seed = int(child.generate_state(1, np.uint64)[0])
        cfg = replace(cfg_base, n=n, seed=derived_seed)
        out.append((n, simulate_fpr(cfg, alpha, q_test, two_sided)))
    return out


def simulate_replication(
    t1: float, cfg: SimConfig, alpha: float, variant: str = "shared_s"
) -> CalibrationReport:
    """Rate at which an exact repeat is significant in the original direction.

    Each trial reconstructs the first experiment at the given t1: draw
    its sample sd S, back out the observed mean M1 = t1 * k * S, draw
    the true mean from the posterior given M1 (with q = cfg.q_true),
    then draw the repeat's mean and test it at the single-tail critical
    value with the sign restricted to match t1.

    ``variant="shared_s"`` scales the repeat statistic by the first
    experiment's S, the substitution under which the closed-form
    replication probability is exact; ``"independent_s"`` draws a fresh
    S2 for the repeat's denominator, the fully independent model the
    substitution approximates.  No closed form is claimed for the
    latter; the point of measuring it is to see the gap.
    """
    _check_alpha(alpha)
    if not math.isfinite(t1):
        raise DomainError(f"t1 must be finite, got {t1}")
    if variant not in REPLICATION_VARIANTS:
        raise DomainError(
            f"variant must be one of {REPLICATION_VARIANTS}, got {variant!r}"
        )
    nu, se, s_sigma, k = _design_params(cfg)
    null = DistributionalNull(cfg.q_true)
    crit = dist_t_crit(alpha, nu, cfg.n, null)
    qn = cfg.q_true * cfg.n
    shrinkage = qn / (1.0 + qn)
    post_sd = math.sqrt(shrinkage) * se
    sign = 1.0 if t1 >= 0.0 else -1.0

    def chunk_hits(rng: np.random.Generator, size: int) -> int:
        s1 = s_sigma * np.sqrt(_chi2_over_nu(rng, nu, size))
        m1 = t1 * k * s1
        mu = shrinkage * m1 + post_sd * rng.standard_normal(size)
        m2 = mu + se * rng.standard_normal(size)
        if variant == "shared_s":
            denom = k * s1
        else:
            denom = k * s_sigma * np.sqrt(_chi2_over_nu(rng, nu, size))
        t2 = m2 / denom
        return int(np.count_nonzero(sign * t2 >= crit))

    return _rate(cfg, chunk_hits)
