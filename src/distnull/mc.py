"""Seeded Monte-Carlo verification of the analytic results.

Simulates the generative model behind the distributional null: each
trial draws a per-experiment mean mu ~ N(0, q sigma^2) (independently
per group for paired and two-sample designs), then data around it, then
runs the test.  Rather than materializing raw samples, trials draw the
standardized statistic: a normal over the root of an independent
chi^2_nu / nu, the same law as the raw data's t at a fraction of the
cost.  sigma cancels from it; the design enters only through nu and N.

Reproducibility: trials are processed in fixed-size chunks and each
chunk gets its own counter-based generator derived from (seed, chunk
index), so a given (config, seed) produces bit-identical results
regardless of how chunks are scheduled.  The chunks of one call run on
one thread per usable CPU (never more threads than chunks), and the hit
counts are summed as integers, so results do not depend on the CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .distributional import (
    DistributionalNull,
    ExperimentDesign,
    _shrinkage,
    degrees_of_freedom,
    dist_t_crit,
)
from .errors import DomainError
from .point import _check_alpha, _check_n, _check_t1, _qn, _t_alpha, _t_crit_u

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
# Normals for the sum of squares are drawn this many rows at a time, so a
# chunk holds a (_ROWS, nu) block instead of a (_CHUNK, nu) array.
_ROWS = 1 << 10

REPLICATION_VARIANTS = ("shared_s", "independent_s")


@dataclass(frozen=True)
class SimConfig:
    """One scenario; trials draw the standardized t, so only nu and n carry the design."""

    design: ExperimentDesign
    n: int
    q_true: float
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        degrees_of_freedom(self.design, self.n)
        if not (self.q_true >= 0.0 and math.isfinite(self.q_true)):
            raise DomainError(f"q_true must be >= 0 and finite, got {self.q_true}")
        _qn(self.q_true, self.n, "q_true")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CalibrationReport:
    """Observed rate of a binary outcome, with its Monte-Carlo standard error."""

    rate: float
    mc_se: float
    trials: int


def _chi2_over_nu(rng: np.random.Generator, nu: int, size: int) -> np.ndarray:
    if nu > _SUMSQ_NU_MAX:
        return 2.0 * rng.standard_gamma(0.5 * nu, size) / nu
    # Consecutive blocks continue one stream and each row is summed alone,
    # so the values equal one (size, nu) draw bit for bit.
    sums = np.empty(size)
    for start in range(0, size, _ROWS):
        z = rng.standard_normal((min(_ROWS, size - start), nu))
        np.square(z, out=z)
        z.sum(axis=1, out=sums[start : start + len(z)])
    return sums / nu


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _rate(
    cfg: SimConfig, chunk_hits: Callable[[np.random.Generator, int], int]
) -> CalibrationReport:
    """Share of cfg.trials trials counted as hits by ``chunk_hits(rng, size)``.

    Chunk i of the trials draws from its own Philox generator keyed by
    (cfg.seed, i), so the result does not depend on chunk scheduling.
    The chunks are handed out one at a time to min(chunks, usable CPUs)
    threads, the caller's included, so a one-chunk call starts no thread.
    An exception in any chunk, or an interrupt of the caller, stops the
    handing out and is raised here once every thread has finished.
    """
    n_chunks = -(-cfg.trials // _CHUNK)
    chunks = iter(range(n_chunks))
    lock = threading.Lock()
    stop = threading.Event()
    counts: list[int] = []
    errors: list[BaseException] = []

    def work() -> None:
        hits = 0
        try:
            while not stop.is_set():
                with lock:
                    i = next(chunks, None)
                if i is None:
                    break
                ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,))
                size = min(_CHUNK, cfg.trials - i * _CHUNK)
                hits += chunk_hits(np.random.Generator(np.random.Philox(ss)), size)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)
            stop.set()
        counts.append(hits)

    threads = [
        threading.Thread(target=work, name=f"distnull-mc-{k}")
        for k in range(1, min(n_chunks, _usable_cpus()))
    ]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        stop.set()
        for thread in threads:
            if thread.is_alive():  # false for one that failed to start
                thread.join()
    if errors:
        raise errors[0]
    rate = sum(counts) / cfg.trials
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
    nu = int(degrees_of_freedom(cfg.design, cfg.n))
    tail = 0.5 * alpha if two_sided else alpha
    crit = dist_t_crit(tail, nu, cfg.n, DistributionalNull(q_test))
    mu_sd = math.sqrt(cfg.q_true * cfg.n)

    def chunk_hits(rng: np.random.Generator, size: int) -> int:
        # The raw t = M / (k S): M is the mean estimate with standard error se,
        # S^2 ~ s_sigma^2 chi^2_nu / nu estimates s_sigma (sd of one-sample data,
        # of pair differences, or pooled per group).  In all three designs
        # se = k s_sigma and the prior sd is sqrt(qN) se, so M and k S over se
        # give this draw: the same law, with no scale left in it.
        m = mu_sd * rng.standard_normal(size) + rng.standard_normal(size)
        t = m / np.sqrt(_chi2_over_nu(rng, nu, size))
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
        child = np.random.SeedSequence(entropy=[cfg_base.seed, _check_n(n)])
        derived_seed = int(child.generate_state(1, np.uint64)[0])
        cfg = replace(cfg_base, n=n, seed=derived_seed)
        out.append((n, simulate_fpr(cfg, alpha, q_test, two_sided)))
    return out


def simulate_replication(
    t1: float, cfg: SimConfig, alpha: float, variant: str = "shared_s"
) -> CalibrationReport:
    """Rate at which an exact repeat is significant in the original direction.

    Each trial reconstructs the first experiment at the given t1, in
    units of the mean's standard error: draw its standardized sample sd
    s1 = sqrt(chi^2_nu / nu), back out the observed mean t1 * s1, draw
    the true mean from the posterior given it (with q = cfg.q_true),
    then draw the repeat's mean and test it at the single-tail critical
    value with the sign restricted to match t1.

    ``variant="shared_s"`` scales the repeat statistic by the first
    experiment's s1, the substitution under which the closed-form
    replication probability is exact; ``"independent_s"`` draws a fresh
    s2 for the repeat's denominator, the fully independent model the
    substitution approximates.  No closed form is claimed for the
    latter; the point of measuring it is to see the gap.
    """
    _check_t1(t1)
    if variant not in REPLICATION_VARIANTS:
        raise DomainError(
            f"variant must be one of {REPLICATION_VARIANTS}, got {variant!r}"
        )
    nu = int(degrees_of_freedom(cfg.design, cfg.n))
    u = cfg.q_true * cfg.n  # checked by SimConfig
    crit = _t_crit_u(_t_alpha(alpha, nu), u)
    shrinkage = _shrinkage(u)
    post_sd = math.sqrt(shrinkage)
    sign = 1.0 if t1 >= 0.0 else -1.0

    def chunk_hits(rng: np.random.Generator, size: int) -> int:
        # everything in units of se, as in simulate_fpr
        s1 = np.sqrt(_chi2_over_nu(rng, nu, size))
        # a huge t1 overflows to inf with its own sign: a hit, as it should be
        with np.errstate(over="ignore"):
            mu = shrinkage * t1 * s1 + post_sd * rng.standard_normal(size)
            m2 = mu + rng.standard_normal(size)
            denom = s1 if variant == "shared_s" else np.sqrt(_chi2_over_nu(rng, nu, size))
            return int(np.count_nonzero(sign * m2 / denom >= crit))

    return _rate(cfg, chunk_hits)
