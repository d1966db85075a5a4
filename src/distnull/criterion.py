"""The joint significance-and-replication criterion.

A result t1 counts as "real" at levels (alpha, beta) under a variance
ratio q when it is significant, |t1| >= t_crit, and an exact repeat
would come out significant in the same direction with probability at
least beta, |t1| >= t_rep.  Both thresholds depend on q only through
u = qN, and their maximum

    R_q = max(t_rep, t_crit)

has a convex logarithm in ln u: it blows up as q -> 0 (replication of a
significant result under a near-point null is pure luck) and grows like
sqrt(1 + qN) for large q.  R has one evaluation: it neither cancels for beta
near alpha nor overflows below u's ceiling.  Its minimum is a closed-form
kink where t_rep falls to t_crit, or else t_rep's stationary point, found by
Newton.  Newton in ln u from either side of it finds the crossings of R with
|t1|: the q-range [q1, q2] over which a result meets both criteria; gamma =
q2 measures how much cross-experiment variability a result can tolerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, SolverFailure
from .point import _check_alpha, _check_n, _check_t1, _qn, _t_alpha, _t_crit_u
from .special import t_cdf, t_quantile

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Criteria",
    "JointCriterionResult",
    "QInterval",
    "NoSolution",
    "RuleOfThumb",
    "t_rep",
    "r_crit",
    "r_curve",
    "rule_of_thumb",
    "minimize_r",
    "q_interval",
]

# max(t_rep, t_crit) at its minimum for beta = 0.5, divided by the
# significance quantile: (1 + 1/2) sqrt(3) at u = 2.
THUMB_RATIO = 1.5 * math.sqrt(3.0)


@dataclass(frozen=True)
class Criteria:
    """Significance level alpha and replication level beta, beta > alpha."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not (self.alpha < self.beta < 1.0):
            raise DomainError(
                f"beta must lie in (alpha, 1), got beta={self.beta} with alpha={self.alpha}"
            )


@dataclass(frozen=True)
class JointCriterionResult:
    t_rep: float
    t_crit: float
    r_q: float
    q: float


@dataclass(frozen=True)
class QInterval:
    """The q-range over which a result meets both criteria.

    ``gamma`` is q2, or the search ceiling when ``q2_censored`` is set
    (the true q2 lies beyond the ceiling).
    """

    q1: float
    q2: float
    gamma: float
    r_min: float
    q_at_min: float
    q2_censored: bool = False


@dataclass(frozen=True)
class NoSolution:
    """|t1| is below the minimum of R_q: no q meets both criteria."""

    r_min: float
    q_at_min: float


class RuleOfThumb(NamedTuple):
    t_bound: float
    p_threshold: float


def _quantiles(criteria: Criteria, nu: float) -> tuple[float, float]:
    # The whole curve is arithmetic in these two constants.  beta > alpha
    # gives a + b > 0, on which q_interval's left bracket rests; rounding
    # breaks it for beta within ulps of alpha or a nu that saturates both.
    a, b = _t_alpha(criteria.alpha, nu), t_quantile(criteria.beta, nu)
    if not a + b > 0.0:
        raise DomainError(f"beta={criteria.beta} is too close to alpha at nu={nu}")
    return a, b


def _rep_terms(a: float, b: float, u: float, sqrt=math.sqrt) -> tuple[float, float, float]:
    # t_rep = (1 + 1/u)(a sqrt(1 + u) + b sqrt((1 + 2u)/(1 + u))) = sqrt(1 + u) m / w, where
    # w = u/(1 + u), s = sqrt(1 + 2u)/(1 + u) and m = a + b s = a w t_rep/t_crit > 0 never
    # overflow; for b < 0, m = a + b - b w^2/(1 + s), as a + b s would cancel where b ~ -a.
    w = u / (1.0 + u)
    s = sqrt((1.0 + w) / (1.0 + u))
    m = a + b * s if b >= 0.0 else a + b - b * w * w / (1.0 + s)
    return w, s, m


def _t_rep_u(a: float, b: float, u: float, sqrt=math.sqrt) -> float:
    w, _, m = _rep_terms(a, b, u, sqrt)
    return sqrt(1.0 + u) * (m / w)


def _r_u(a: float, b: float, u: float) -> float:
    return max(_t_rep_u(a, b, u), _t_crit_u(a, u))


def _check_q_positive(q: float) -> float:
    if not (q > 0.0 and math.isfinite(q)):
        raise DomainError(f"q must be positive and finite (t_rep diverges at q=0), got {q}")
    return float(q)


def t_rep(criteria: Criteria, nu: float, n: int, q: float) -> float:
    """Critical |t1| for the replication criterion p_r >= beta:

        t_rep = (1 + 1/(qN)) (t_crit + T_nu^{-1}(beta) sqrt((1 + 2qN)/(1 + qN)))

    Diverges as q -> 0 and, through t_crit, as qN -> infinity.
    """
    return r_crit(criteria, nu, n, q).t_rep


def r_crit(criteria: Criteria, nu: float, n: int, q: float) -> JointCriterionResult:
    """Both thresholds and their maximum R_q at a single q."""
    _check_q_positive(q)
    a, b = _quantiles(criteria, nu)
    u = _qn(q, n)
    rep = _t_rep_u(a, b, u)
    crit = _t_crit_u(a, u)
    return JointCriterionResult(t_rep=rep, t_crit=crit, r_q=max(rep, crit), q=q)


def r_curve(criteria: Criteria, nu: float, n: int, q: np.ndarray) -> np.ndarray:
    """``r_crit(...).r_q`` at each q of an array, bit for bit, with the same checks and messages."""
    import numpy as np

    q = np.asarray(q, dtype=float)
    a, b = _quantiles(criteria, nu)
    with np.errstate(over="ignore"):  # a qN past the float range fails the check below
        u = q * float(_check_n(n))
    if not (ok := (q > 0.0) & (u < math.inf)).all():  # the first bad q raises as in r_crit
        _qn(_check_q_positive(q[~ok][0]), n)
    return np.asarray(np.maximum(_t_rep_u(a, b, u, np.sqrt), _t_crit_u(a, u, np.sqrt)), order="C")


def rule_of_thumb(alpha: float, nu: float) -> RuleOfThumb:
    """q-free lower bound on the joint criterion at beta = 0.5.

    Whatever q is, R_q >= T_nu^{-1}(1 - alpha) * (3 sqrt(3) / 2), so a
    result whose one-tail p-value exceeds ``p_threshold``, the tail
    probability at that bound, meets the joint criterion for no q at
    all.  Roughly 0.0005 at nu = 10 and 0.00005 at nu = 40 for
    alpha = 0.05: far stricter than significance alone.
    """
    t_bound = _t_alpha(alpha, nu) * THUMB_RATIO
    return RuleOfThumb(t_bound=t_bound, p_threshold=t_cdf(-t_bound, nu))


def minimize_r(criteria: Criteria, nu: float, n: int) -> tuple[float, float]:
    """Locate the minimum of R_q: returns (q_at_min, r_min).

    With a = T_nu^{-1}(1 - alpha) and b = T_nu^{-1}(beta), it is the kink
    t_rep = t_crit at qN = (a + b)(a - b) / (2 b^2) when b < 0 and a^2 <=
    (3 + sqrt 17) b^2 / 2, else t_rep's stationary point, found by Newton with
    no search window: qN = 2 and r_min = (3 sqrt(3) / 2) a at beta = 0.5.
    """
    u_min, r_min = _minimize_r(*_quantiles(criteria, nu))
    return u_min / _check_n(n), r_min


def _minimize_r(a: float, b: float) -> tuple[float, float]:
    # (u_min, r_min).  With s = sqrt(1 + 2u), t_rep - t_crit has the sign of
    # a + b s: for b < 0, R = t_crit (rising) past the kink s = -a/b, which is
    # the minimum while t_rep still falls there, h(-a/b) <= 0 (h as below).
    if b < 0.0 and (a / b) * (a / b) <= 0.5 * (3.0 + math.sqrt(17.0)):
        u = 0.5 * ((a + b) / b) * ((a - b) / b)  # ((a/b)^2 - 1) / 2, uncancelled
        return u, _t_crit_u(a, u)
    # Else d ln t_rep / ds = 0: h(s) = s (s^2 - 5)(s^2 + 1) - 2c (3s^2 + 1) = 0, c = b / a.
    # h is convex and rising past its one root above s = 1: Newton from h(s0) >= 0 descends.
    c = b / a
    s = math.sqrt(5.0) + 2.0 * max(c, 0.0) ** (1.0 / 3.0)
    for _ in range(50):
        s2 = s * s
        h = s * (s2 - 5.0) * (s2 + 1.0) - 2.0 * c * (3.0 * s2 + 1.0)
        step = h / ((5.0 * s2 - 12.0) * s2 - 5.0 - 12.0 * c * s)
        s -= step
        if abs(step) <= 1e-12 * s:
            u = 0.5 * (s - 1.0) * (s + 1.0)
            return u, _r_u(a, b, u)
    raise SolverFailure(f"minimum of R not found for a={a}, b={b}: s={s}, last step {step:.3g}")


def q_interval(
    t1: float,
    criteria: Criteria,
    nu: float,
    n: int,
    q_ceiling: float = 1e3,
) -> QInterval | NoSolution:
    """Invert R_q: the q-range [q1, q2] over which |t1| >= R_q.

    Newton in ln u finds each endpoint from outside it: q1 from
    qN = (a + b) / (2|t1|), q2 from the ceiling.  Returns ``NoSolution``
    when |t1| < r_min (the result meets the joint criterion for no q).
    When R at the ceiling is still below |t1| the upper endpoint is
    right-censored at ``q_ceiling`` and flagged, since q2 can be genuinely
    unbounded for large results.  A ceiling below q1 raises ``DomainError``.
    """
    if not (q_ceiling > 0.0 and math.isfinite(q_ceiling)):
        raise DomainError(f"q_ceiling must be positive and finite, got {q_ceiling}")
    u_ceiling = _qn(q_ceiling, n, "q_ceiling")
    t_abs = abs(_check_t1(t1))
    a, b = _quantiles(criteria, nu)
    u_min, r_min = _minimize_r(a, b)
    if t_abs < r_min:
        return NoSolution(r_min=r_min, q_at_min=u_min / n)
    ln_a_t = math.log(a / t_abs) if a / t_abs > 1e-300 else math.log(a) - math.log(t_abs)

    def root(side: str, u: float) -> float:
        # Newton in v = ln u on f = ln(R / |t1|) from u, where f >= 0: ln R is convex in v,
        # so no step passes the root (the clamp to [lo, hi] only holds back rounding).
        lo, hi = sorted((u, u_min))
        for _ in range(100):
            w, s, m = _rep_terms(a, b, u)
            gap = math.log(m / a) - math.log(w)
            f = 0.5 * math.log1p(u) + max(gap, 0.0) + ln_a_t
            slope = 0.5 * w + (w * (a + b * s / (1.0 + w)) / m - 1.0 if gap > 0.0 else 0.0)
            if f <= 0.0 or (u - u_min) * slope <= 0.0:  # on the root, or at the minimum
                break
            step = f / slope
            u = min(max(u * math.exp(-step), lo), hi)
            if abs(step) <= 1e-12:
                break
        if abs(f) > 1e-8:
            raise SolverFailure(
                f"{side} root tolerance not met for t1={t1}: bracket "
                f"[{lo}, {hi}] in u, residual ln(R/|t1|) = {f:.3g}"
            )
        return u

    # Left root: u t_rep(u) >= a + b for every u, so R >= 2|t1| at u = (a + b) / (2|t1|),
    # left of u_min.  If that u underflows, so does the root; the residual check says so.
    u1 = root("left", max(0.5 * (a + b) / t_abs, math.ulp(0.0)))
    if u_ceiling < u1:
        raise DomainError(f"q_ceiling={q_ceiling} lies below q1={u1 / n}")
    censored = u_ceiling <= u_min or _r_u(a, b, u_ceiling) < t_abs
    q2 = q_ceiling if censored else root("right", u_ceiling) / n

    return QInterval(
        q1=u1 / n,
        q2=q2,
        gamma=q2,
        r_min=r_min,
        q_at_min=u_min / n,
        q2_censored=censored,
    )
