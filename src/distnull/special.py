"""Student-t and normal distribution functions.

Everything here reduces to the regularized incomplete beta function
I_x(a, b), evaluated with a continued fraction.  The t CDF uses the
identity

    T_nu(x) = 1 - I_w(nu/2, 1/2) / 2,   w = nu / (nu + x^2),  x >= 0

and symmetry for x < 0.  Quantiles invert the CDF with a safeguarded
Newton iteration.  Plain floats throughout; no external dependencies.
"""

from __future__ import annotations

import math

from .errors import DomainError, SolverFailure

__all__ = ["reg_inc_beta", "t_cdf", "t_quantile", "normal_cdf"]

# Continued fraction controls.  _CF_EPS is the relative convergence
# target; _CF_TINY floors near-zero denominators in the Lentz recurrence.
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz method.
    # Converges fast for x < (a + 1) / (a + b + 2); the caller guarantees
    # that by flipping arguments when needed.
    max_iter = 300 + int(10.0 * math.sqrt(max(a, b)))
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise SolverFailure(
        f"incomplete beta continued fraction stalled (a={a}, b={b}, x={x})"
    )


def _log_beta(a: float, b: float) -> float:
    # ln B(a, b); lgamma overflows once a or b passes about 2.5e305.
    try:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:
        raise DomainError(f"ln B(a, b) overflows at a={a}, b={b}") from None


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Monotone nondecreasing in x with I_0 = 0 and I_1 = 1.
    """
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    # Use the fraction directly where it converges fast, else via symmetry.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _check_nu(nu: float) -> float:
    if not (nu > 0.0 and math.isfinite(nu)):
        raise DomainError(f"degrees of freedom must be positive and finite, got {nu}")
    return float(nu)


def t_cdf(x: float, nu: float) -> float:
    """CDF of Student's t distribution with nu degrees of freedom."""
    nu = _check_nu(nu)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if x == 0.0:
        return 0.5
    w = nu / (nu + x * x)
    half_tail = 0.5 * reg_inc_beta(w, 0.5 * nu, 0.5)
    return 1.0 - half_tail if x > 0.0 else half_tail


def _t_pdf(x: float, nu: float) -> float:
    # Density of the t distribution; used as the Newton derivative.
    ln_norm = (
        math.lgamma(0.5 * (nu + 1.0))
        - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
    )
    return math.exp(ln_norm - 0.5 * (nu + 1.0) * math.log1p(x * x / nu))


def t_quantile(p: float, nu: float) -> float:
    """Inverse t CDF: the x with t_cdf(x, nu) = p.

    Antisymmetric about p = 1/2: t_quantile(1 - p) = -t_quantile(p).
    """
    nu = _check_nu(nu)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile is unbounded at p={p}; need 0 < p < 1")
    if p == 0.5:
        return 0.0
    # Solve on the upper half only, mirror afterwards.
    target = max(p, 1.0 - p)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, nu) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise SolverFailure(f"quantile bracket overflow at p={p}, nu={nu}")
    x = 0.5 * (lo + hi)
    # Newton with bisection fallback; the CDF is smooth and monotone, so
    # this converges long before the iteration cap.
    for _ in range(128):
        f = t_cdf(x, nu) - target
        if abs(f) <= 1e-15:
            break
        if f > 0.0:
            hi = x
        else:
            lo = x
        dens = _t_pdf(x, nu)
        step_ok = dens > 0.0
        if step_ok:
            x_new = x - f / dens
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    return x if p > 0.5 else -x


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
