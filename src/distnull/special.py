"""Student-t and normal distribution functions.

The t CDF takes every tail from one lower tail, T_nu(-|x|), and
T_nu(x) = 1 - T_nu(-x) for x > 0.  With q = x^2 / nu, w = 1 / (1 + q)
and z = q / (1 + q),

    T_nu(-|x|) = I_w(nu/2, 1/2) / 2 = 1/2 - I_z(1/2, nu/2) / 2,

where I is the regularized incomplete beta function.  Two methods split
the range of x.  Wherever ln(1 + q) <= 2 and u = (nu/2 - 1/4) ln(1 + q)
>= 0.2 (BGRAT's z in the code), I_w(nu/2, 1/2) is taken as DiDonato &
Morris's (1992, ACM TOMS Algorithm 708) bratio takes it for b <= 1: their
BGRAT series, an expansion about erfc(sqrt u), from nu = 30 on; below,
their BUP first lifts a = nu/2 by n whole steps to a + n >= 15,

    I_w(a, 1/2) = I_w(a + n, 1/2) + (n positive terms),

and BGRAT takes I_w(a + n, 1/2).  That band is empty below nu = 0.7.  A
continued fraction in w or in z, whichever converges fast, takes the
rest: past ln(1 + q) = 2, where the fraction takes only a few steps; and
below u = 0.2, near the median, where the fraction's z-form gives
1/2 - T itself and is the more accurate of the two.  Past nu = 2^74
(1.9e22) both take nu = 2^74: the tail moves by less than 3e-17 of
itself, and the fraction's products stay finite.

Quantiles invert the same lower tail by Newton in ln x on ln T, which is
concave, so the steps need no bracket.  They start from Hill's (1970,
CACM Algorithm 396) value; below nu = 1, where Hill's expansion does not
hold, the t's power-law tail gives the start instead.  Plain floats
throughout; no external dependencies.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, SolverFailure

__all__ = ["t_cdf", "t_quantile", "normal_cdf"]

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


def _check_nu(nu: float) -> float:
    if not (nu > 0.0 and math.isfinite(nu)):
        raise DomainError(f"degrees of freedom must be positive and finite, got {nu}")
    return float(nu)


def _log_beta_half(a: float) -> float:
    # ln B(a, 1/2): below a = 20 from Gamma(a) / Gamma(a + 1/2), good to a few
    # ulps, where lgamma(a) - lgamma(a + 1/2) keeps an ulp of numbers near 40
    # (1.6e-14 of B near a = 20); lgamma only where Gamma(a) nears overflow,
    # its pole at 0 being where nu = 5e-324 puts a.  From a = 20 the Stirling
    # series for ln Gamma(a) / Gamma(a + 1/2) is good to 3.4e-15, and does not
    # cancel or overflow.
    if 1e-300 < a < 20.0:
        return math.log(math.gamma(a) / math.gamma(a + 0.5) * math.sqrt(math.pi))
    if a < 20.0:
        try:
            return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
        except ValueError:
            raise DomainError(
                f"ln B(a, b) is infinite at a={a}, b=0.5: a shape underflowed to 0"
            ) from None
    r = 1.0 / (a * a)
    return 0.5 * math.log(math.pi / a) + (
        ((-17.0 / 14336.0 * r + 1.0 / 640.0) * r - 1.0 / 192.0) * r + 0.125
    ) / a


def _bgrat_d() -> tuple[tuple[float, float, float], ...]:
    # d_1 .. d_30 of the BGRAT series at b = 1/2, by DiDonato & Morris's
    # recurrence, each with the constants h = 2n + 1/2 and h (h + 1) of the
    # step to J_(n+1), n = 0 .. 29; the band that uses them needs at most
    # 16 (at nu = 30 and ln(1 + q) = 2).
    c = [1.0 / math.factorial(2 * n + 1) for n in range(1, 31)]
    d: list[float] = []
    for n in range(1, 31):
        s = sum((0.5 * i - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append(-0.5 * c[n - 1] + s / n)
    return tuple((d_n, 2 * n + 0.5, (2 * n + 0.5) * (2 * n + 1.5)) for n, d_n in enumerate(d))


_BGRAT_D = _bgrat_d()
# BGRAT gives T, so near the median 1/2 - T carries T's error and the lower
# tail can pass 1/2; below _BGRAT_Z_MIN the fraction's z-form, which gives
# 1/2 - T itself, is the more accurate for both.
_BGRAT_Z_MIN = 0.2
# nu is clamped to C = 2^74.  For nu > C, T_nu and T_C differ by at most
# (x^2 + 1)^2 / (4 C) of the tail to first order, 2.9e-17 over |x| <= 38.6,
# where the tail is a nonzero float; x / C is exact.  Far above C the
# fraction's products overflow, and its step cap, 10 sqrt(a), reaches 1e154.
_NU_MAX = 2.0**74
# BGRAT's least a: from nu = 30 on it runs alone, below after BUP's shift.
_BGRAT_A = 15.0


def _bgrat_half(a: float, z: float, ln_1q: float, ln_beta: float, head: float = 0.0) -> float:
    # head + I_w(a, 1/2) / 2 for w = 1 / (1 + q), a >= 15, ln(1 + q) <= 2 and
    # z > 0, z = (a - 1/4) ln(1 + q), ln_beta = ln B(a, 1/2): DiDonato & Morris
    # (1992, ACM TOMS Algorithm 708) BGRAT, Temme's series about the incomplete
    # gamma Q(1/2, z) = erfc(sqrt z), with its terms J_n scaled by
    # r = e^-z sqrt(z / pi).  The series stops relative to the whole sum, so
    # after BUP's head it takes fewer terms.
    nu = a - 0.25
    y = math.sqrt(z)
    r = math.exp(-z) * math.sqrt(z / math.pi)
    if r == 0.0:
        return 0.0  # past z = 745 the tail is below the smallest float
    # erfc(y) moves by 2z times y's rounding error: add back z - y^2, from
    # Dekker's exact square of y.
    c = 134217729.0 * y
    hi = c - (c - y)
    lo = y - hi
    yy = y * y
    gam_q = math.erfc(y) - r * ((z - yy) - ((hi * hi - yy) + 2.0 * hi * lo + lo * lo)) / z
    v = 0.25 / (nu * nu)
    t2 = 0.25 * ln_1q * ln_1q
    scale = 0.5 * math.sqrt(math.pi / nu) * math.exp(-ln_beta) * r
    j = gam_q / r
    s = head / scale + j
    t = 1.0
    for d, h, hh in _BGRAT_D:
        j = (hh * j + (z + h + 1.0) * t) * v
        t *= t2
        dj = d * j
        s += dj
        if abs(dj) <= 1e-16 * s:
            break
    return scale * s


def _t_tail(x: float, nu: float) -> float:
    # T_nu(-|x|) for finite x != 0, through the logs of w and z (see the
    # module docstring): x^2 and 1 - w are never formed.
    x = abs(x)
    nu = min(nu, _NU_MAX)
    q = x * (x / nu)
    ln_q = 2.0 * math.log(x) - math.log(nu)  # finite where q over- or underflows
    ln_1q = math.log1p(q) if q < math.inf else ln_q
    a = 0.5 * nu
    z = (a - 0.25) * ln_1q  # BGRAT's variable, not the z of I_z
    ln_beta = _log_beta_half(a)
    band = ln_1q <= 2.0 and z >= _BGRAT_Z_MIN
    if band and a >= _BGRAT_A:
        return _bgrat_half(a, z, ln_1q, ln_beta)
    # ln(q / (1 + q)): from 1/q where q >= 1, as ln q - ln(1 + q) cancels
    # there; below, 1/q can overflow.
    ln_z = -math.log1p(1.0 / q) if q >= 1.0 else ln_q - ln_1q
    front = math.exp(0.5 * ln_z - a * ln_1q - ln_beta)
    w = 1.0 / (1.0 + q)
    if band:
        # BUP: I_w(a, 1/2) = I_w(b, 1/2) + sum_{i<n} T_i, b = a + n >= _BGRAT_A,
        # T_0 = front / a, T_(i+1) = T_i w (a + i + 1/2) / (a + i + 1).  Every
        # term is positive.  T_n = w^b sqrt(1 - w) / (b B(b, 1/2)) gives BGRAT
        # its ln B(b, 1/2).
        t = front / a
        s = 0.0
        b = a
        while b < _BGRAT_A:
            s += t
            t *= w * (b + 0.5) / (b + 1.0)
            b += 1.0
        ln_beta = 0.5 * ln_z - b * ln_1q - math.log(b * t)
        return _bgrat_half(b, (b - 0.25) * ln_1q, ln_1q, ln_beta, 0.5 * s)
    if w < (a + 1.0) / (a + 2.5):
        # Where front underflows the tail is 0: skip the fraction, which at
        # huge a can stall one rounding short of converging.
        return 0.5 * front * _betacf(a, 0.5, w) / a if front else 0.0
    return 0.5 - front * _betacf(0.5, a, q / (1.0 + q))


def t_cdf(x: float, nu: float) -> float:
    """CDF of Student's t distribution with nu degrees of freedom."""
    nu = _check_nu(nu)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if x == 0.0:
        return 0.5
    tail = _t_tail(x, nu)
    return 1.0 - tail if x > 0.0 else tail


# Largest x whose square is finite, the end of t_quantile's range.
_X_SQ_MAX = math.sqrt(sys.float_info.max)


def _normal_upper_quantile(tail: float) -> float:
    # The z with 1 - Phi(z) = tail, for 0 < tail <= 1/2: Abramowitz &
    # Stegun 26.2.23 (error below 4.5e-4), then two Newton steps on
    # erfc, which cost far less than the t tail evaluations they save.
    t = math.sqrt(-2.0 * math.log(tail))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    for _ in range(2):
        dens = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        z += (0.5 * math.erfc(z / math.sqrt(2.0)) - tail) / dens
    return z


def _hill_start(tail: float, nu: float) -> float:
    # Hill (1970), CACM Algorithm 396: the x > 0 with 1 - T_nu(x) = tail,
    # approximately, for nu >= 1.  Exact at nu = 1 and nu = 2.
    if nu == 1.0:
        return 1.0 / math.tan(math.pi * tail)
    if nu == 2.0:
        return (1.0 - 2.0 * tail) / math.sqrt(2.0 * tail * (1.0 - tail))
    big_p = 2.0 * tail  # two-sided tail probability
    a = 1.0 / (nu - 0.5)
    # 48 / a^2, written so that it overflows to inf instead of dividing
    # by an underflowed a^2 at huge nu.
    b = 48.0 * (nu - 0.5) * (nu - 0.5)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * nu
    y = (d * big_p) ** (2.0 / nu)
    if y > 0.05 + a or (nu < 2.1 and big_p > 0.5):
        # Expansion about the normal quantile; the far-tail series below
        # is off by a factor of up to 7e3 near p = 1/2 when nu is just above 1.
        x = -_normal_upper_quantile(tail)
        if nu < 5.0:
            c += 0.3 * (nu - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * x * x + 6.3) * x * x + 36.0) * x * x + 94.5) / c
              - x * x - 3.0) / b + 1.0) * x
        # nu expm1(a y^2) is y^2 where a y^2 underflows (nu past 1e300).
        return math.sqrt(nu * math.expm1(a * y * y)) or abs(y)
    elif y > 0.0:
        # Far tail: series in y = (d * P)^(2 / nu).
        y = ((1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822)
                     * (nu + 2.0) * 3.0) + 0.5 / (nu + 4.0)) * y - 1.0) * (
            nu + 1.0) / (nu + 2.0) + 1.0 / y
    else:
        return math.inf  # y underflowed: the quantile is past 1e154
    return math.sqrt(nu * y)


def t_quantile(p: float, nu: float) -> float:
    """Inverse t CDF: the x with t_cdf(x, nu) = p.

    Solves T_nu(-|x|) = min(p, 1 - p), so tail probabilities keep their
    relative accuracy, and mirrors: t_quantile(1 - p) = -t_quantile(p).
    Raises DomainError when |x| is so large that x^2 overflows.
    """
    nu = _check_nu(nu)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile is unbounded at p={p}; need 0 < p < 1")
    if p == 0.5:
        return 0.0
    tail = min(p, 1.0 - p)
    ln_tail = math.log(tail)
    ln_nu = math.log(nu)
    ln_beta = _log_beta_half(0.5 * nu)
    # The t density is exp(ln_f0 - (nu + 1)/2 ln(1 + x^2/nu)).
    ln_f0 = -ln_beta - 0.5 * ln_nu
    if nu >= 1.0:
        x = _hill_start(tail, nu)
    else:
        # Hill's expansion needs nu >= 1.  Below it, where x^2 < nu, start
        # from the line 1/2 - f(0) x: it lies below T_nu(-x), so x0 is at or
        # below the root, and on it where T is linear in x.  Elsewhere start
        # from the power law T_nu(-x) ~ nu^(nu/2 - 1) x^-nu / B(nu/2, 1/2),
        # which lies above the tail for every x > 0 (near the median it can
        # be 1e16 times the root, and each step divides x by about e).
        x = (0.5 - tail) * math.exp(-ln_f0)
        if x * x >= nu:
            ln_x = ((0.5 * nu - 1.0) * ln_nu - ln_beta - ln_tail) / nu
            x = math.exp(ln_x) if ln_x < math.log(_X_SQ_MAX) else math.inf
    if not x < _X_SQ_MAX:
        raise DomainError(f"quantile beyond the float range at nu={nu}, p={p}")
    # Newton in v = ln x on g(v) = ln(T_nu(-x) / tail): g falls and is
    # concave (x f(x) / T_nu(-x) rises with x), so the first step lands at
    # or above the root and every later step falls to it.  It stops on
    # |step| <= 1e-8, or on |g| <= 1e-12, which can hold near the median
    # (x f / T about 2 f(0) x) while the step is large; the last step, x (1
    # + step), is exact where T is linear in x.  A later step that does not
    # fall is T's rounding, only larger than those stops on the subnormal grid.
    for i in range(64):
        t = _t_tail(x, nu)
        g = math.log1p((t - tail) / tail)  # t - tail is exact near the root
        ln_x = math.log(x)
        q = x * (x / nu)
        ln_1q = math.log1p(q) if q < math.inf else 2.0 * ln_x - ln_nu
        # g over the elasticity x f(x) / t, in logs: f(x) underflows in deep tails.
        step = g * math.exp(math.log(t) - ln_x - ln_f0 + 0.5 * (nu + 1.0) * ln_1q)
        if abs(g) <= 1e-12 or abs(step) <= 1e-8:
            return math.copysign(x + x * step, p - 0.5)
        if i and step >= 0.0:
            if abs(t - tail) <= 1e-12 * tail + 2e-323:
                return math.copysign(x, p - 0.5)
            break
        x += x * math.expm1(step)
    raise SolverFailure(
        f"t quantile did not converge at p={p}, nu={nu}: last x {x}, "
        f"step {step:.3g}, residual ln(T/tail) {g:.3g}"
    )


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
