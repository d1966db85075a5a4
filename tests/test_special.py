"""Special-function checks against closed forms and frozen reference values."""

import decimal
import math
import random
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from distnull import special
from distnull.errors import DomainError, SolverFailure
from distnull.special import normal_cdf, t_cdf, t_quantile

# Reference quantiles computed once with an independent implementation
# (scipy.stats.t.ppf) and frozen.
T_PPF_95_NU10 = 1.8124611228107335
T_PPF_95_NU19 = 1.729132811521367
NORM_PPF_975 = 1.959963984540054

# nu -> scipy.special.stdtrit(nu, p) for each p in T_PPF_PS, frozen.
T_PPF_PS = (0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)
T_PPF_GRID = {
    0.5: (0.3979754267847907, 1.5537739740300383, 10.27032441023451, 41.13600009287819,
          164.55767348048818, 1028.4910104716198, 4113.964588804174, 102849.11563017538),
    1.0: (0.32491969623290634, 1.0000000000000002, 3.0776835371752544, 6.313751514675037,
          12.706204736174694, 31.820515953773935, 63.656741162871526, 318.30883898555015),
    1.5: (0.30074539256979543, 0.8725946625415716, 2.1963984175655376, 3.70518082009675,
          6.016663104427929, 11.197316179568393, 17.820310514462804, 52.18443000899263),
    2.0: (0.2886751345948128, 0.8164965809277261, 1.8856180831641272, 2.9199855803537242,
          4.302652729749462, 6.9645567342832715, 9.924843200918287, 22.327124770119866),
    3.0: (0.2766706623326898, 0.7648923284043444, 1.637744353696209, 2.3533634348018233,
          3.1824463052837078, 4.540702858568132, 5.840909309733355, 10.214531852407383),
    5.0: (0.2671808657041451, 0.7266868438004226, 1.4758840488244815, 2.0150483733330233,
          2.5705818356363146, 3.3649299989072174, 4.032142983555228, 5.893429531356009),
    10.0: (0.2601848294920803, 0.6998120613124317, 1.372183641110336, 1.8124611228116756,
           2.228138851986274, 2.7637694581126957, 3.16927267261695, 4.143700494046589),
    19.0: (0.25692281979615467, 0.6876214602039602, 1.3277282090267986, 1.7291328115213682,
           2.0930240544083087, 2.5394831906239625, 2.8609346064649794, 3.5794001489547154),
    30.0: (0.2556053649519128, 0.6827556933212927, 1.3104150253913955, 1.697260886593957,
           2.0422724563012378, 2.457261542400591, 2.7499956535672254, 3.3851848668293045),
    100.0: (0.25402218245822766, 0.6769510430114717, 1.290074761346516, 1.6602343260853392,
            1.9839715185235518, 2.3642173662384813, 2.6258905214380173, 3.173739493738783),
    1e3: (0.25341451583949876, 0.6747351646070093, 1.2823987214609247, 1.6463788172854643,
          1.9623390808264083, 2.330082674755513, 2.580754698065951, 3.0984021639129233),
    1e4: (0.253353843445727, 0.6745142844835927, 1.2816362297304775, 1.645006018069243,
          1.960201239890626, 2.3267208386694755, 2.5763210466685282, 3.091047516030612),
    1e5: (0.25334777715718015, 0.674492203553292, 1.2815600314493614, 1.6448688647849696,
          1.9599877075346095, 2.326385165355268, 2.575878469908375, 3.0903138094272378),
}

# (x, nu) -> scipy.special.stdtr(nu, x): t tails down to 1e-300 for nu from
# 1e-3 to 1e15, frozen.
T_TAIL_TABLE = [
    (-2.0, 0.001, 0.49758593474085805), (-1e+100, 0.001, 0.39552064090377886),
    (-10.0, 0.1, 0.3315282881374891), (-1e+100, 0.1, 4.1738031371732114e-11),
    (-10000000000.0, 0.5, 3.207009754142229e-06), (-1e+100, 0.5, 3.207009754142229e-51),
    (-1000.0, 1.0, 0.0003183097800805589), (-1e+100, 1.0, 3.183098861837907e-101),
    (-10.0, 2.5, 0.0022207478836537117), (-1e+100, 2.5, 7.193397190831724e-251),
    (-37.0, 10.0, 2.4749454826985557e-12), (-10000000000.0, 10.0, 1.2304687500000003e-96),
    (-10.0, 100.0, 4.950844492297065e-17), (-1000.0, 100.0, 3.9598093039739577e-202),
    (-20.0, 1000.0, 2.0311442497624087e-75), (-37.0, 1000.0, 8.650394404956431e-190),
    (-6.0, 9999.0, 1.0208127094257962e-09), (-37.0, 9999.0, 2.8224463094750524e-281),
    (-10.0, 10000.0, 9.81640371433191e-24), (-37.0, 10000.0, 2.8113156176397984e-281),
    (-20.0, 35000.0, 8.609070884315786e-89), (-37.0, 35000.0, 2.7083104979298017e-294),
    (-6.0, 100000.0, 9.899647278008859e-10), (-37.0, 100000.0, 5.987314121711992e-298),
    (-2.0, 1e6, 0.02275026692565962), (-37.0, 1e6, 9.149865430900699e-300),
    (-20.0, 1e8, 2.7547312883288845e-89), (-37.0, 1e8, 5.752499888411075e-300),
    (-10.0, 1e10, 7.619854967046964e-24), (-37.0, 1e10, 5.7258398866338214e-300),
    (-2.0, 1e12, 0.022750131948314174), (-37.0, 1e12, 5.725573909103029e-300),
    (-6.0, 1e15, 9.865876450380296e-10), (-37.0, 1e15, 5.725571225211459e-300),
]

# (x, nu) -> scipy.special.stdtr(nu, x) for 1e3 <= nu < 1e4, frozen: points
# where the continued fraction erred most in a sweep against 40-digit mpmath
# (3.4e-13 to 6.1e-13; scipy is within 1e-15 of mpmath at each).
T_BAND_TABLE = [
    (-1.8, 9628.0, 0.03594596497279124),
    (-3.0, 9981.0, 0.0013532304307011908),
    (-1.92, 6087.0, 0.02745229057964724),
    (-1.78, 9266.0, 0.03755436136324934),
]

# (x, nu) -> scipy.special.ndtr(x) for nu >= 1e16, frozen.  scipy's stdtr
# turns into the normal limit between nu = 1e15 and 1e16, so each x keeps
# the t tail's distance from it, about x**4 / (4 nu), at or below 1e-13.
NORMAL_LIMIT_TABLE = [
    (-2.0, 1e16, 0.022750131948179195),
    (-6.0, 1e16, 9.865876450376946e-10),
    (-37.0, 1e20, 5.7255712225239266e-300),
    (-1e-05, 1e100, 0.49999601057719606),
    (-20.0, 1e100, 2.7536241186061556e-89),
    (-37.0, 1.7e308, 5.7255712225239266e-300),
    (-1.0, 1e308, 0.15865525393145707),  # x**2 / nu is subnormal
    (-1e-08, 1e308, 0.4999999960105772),  # x**2 / nu underflows to 0
]

# (p, nu) -> scipy.special.stdtrit(nu, p), and scipy.special.ndtri(p) from
# nu = 1e20 on, frozen.
T_PPF_TAIL_TABLE = [
    (1e-20, 0.5, -1.0284911563163399e+39),
    (1e-100, 2.5, -8.765437882279991e+39),
    (1e-100, 10.0, -25645257189.48198),
    (1e-300, 1000.0, -54.291388553051746),
    (1e-300, 9999.0, -38.35651906066025),
    (1e-300, 10000.0, -38.356384321004235),
    (1e-300, 35000.0, -37.41354306476421),
    (1e-300, 1e6, -37.05982087277439),
    (1e-20, 1e10, -9.262340109895588),
    (1e-300, 1e15, -37.04709629937392),
    (1e-300, 1e20, -37.0470962993612),
    (1e-300, 1e300, -37.0470962993612),
    (1e-300, 1.7e308, -37.0470962993612),
]
NORM_PPF_95 = 1.6448536269514722  # scipy.special.ndtri(0.95), frozen

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

    def test_frozen_tails(self):
        for x, nu, expected in T_TAIL_TABLE:
            assert t_cdf(x, nu) == pytest.approx(expected, rel=1e-12, abs=0.0), (x, nu)

    def test_frozen_band(self):
        for x, nu, expected in T_BAND_TABLE:
            assert t_cdf(x, nu) == pytest.approx(expected, rel=2e-14, abs=0.0), (x, nu)

    def test_normal_limit(self):
        for x, nu, expected in NORMAL_LIMIT_TABLE:
            assert t_cdf(x, nu) == pytest.approx(expected, rel=1e-12, abs=0.0), (x, nu)

    def test_nu1_closed_form_beyond_square_overflow(self):
        # x**2 overflows; T_1(-x) = atan(1/x) / pi
        expected = math.atan(1e-200) / math.pi
        assert t_cdf(-1e200, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_near_zero(self):
        # scipy.special.stdtr(19, 1e-9), frozen: no rounding to exactly 1/2
        assert t_cdf(1e-9, 19.0) == pytest.approx(0.5000000003937298, rel=1e-15)

    def test_ln_z_near_zero(self):
        # scipy.special.stdtr(0.001370488950062145, -1.38e73), frozen.  q is
        # 1.4e149, so ln z = -ln(1 + 1/q) is -7e-150, where ln q - ln(1 + q)
        # rounds to a multiple of 5.7e-14.
        assert t_cdf(-1.38e73, 0.001370488950062145) == pytest.approx(
            0.39478300170698105, rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize(
        "nu", [30.0, 40.0, 999.0, 2503.5, 5e3, 9999.0, 1e4, 1e6, 1e300, 1.7e308]
    )
    def test_median_side(self, nu):
        # Near the median the lower tail is 1/2 - (1/2 - T): it never passes
        # 1/2, and it is exactly 1/2 where 1/2 - T rounds away.
        assert t_cdf(-1.11e-160, nu) == 0.5 and t_cdf(1.11e-160, nu) == 0.5
        for x in [1e-8, 1e-3, 0.1]:
            assert t_cdf(-x, nu) <= 0.5 <= t_cdf(x, nu), x

    def test_huge_nu_tails(self):
        # nu far past any float x^2 / nu, where the continued fraction's
        # products overflow unless nu is clamped: tails below the smallest
        # float are 0, and nu = 1.7e308 is the normal limit.
        assert t_cdf(-40.0, 1e300) == 0.0
        assert t_cdf(-1e3, 4.5e307) == 0.0
        assert t_cdf(-37.0, 1.7e308) == pytest.approx(normal_cdf(-37.0), rel=1e-13, abs=0.0)
        assert t_cdf(-1e200, 1e300) == 0.0
        assert t_cdf(-1e100, 1e160) == 0.0
        assert t_cdf(-0.1, 1.1e308) == pytest.approx(normal_cdf(-0.1), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x, nu", [
        (-38.7, 1e4), (-37.0, 1e4), (-35.0, 1e4), (-37.0, 29416.0),
    ])
    def test_even_nu_closed_form(self, x, nu):
        # The tails are near 1e-300, so the closed form cancels about 300
        # digits: evaluate it with 420.
        assert t_cdf(x, nu) == pytest.approx(even_nu_tail(x, nu, 420), rel=1e-13, abs=0.0)

    def test_even_nu_band_sweep(self):
        # The BUP and BGRAT band below nu = 30 (0.2 <= z, ln(1 + q) <= 2), to
        # 1e-14 of the closed form with 60 digits, of which tails >= 1e-12
        # cancel at most 12.  The continued fraction erred by 3.8e-14 on these
        # draws (x = -1.505, nu = 28), near the median, where its z-form
        # multiplies the rounding of ln B(nu/2, 1/2) by (1/2 - T) / T.
        rng = random.Random(11)
        worst = 0.0
        for nu in range(2, 30, 2):
            ln_1q_min = special._BGRAT_Z_MIN / (0.5 * nu - 0.25)
            for _ in range(200):
                x = -math.sqrt(nu * math.expm1(rng.uniform(ln_1q_min, 2.0)))
                exact = even_nu_tail(x, nu, 60)
                if exact >= 1e-12:
                    worst = max(worst, abs(t_cdf(x, nu) - exact) / exact)
        assert worst <= 1e-14

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
        nu=st.sampled_from([0.7, 1.0, 2.5, 10.0, 100.0, 1e3, 5000.0, 9999.0]),
    )
    def test_monotone(self, x1, x2, nu):
        lo, hi = min(x1, x2), max(x1, x2)
        assert t_cdf(lo, nu) <= t_cdf(hi, nu) + 1e-15

    @given(
        x=st.floats(-60.0, 60.0),
        nu=st.sampled_from([0.7, 1.0, 2.5, 10.0, 100.0, 1e3, 5000.0, 9999.0]),
    )
    def test_reflection(self, x, nu):
        assert abs(t_cdf(x, nu) + t_cdf(-x, nu) - 1.0) < 3e-16


def even_nu_tail(x, nu, digits):
    """T_nu(-|x|) for even nu by Abramowitz & Stegun 26.7.3, with
    w = nu / (nu + x^2): (1 - sqrt(1 - w) sum_{k < nu/2} (1/2)_k / k! w^k) / 2."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        xd, nud = decimal.Decimal(x), decimal.Decimal(nu)
        w = nud / (nud + xd * xd)
        term = total = decimal.Decimal(1)
        for k in range(int(nu) // 2 - 1):
            term *= (k + decimal.Decimal("0.5")) / (k + 1) * w
            total += term
        return float((1 - (1 - w).sqrt() * total) / 2)


def first_float(crossed, lo, hi):
    """The smallest float in (lo, hi] where crossed holds, for 0 < lo < hi,
    crossed(lo) false and crossed(hi) true, and one change between."""
    bits = lambda v: struct.unpack("<q", struct.pack("<d", v))[0]
    value = lambda i: struct.unpack("<d", struct.pack("<q", i))[0]
    i, j = bits(lo), bits(hi)
    while j - i > 1:
        m = (i + j) // 2
        i, j = (i, m) if crossed(value(m)) else (m, j)
    return value(j)


def bgrat(x, nu):
    # The BGRAT series at (x, nu), whichever method t_cdf takes there.
    ln_1q = math.log1p(x * (x / nu))
    a = 0.5 * nu
    return special._bgrat_half(a, (a - 0.25) * ln_1q, ln_1q, special._log_beta_half(a))


def assert_non_increasing(tails):
    # Slack of a few ulps for the series' rounding near 1/2.
    for a, b in zip(tails, tails[1:]):
        assert b <= a * (1.0 + 1e-15), (a, b)


class TestTCdfSwitches:
    """t_cdf changes method where ln(1 + q) reaches 2 and where BGRAT's
    z = (nu/2 - 1/4) ln(1 + q) reaches _BGRAT_Z_MIN, and below nu = 30 it
    runs BUP before BGRAT.  At the first input past each switch the method
    there agrees with the one before it, and lower tails fall across it as
    |x| or nu grows.  Past nu = _NU_MAX, t_cdf takes nu = _NU_MAX, and
    BGRAT's tail underflows to 0 past z = 745."""

    @pytest.fixture
    def method(self, monkeypatch):
        # The method t_cdf takes at (x, nu), and its value.
        calls = []

        def counted(name):
            f = getattr(special, name)

            def call(*args):
                calls.append(name)
                return f(*args)

            return call

        for name in ("_betacf", "_bgrat_half"):
            monkeypatch.setattr(special, name, counted(name))

        def run(x, nu):
            calls.clear()
            value = t_cdf(x, nu)
            return calls[0], value

        return run

    @pytest.mark.parametrize("x", [-13.0, -10.0, -6.0, -2.0, -1.0])
    def test_nu_switch(self, monkeypatch, x):
        # At nu = 30 BGRAT serves 0.64 <= |x| <= 13.8 (0.2 <= z, ln(1 + q) <= 2)
        # at a = _BGRAT_A = 15.  One float below, BUP's one step hands it
        # a + 1, and the fraction runs on neither side.
        nu = 30.0
        nu_below = math.nextafter(nu, 0.0)
        shapes = []
        series = special._bgrat_half
        monkeypatch.setattr(
            special, "_bgrat_half", lambda a, *args: shapes.append(a) or series(a, *args)
        )
        monkeypatch.setattr(special, "_betacf", lambda *args: pytest.fail("fraction ran"))
        below = t_cdf(x, nu_below)
        assert shapes == [0.5 * nu_below + 1.0]
        assert t_cdf(x, nu) == pytest.approx(below, rel=1e-13, abs=0.0)
        assert shapes[1:] == [special._BGRAT_A]
        assert_non_increasing([t_cdf(x, nu * (1.0 + k * 1e-9)) for k in range(-3, 4)])

    @pytest.mark.parametrize("x", [-2.1, -2.0, -1.5, -1.0])
    def test_band_lower_end(self, method, x):
        # The band needs (nu/2 - 1/4) ln(1 + q) >= _BGRAT_Z_MIN with ln(1 + q)
        # <= 2, so it is empty below nu = 0.7.  At a fixed x it starts at the
        # nu where z reaches _BGRAT_Z_MIN: the fraction below, BUP's 15 steps
        # and BGRAT from there.
        crossed = lambda nu: (0.5 * nu - 0.25) * math.log1p(x * (x / nu)) >= special._BGRAT_Z_MIN
        nu = first_float(crossed, 0.7, 2.0)
        nu_below = math.nextafter(nu, 0.0)
        assert method(x, nu_below)[0] == "_betacf" and method(x, nu)[0] == "_bgrat_half"
        assert t_cdf(x, nu) == pytest.approx(t_cdf(x, nu_below), rel=1e-13, abs=0.0)
        assert_non_increasing([t_cdf(x, nu * (1.0 + k * 1e-9)) for k in range(-3, 4)])

    @pytest.mark.parametrize("x", [-37.0, -20.0, -2.0, -0.7])
    def test_nu_clamp(self, method, x):
        # Above _NU_MAX the tail is T at _NU_MAX itself, which is within
        # 3e-17 of the tail at any larger nu.  Just below, the tails agree to
        # the method's rounding, not bit for bit: q rounds there (by z times
        # 2^-53 in e^-z, 1.1e-13 at x = -37), and so does the prefactor
        # e^-ln B(nu/2, 1/2) (2e-15).  Over these nu the true tail moves by
        # less than 1e-25 of itself.
        nu = special._NU_MAX
        assert method(x, nu)[0] == "_bgrat_half"
        assert t_cdf(x, 2.0 * nu) == t_cdf(x, 1.7e308) == t_cdf(x, nu)
        for k in [-3, -2, -1]:
            below = t_cdf(x, nu * (1.0 + k * 1e-9))
            assert below == pytest.approx(t_cdf(x, nu), rel=2e-13, abs=0.0), k

    @pytest.mark.parametrize("x, nu", [(-1e12, 1e300), (-3.2e10, 1e18)])
    def test_underflowed_front(self, monkeypatch, x, nu):
        # Past ln(1 + q) = 2 at huge nu the fraction's front underflows, and
        # the tail is 0 without the fraction, which can stall there one
        # rounding short of converging (16 s at x = -1e12, nu = 1e300).
        monkeypatch.setattr(special, "_betacf", lambda *args: pytest.fail("fraction ran"))
        assert t_cdf(x, nu) == 0.0

    @pytest.mark.parametrize("nu", [1e3, 5e3, 9999.0, 1e4, 1e6])
    def test_deep_tail_underflow(self, method, nu):
        # BGRAT serves z = 690 to 760, where e^-z, and with it the tail,
        # leaves the normal range and then underflows to 0.  Below the
        # normal range e^-z and the tail each round to the grid of
        # subnormals, 5e-324 apart, so the tail may rise by one step.
        xs = [math.sqrt(nu * math.expm1((690.0 + 0.01 * k) / (0.5 * nu - 0.25)))
              for k in range(7001)]
        assert method(-xs[0], nu)[0] == method(-xs[-1], nu)[0] == "_bgrat_half"
        tails = [t_cdf(-x, nu) for x in xs]
        for a, b in zip(tails, tails[1:]):
            assert b <= a * (1.0 + 1e-15) or (b < sys.float_info.min and b - a <= 5e-324), (a, b)
        assert tails[-1] == 0.0

    @pytest.mark.parametrize("nu", [30.0, 100.0, 700.0])
    def test_log_switch(self, method, nu):
        # Past ln(1 + q) = 2 (x = 13.8 at nu = 30, 67.1 at nu = 700) the
        # continued fraction takes over in a few steps.
        x = first_float(lambda x: math.log1p(x * (x / nu)) > 2.0, 1.0, 100.0)
        assert method(-math.nextafter(x, 0.0), nu)[0] == "_bgrat_half"
        assert method(-x, nu)[0] == "_betacf"
        assert t_cdf(-x, nu) == pytest.approx(bgrat(-x, nu), rel=1e-13, abs=0.0)
        assert_non_increasing([t_cdf(-x * (1.0 + k * 1e-12), nu) for k in range(-3, 4)])

    @pytest.mark.parametrize("nu", [30.0, 1e3, 5e3, 9999.0])
    def test_median_switch(self, method, nu):
        # Below z = _BGRAT_Z_MIN (|x| below about 0.64) the fraction's z-form
        # takes over, and forms 1/2 - T itself.
        crossed = lambda x: (0.5 * nu - 0.25) * math.log1p(x * (x / nu)) >= special._BGRAT_Z_MIN
        x = first_float(crossed, 0.1, 1.0)
        x_below = math.nextafter(x, 0.0)
        assert method(-x_below, nu)[0] == "_betacf" and method(-x, nu)[0] == "_bgrat_half"
        assert t_cdf(-x_below, nu) == pytest.approx(bgrat(-x_below, nu), rel=1e-13, abs=0.0)
        assert t_cdf(-x, nu) == pytest.approx(t_cdf(-x_below, nu), rel=1e-13, abs=0.0)
        assert t_cdf(x, nu) == pytest.approx(t_cdf(x_below, nu), rel=1e-13, abs=0.0)
        assert_non_increasing([t_cdf(-x * (1.0 + k * 1e-3), nu) for k in range(-3, 4)])

    @pytest.mark.parametrize("nu", [1.0, 3.0, 19.0, math.nextafter(30.0, 0.0)])
    def test_edges_below_nu_30(self, method, nu):
        # BUP and BGRAT below nu = 30 hand over to the fraction at the same
        # two edges as BGRAT alone: ln(1 + q) = 2 and z = _BGRAT_Z_MIN.
        past_log = first_float(lambda x: math.log1p(x * (x / nu)) > 2.0, 0.1, 100.0)
        crossed = lambda x: (0.5 * nu - 0.25) * math.log1p(x * (x / nu)) >= special._BGRAT_Z_MIN
        at_median = first_float(crossed, 0.01, past_log)
        for band, fraction in [
            (math.nextafter(past_log, 0.0), past_log), (at_median, math.nextafter(at_median, 0.0))
        ]:
            assert method(-band, nu)[0] == "_bgrat_half" and method(-fraction, nu)[0] == "_betacf"
            assert t_cdf(-band, nu) == pytest.approx(t_cdf(-fraction, nu), rel=1e-13, abs=0.0)
            assert_non_increasing([t_cdf(-band * (1.0 + k * 1e-12), nu) for k in range(-3, 4)])

    @pytest.mark.parametrize("nu", [30.0, math.nextafter(30.0, math.inf)])
    @pytest.mark.parametrize("ln_1q", [1.0, 1.5, 2.0])
    def test_bgrat_terms(self, method, monkeypatch, nu, ln_1q):
        # The series stops silently when it runs out of d_n.  Its slowest
        # corner, nu = 30 with ln(1 + q) up to 2, needs 16 of the 30: cut to
        # 20, it must give the same bits.
        x = math.sqrt(math.expm1(ln_1q) * nu)
        while math.log1p(x * (x / nu)) > ln_1q:
            x = math.nextafter(x, 0.0)
        kind, full = method(-x, nu)
        assert kind == "_bgrat_half"
        monkeypatch.setattr(special, "_BGRAT_D", special._BGRAT_D[:20])
        assert t_cdf(-x, nu) == full


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

    def test_frozen_grid(self):
        for nu, expected in T_PPF_GRID.items():
            for p, x in zip(T_PPF_PS, expected):
                assert t_quantile(p, nu) == pytest.approx(x, rel=1e-12), (p, nu)

    def test_frozen_tail_grid(self):
        for p, nu, x in T_PPF_TAIL_TABLE:
            assert t_quantile(p, nu) == pytest.approx(x, rel=1e-12), (p, nu)

    def test_normal_limit(self):
        # nu / 2 is far past where lgamma overflows; the Stirling series holds.
        assert t_quantile(0.95, 1e308) == pytest.approx(NORM_PPF_95, rel=1e-15)

    def test_near_the_median(self):
        # scipy.special.stdtrit(576849.66, 0.500000026548264), frozen.  p's
        # own rounding limits the relative accuracy to about 4e-9 here.
        assert t_quantile(0.500000026548264, 576849.66) == pytest.approx(
            6.654665810450053e-08, rel=1e-8
        )

    def test_frozen_deep_tails(self):
        # Roots of scipy.stats.t.logcdf(x, nu) = ln p, frozen.  At nu = 3
        # and 3.25 scipy.special.stdtrit is off (by 50% and 33%), so each
        # value is stdtrit refined by Newton steps on logcdf.
        for p, nu, x in [
            (1e-20, 19.0, -43.14710122704122),
            (1e-100, 1e3, -23.930617087826448),
            (1e-200, 1.5, -1.1245005997832137e133),
            (1e-200, 3.0, -4.7952757204692816e66),
            (5e-243, 3.25, -3.966658578234618e74),
            (1e-20, 0.5, -1.0284911563163399e39),
            (1e-20, 0.2, -7.508285934582922e97),
        ]:
            assert t_quantile(p, nu) == pytest.approx(x, rel=1e-13), (p, nu)

    def test_cdf_calls_per_quantile(self, monkeypatch):
        calls = []
        tail = special._t_tail

        def counted(x, nu):
            calls.append(x)
            return tail(x, nu)

        monkeypatch.setattr(special, "_t_tail", counted)
        cases = [
            (p, nu)
            for nu in [0.05, 0.2, 0.5, 1.5, 3.0, 19.0, 100.0, 1e3, 1e4, 4e4]
            for p in [0.9, 0.95, 0.99, 0.995, 1.0 - 1e-6, 1e-20, 1e-200]
            + [0.5 - 1e-13, 0.5 + 1e-6]
        ]
        # Once took extra steps when t_cdf lost digits at large nu.
        cases.append((0.9552016331372183, 68587.76053953539))
        for p, nu in cases:
            calls.clear()
            try:
                t_quantile(p, nu)
            except DomainError:  # below nu = 1 the far tails pass 1e154
                assert nu < 1.0 and p < 1e-16 and not calls, (p, nu)
            assert len(calls) <= 5, (p, nu, len(calls))

    def test_solver_failure_names_last_x_step_and_residual(self, monkeypatch):
        # Broken tails for p = 0.95: one stuck at 1/2 and one that rises
        # with x stop on a step that does not fall, with a residual past T's
        # rounding; one stuck just short of the target runs out the step cap.
        for broken in [
            lambda x, nu: 0.5,
            lambda x, nu: 0.5 * x / (1.0 + x),
            lambda x, nu: 0.05 * (1.0 - 1e-6),
        ]:
            monkeypatch.setattr(special, "_t_tail", broken)
            named = r"last x \S+, step \S+, residual ln\(T/tail\) \S+"
            with pytest.raises(SolverFailure, match=named):
                t_quantile(0.95, 19.0)

    def test_elasticity_rises(self):
        # The solver rests on this: x f(x) / T_nu(-x) does not fall as x
        # grows, so ln T_nu(-x) is concave in ln x.  scipy's logpdf and
        # logsf, wherever both are finite; 1e-12 of the value allows their
        # rounding where the elasticity flattens to nu (the power-law tail).
        np = pytest.importorskip("numpy")
        scipy_stats = pytest.importorskip("scipy.stats")
        x = np.logspace(-8, 300, 4000)
        for nu in np.logspace(-3, 8, 15):
            with np.errstate(all="ignore"):
                ln_ratio = scipy_stats.t.logpdf(x, nu) - scipy_stats.t.logsf(x, nu)
            finite = np.isfinite(ln_ratio)
            elasticity = x[finite] * np.exp(ln_ratio[finite])
            assert finite.sum() >= 100, nu
            assert np.all(np.diff(elasticity) >= -1e-12 * elasticity[:-1]), nu

    def test_subnormal_tails(self):
        # T moves in steps of 5e-324 here, so the root is good to a step or
        # two.  At the last two nu a step lands one step above 2.5e-322 and
        # the loop stops on T's rounding.
        for p, nu in [
            (5e-324, 3.0),
            (5e-324, 19.0),
            (5e-324, 1e4),
            (5e-324, 1.7e308),
            (2.5e-322, 774.0161100463954),
            (2.5e-322, 58546.37363205773),
        ]:
            x = t_quantile(p, nu)
            assert x < 0.0 and abs(t_cdf(x, nu) - p) <= 2e-323, (p, nu, x)

    def test_near_the_median_below_nu_1(self):
        # scipy.special.stdtrit(nu, p), frozen; each is within 2e-13 of
        # 40-digit mpmath.  The tail is flat here: T's rounding over an
        # elasticity near nu leaves x good to about 1e-12.
        for p, nu, x in [
            (0.408, 0.00137, -5.337192366697706e62),
            (0.499, 0.001, -0.11497779848722052),
            (0.49, 0.01, -0.3719233856143308),
            (0.45, 0.05, -0.9243843459076488),
            (0.4999, 0.3, -0.00043607334530702964),
            (0.3, 0.9, -0.7532776137282439),
        ]:
            assert t_quantile(p, nu) == pytest.approx(x, rel=2e-12), (p, nu)
        # At this root, 1.26e153, x^2 / nu overflows: the density takes
        # ln(1 + x^2 / nu) as 2 ln x - ln nu.
        x = t_quantile(0.35, 1e-3)
        assert 1e153 < -x < special._X_SQ_MAX
        assert t_cdf(x, 1e-3) == pytest.approx(0.35, rel=1e-14)

    def test_within_1e_9_of_the_median(self):
        # scipy.special.stdtrit(nu, p), and ndtri(p) past nu = 1e300,
        # frozen.  T is linear in x here and rounds near 1/2 to 2^-53, which
        # over 1/2 - p leaves x good to 2^-53 / (1/2 - p).  The loop once
        # stopped on a small residual ln(T / tail) with a last step in ln x
        # that was not small: from the power-law start below nu = 1, 1e12
        # times the root, it returned 1.4 to 2.4 times the root at
        # 1/2 - p = 1e-13, and from Hill's start just above nu = 1, 1% to 12%
        # off, up to 72 times 2^-53 / (1/2 - p) off.  Past nu = 1e300, a y^2
        # underflowed in Hill's nu expm1(a y^2), so the start was 0 and ln x
        # raised ValueError.
        for nu, p, x in [
            (0.5, 0.4999999999999, -3.707243949402107e-13),
            (0.5, 0.499999999999, -3.708067323960553e-12),
            (0.5, 0.49999999999, -3.708149661416397e-11),
            (0.05, 0.4999999999999, -9.24825180187877e-13),
            (0.05, 0.499999999999, -9.250305827820332e-12),
            (0.05, 0.49999999999, -9.250511230414485e-11),
            (1.05, 0.499999999999, -3.1125347546982314e-12),
            (1.15, 0.499999999999, -3.061674315533398e-12),
            (1.5, 0.49999999999, -2.9348324582297685e-11),
            (1e301, 0.49999999999999994, -1.3914582123358836e-16),
            (1e301, 0.4999999993479843, -1.634361037234543e-09),
            (1.7e308, 0.4999999999999, -2.506016240416926e-13),
            (1.7e308, 0.4999999993479843, -1.634361037234543e-09),
        ]:
            rel = 2.0**-53 / (0.5 - p)
            assert t_quantile(p, nu) == pytest.approx(x, rel=rel, abs=0.0), (p, nu)

    def test_nu1_root_at_the_float_range(self):
        # At nu = 1 the root is 1 / tan(pi tail), here 1 / (pi tail): found
        # just inside sqrt(float max), to T's accuracy there, and refused
        # just outside.
        inside = 1.0 / (math.pi * special._X_SQ_MAX * (1.0 - 1e-9))
        assert t_quantile(inside, 1.0) == pytest.approx(-1.0 / (math.pi * inside), rel=1e-13)
        with pytest.raises(DomainError, match="beyond the float range"):
            t_quantile(1.0 / (math.pi * special._X_SQ_MAX * (1.0 + 1e-9)), 1.0)

    def test_domain_errors(self):
        for bad_p in [0.0, 1.0, -0.2, 1.3, math.nan]:
            with pytest.raises(DomainError):
                t_quantile(bad_p, 5.0)
        with pytest.raises(DomainError):
            t_quantile(0.9, 0.0)

    def test_root_beyond_float_range(self):
        # The tail falls like x**-nu, so the root is past where x**2
        # overflows (t_cdf(6.7e153, 0.0014) is only 0.697).
        for nu in [0.0014, 0.003]:
            with pytest.raises(DomainError, match="beyond the float range"):
                t_quantile(1.0 - 0.074, nu)

    @given(
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        nu=st.floats(1e-3, 1e6),
    )
    def test_finite_or_domain_error(self, p, nu):
        try:
            x = t_quantile(p, nu)
        except DomainError:
            return
        assert math.isfinite(x)

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
