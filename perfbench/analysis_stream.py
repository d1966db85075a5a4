"""analysis-stream: the library over a stream of generated results.

Each result is a design with per-group size N (log-uniform on 8..20000),
a t statistic with a heavy-tailed magnitude (half-Cauchy, scale 2) and a
random sign, and alpha from {0.05, 0.01, 0.005}.  Every result gets the
point test, the power-style replication estimate, the q-interval, the
rule of thumb, and the distributional test plus the replication
probability at six values of q.  Work shared between inputs sits within
one result (one (alpha, nu) pair across q), not across results.

Checks, made after the timed loop against scipy, count each library
call as one operation (16 per result): its p-values, critical values and
probabilities must be within relative error 1e-9, else the call misses
its accuracy target (reported as ``ops_ok_share``, not as a failure);
q-interval endpoints must solve R_q = |t| within the solver's own 1e-8
relative tolerance, with R_q rebuilt from scipy quantiles.  A call fails
when its result raised, or when a probability is off by more than 1e-6
absolute, a critical value off by more than 1e-6 relative, or a
significance verdict is wrong; a wrong output also makes the run
incorrect.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from harness import Op, Record, Tally, rel_err

ALPHAS = (0.05, 0.01, 0.005)
QS = (0.0, 0.01, 0.05, 0.1, 0.3, 0.64)
BETA = 0.5
DESIGNS = ("one_sample", "paired", "two_sample_equal_n")
N_RANGE = (8, 20000)
T_SCALE = 2.0

STRICT_REL = 1e-9
SOLVER_REL = 1e-8
GROSS_ABS_P = 1e-6
GROSS_REL = 1e-6
THUMB_RATIO = 1.5 * math.sqrt(3.0)
CALLS_PER_RESULT = 4 + 2 * len(QS)

TRACED_OPS = 400
LATENCY_PER_CYCLE = False
TAIL = 99
CHILD_PROCESSES = False
NAMED = {
    "throughput_per_s": "analysis_results_per_s",
    "latency_ms_p50": "analysis_latency_ms_p50",
    "latency_ms_tail": "analysis_latency_ms_p99",
}


def draw(rng: random.Random) -> dict:
    design = rng.choice(DESIGNS)
    n = int(round(math.exp(rng.uniform(math.log(N_RANGE[0]), math.log(N_RANGE[1])))))
    nu = float(2 * n - 2 if design == "two_sample_equal_n" else n - 1)
    magnitude = T_SCALE * abs(math.tan(math.pi * (rng.random() - 0.5)))
    t = magnitude if rng.random() < 0.5 else -magnitude
    return {"design": design, "n": n, "nu": nu, "alpha": rng.choice(ALPHAS), "t": t}


def _analyse(d: dict) -> dict:
    # Module attributes are looked up per call, so a traced run sees them.
    from distnull import criterion, distributional, point

    n, nu, alpha, t = d["n"], d["nu"], d["alpha"], d["t"]
    out = {
        "point": point.point_test(t / math.sqrt(n), n, nu, alpha),
        "power": point.power_replication_estimate(t, alpha, nu),
        "range": criterion.q_interval(t, criterion.Criteria(alpha, BETA), nu, n),
        "thumb": criterion.rule_of_thumb(alpha, nu),
        "dist": [],
    }
    for q in QS:
        null = distributional.DistributionalNull(q)
        out["dist"].append(
            (
                distributional.dist_test_from_t(t, nu, n, null, alpha),
                distributional.replication_probability(t, alpha, nu, n, null),
            )
        )
    return out


def prepare(seed: int) -> int:
    return seed


def ops(seed: int, tracer=None) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        d = draw(rng)
        yield Op("result", 1.0, lambda d=d: _analyse(d), d)
        yield None  # every result is a whole cycle


class Checker:
    """Checks every call of every result against scipy, as results arrive."""

    def __init__(self, seed: int, tally: Tally):
        from scipy import special

        self.sp = special
        self.tally = tally
        self.ok = True
        self.results = 0
        self.repeats = 0
        self.seen: set[tuple[float, float]] = set()

    def prob(self, name: str, got: float, ref: float, where: str) -> None:
        self.ok &= self.tally.count(name, rel_err(got, ref) <= STRICT_REL)
        if not abs(got - ref) <= GROSS_ABS_P:
            self.tally.incorrect(f"{where} {name}={got!r}, scipy {ref!r}")

    def value(self, name: str, got: float, ref: float, where: str, strict: float = STRICT_REL) -> None:
        self.ok &= self.tally.count(name, rel_err(got, ref) <= strict)
        if not rel_err(got, ref) <= GROSS_REL:
            self.tally.incorrect(f"{where} {name}={got!r}, reference {ref!r}")

    def flag(self, name: str, got: bool, stat: float, crit: float, where: str) -> None:
        if rel_err(abs(stat), crit) <= STRICT_REL:
            return  # on the threshold to within the accuracy target
        if got != (abs(stat) >= crit):
            self.tally.incorrect(f"{where} {name}={got} with |t|={abs(stat)!r}, crit {crit!r}")

    def call_done(self) -> None:
        self.tally.op(self.ok)
        self.ok = True

    def add(self, rec: Record) -> None:
        d, tally, sp = rec.info, self.tally, self.sp
        pair = (d["alpha"], d["nu"])
        self.results += 1
        self.repeats += pair in self.seen
        self.seen.add(pair)
        if rec.error is not None:
            tally.count("raised", False)
            for _ in range(CALLS_PER_RESULT):
                tally.op(False, raised=True)
            return
        where = f"t={d['t']!r} n={d['n']} nu={d['nu']} alpha={d['alpha']}:"
        out, n, nu, alpha, t = rec.output, d["n"], d["nu"], d["alpha"], d["t"]
        a = float(sp.stdtrit(nu, 1.0 - alpha))

        self.ok = True
        pt = out["point"]
        self.prob("point_p", pt.p_value, float(sp.stdtr(nu, -abs(pt.t_stat))), where)
        self.value("point_t_crit", pt.t_crit, a, where)
        self.flag("point_significant", pt.significant, pt.t_stat, a, where)
        self.call_done()

        a_lo = float(sp.stdtrit(nu, alpha))
        x = (a_lo - t) / math.sqrt(1.0 + a_lo * a_lo / (2.0 * nu))
        self.prob("power_estimate", out["power"], float(sp.ndtr(-x)), where)
        self.call_done()

        _check_range(self, out["range"], abs(t), a, n, where)
        self.call_done()

        th = out["thumb"]
        self.value("thumb_t_bound", th.t_bound, a * THUMB_RATIO, where)
        self.prob("thumb_p", th.p_threshold, float(sp.stdtr(nu, -th.t_bound)), where)
        self.call_done()

        for q, (rep, p_r) in zip(QS, out["dist"]):
            scale = math.sqrt(1.0 + q * n)
            crit = a * scale
            self.prob("dist_p", rep.p_value, float(sp.stdtr(nu, -abs(t) / scale)), where)
            self.value("dist_t_crit", rep.t_crit, crit, where)
            self.flag("dist_significant", rep.significant, t, crit, where)
            if q == 0.0:
                if rep.asymptotic_bound_z != 0.0:
                    tally.incorrect(f"{where} asymptotic bound at q=0 is {rep.asymptotic_bound_z!r}")
            else:
                self.value("dist_bound_z", rep.asymptotic_bound_z, a * math.sqrt(q), where)
            self.call_done()

            qn = q * n
            shrink = qn / (1.0 + qn)
            arg = (shrink * abs(t) - crit) / math.sqrt((1.0 + 2.0 * qn) / (1.0 + qn))
            self.prob("replication_p", p_r, float(sp.stdtr(nu, arg)), where)
            self.call_done()

    def properties(self) -> dict:
        return {"results": self.results, "repeated_alpha_nu_share": self.repeats / max(1, self.results)}


def _check_range(c: Checker, rng_out, t_abs: float, a: float, n: int, where: str) -> None:
    from distnull.criterion import NoSolution

    # With beta = 1/2 the replication quantile is 0 and R_q reduces to
    # (1 + 1/u) a sqrt(1 + u), minimal at u = qN = 2 with value (3 sqrt 3 / 2) a.
    def r_of_u(u: float) -> float:
        return max((1.0 + 1.0 / u) * a * math.sqrt(1.0 + u), a * math.sqrt(1.0 + u))

    r_min = THUMB_RATIO * a
    c.value("range_r_min", rng_out.r_min, r_min, where)
    if rel_err(rng_out.q_at_min * n, 2.0) > 1e-6:
        c.tally.incorrect(f"{where} minimum of R at qN={rng_out.q_at_min * n!r}, expected 2")
    if isinstance(rng_out, NoSolution):
        if t_abs > r_min * (1.0 + STRICT_REL):
            c.tally.incorrect(f"{where} no solution although |t| > r_min={r_min!r}")
        return
    if t_abs < r_min * (1.0 - STRICT_REL):
        c.tally.incorrect(f"{where} interval although |t| < r_min={r_min!r}")
        return
    if not rng_out.q1 <= rng_out.q_at_min <= rng_out.q2:
        c.tally.incorrect(f"{where} q1, q_at_min, q2 out of order")
    c.value("range_q1_root", r_of_u(rng_out.q1 * n), t_abs, where, SOLVER_REL)
    if rng_out.q2_censored:
        c.ok &= c.tally.count("range_censoring", r_of_u(rng_out.q2 * n) <= t_abs * (1.0 + SOLVER_REL))
    else:
        c.value("range_q2_root", r_of_u(rng_out.q2 * n), t_abs, where, SOLVER_REL)
