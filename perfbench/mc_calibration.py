"""mc-calibration: the Monte-Carlo simulator.

A cycle is nine calls: ``simulate_fpr`` for the three designs with n on
both sides of nu = 64 (nu = 19, 199, 29, 119, 30, 158) and q_test =
q_true; one point-null ``fpr_vs_n`` sweep (q_true = 0.1, q_test = 0,
n = 10, 40, 160); and ``simulate_replication`` in both variants.  The
cost per trial changes about tenfold across nu, so the mix is fixed per
cycle and runs measure whole cycles.

Checks: each rate must lie within 4 mc_se of its reference, else the
call misses its accuracy target (lowering ``ops_ok_share``): alpha for the calibrated runs; the exact rejection rate of
the point-null test under the drift model for the sweep; the closed-form
p_r for ``shared_s``; and a numerical integral over both sample
variances for ``independent_s``.  References come from scipy.  A rate
beyond 8 mc_se, or a call that raises, fails the call and makes the run
incorrect.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from harness import Op, Record, Tally

TRACED_OPS = 18  # two cycles
LATENCY_PER_CYCLE = True
TAIL = 90
CHILD_PROCESSES = False
NAMED = {
    "throughput_per_s": "mc_trials_per_s",
    "latency_ms_p50": "mc_cycle_ms_p50",
    "latency_ms_tail": "mc_cycle_ms_p90",
}
ALPHA = 0.05
Q_TRUE = 0.05
FPR_CASES = (("ONE_SAMPLE", 20), ("ONE_SAMPLE", 200), ("PAIRED", 30), ("PAIRED", 120),
             ("TWO_SAMPLE_EQUAL_N", 16), ("TWO_SAMPLE_EQUAL_N", 80))
SWEEP_Q_TRUE, SWEEP_NS = 0.1, (10, 40, 160)
REP_N, REP_Q_TRUE = 30, 0.1
TRIALS = 200_000
FAIL_SE, WRONG_SE = 4.0, 8.0
VARIANTS = ("shared_s", "independent_s")
SIMPSON_POINTS = 4001  # odd, as Simpson's rule needs


def prepare(seed: int) -> int:
    return seed


def ops(seed: int, tracer=None) -> Iterator[Op | None]:
    from distnull import mc
    from distnull.distributional import ExperimentDesign, degrees_of_freedom

    rng = random.Random(seed)

    def sim_seed() -> int:
        return rng.randrange(1 << 48)

    t1 = rng.uniform(2.0, 4.0)
    while True:
        for design, n in FPR_CASES:
            d = ExperimentDesign[design]
            cfg = mc.SimConfig(design=d, n=n, q_true=Q_TRUE, trials=TRIALS, seed=sim_seed())
            info = {"nu": degrees_of_freedom(d, n), "cfg": cfg}
            yield Op("simulate_fpr", TRIALS, lambda cfg=cfg: mc.simulate_fpr(cfg, ALPHA, cfg.q_true), info)
        cfg = mc.SimConfig(design=ExperimentDesign.ONE_SAMPLE, n=SWEEP_NS[0], q_true=SWEEP_Q_TRUE,
                           trials=TRIALS, seed=sim_seed())
        yield Op("fpr_vs_n", TRIALS * len(SWEEP_NS),
                 lambda cfg=cfg: mc.fpr_vs_n(cfg, ALPHA, list(SWEEP_NS), 0.0), {"cfg": cfg})
        for variant in VARIANTS:
            cfg = mc.SimConfig(design=ExperimentDesign.ONE_SAMPLE, n=REP_N, q_true=REP_Q_TRUE,
                               trials=TRIALS, seed=sim_seed())
            yield Op("simulate_replication", TRIALS,
                     lambda cfg=cfg, t1=t1, v=variant: mc.simulate_replication(t1, cfg, ALPHA, v),
                     {"cfg": cfg, "variant": variant, "t1": t1})
        yield None


def _point_null_rate(nu: float, n: int) -> float:
    # |t| >= t_{1 - alpha/2} with t / sqrt(1 + qN) exactly t-distributed.
    from scipy import special

    crit = special.stdtrit(nu, 1.0 - ALPHA / 2.0)
    return float(2.0 * special.stdtr(nu, -crit / math.sqrt(1.0 + SWEEP_Q_TRUE * n)))


def _replication_refs(t1: float, nu: float, n: int) -> tuple[float, float]:
    """(shared_s, independent_s) references for a first result t1 > 0.

    With V = sqrt(chi2_nu / nu), shrinkage s = qN / (1 + qN) and critical
    value c, a repeat is significant with probability
    E[Phi((s t1 V1 - c V2) / sqrt(1 + s))].  With V1 = V2 this is the
    closed form T_nu((s t1 - c) / sqrt(1 + s)); with independent V1, V2
    the inner expectation over V1 is a noncentral t CDF, leaving one
    integral over chi2_nu, done here by Simpson's rule.  Only
    scipy.special is used, which keeps scipy.stats out of the peak RSS.
    """
    import numpy as np
    from scipy import special

    qn = REP_Q_TRUE * n
    s = qn / (1.0 + qn)
    c = float(special.stdtrit(nu, 1.0 - ALPHA)) * math.sqrt(1.0 + qn)
    root = math.sqrt(1.0 + s)
    shared = float(special.stdtr(nu, (s * t1 - c) / root))

    x = np.linspace(special.chdtri(nu, 1.0 - 1e-14), special.chdtri(nu, 1e-14), SIMPSON_POINTS)
    log_pdf = (0.5 * nu - 1.0) * np.log(x) - 0.5 * x - 0.5 * nu * math.log(2.0) - math.lgamma(0.5 * nu)
    f = np.exp(log_pdf) * special.nctdtr(nu, c * np.sqrt(x / nu) / root, s * t1 / root)
    h = x[1] - x[0]
    independent = float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))
    return shared, independent


class Checker:
    """Checks each rate against its reference as the calls complete."""

    def __init__(self, seed: int, tally: Tally):
        from scipy import special  # noqa: F401  (imported before the loop)

        self.tally = tally
        self.bands: dict[str, set] = {"nu_le_64": set(), "nu_gt_64": set()}
        self.refs: dict[float, tuple[float, float]] = {}

    def _judge(self, name: str, rate: float, se: float, ref: float, what: str) -> bool:
        dev = abs(rate - ref) / se if se > 0.0 else (0.0 if rate == ref else math.inf)
        if dev > WRONG_SE:
            self.tally.incorrect(f"{what}: rate {rate!r} is {dev:.1f} mc_se from {ref!r}")
        return self.tally.count(name, dev <= FAIL_SE)

    def _band(self, nu: float) -> None:
        self.bands["nu_le_64" if nu <= 64 else "nu_gt_64"].add(nu)

    def add(self, rec: Record) -> None:
        if rec.error is not None:
            self.tally.incorrect(f"{rec.kind} raised {rec.error!r}")
            self.tally.op(False)
            return
        cfg, r = rec.info["cfg"], rec.output
        if rec.kind == "simulate_fpr":
            self._band(rec.info["nu"])
            ok = self._judge("fpr_calibrated", r.rate, r.mc_se, ALPHA, f"fpr {cfg}")
        elif rec.kind == "fpr_vs_n":
            ok = True
            for n, rn in r:
                self._band(n - 1.0)
                ok &= self._judge("fpr_point_null", rn.rate, rn.mc_se, _point_null_rate(n - 1.0, n), f"sweep n={n}")
        else:
            t1 = rec.info["t1"]
            if t1 not in self.refs:
                self.refs[t1] = _replication_refs(t1, cfg.n - 1.0, cfg.n)
            shared, independent = self.refs[t1]
            ref = shared if rec.info["variant"] == "shared_s" else independent
            ok = self._judge(rec.info["variant"], r.rate, r.mc_se, ref, f"replication {cfg}")
        self.tally.op(ok)

    def properties(self) -> dict:
        return {"nu_bands": {band: sorted(nus) for band, nus in self.bands.items()}, "trials_per_call": TRIALS}
