"""Simulation oracle checks.

The closed forms elsewhere in the package claim exact sampling
distributions; these tests regenerate the data from scratch, both
through the sufficient-statistic sampler and through raw per-observation
draws, and compare rates at 3 Monte-Carlo standard errors.
"""

import math
import threading

import numpy as np
import pytest

from distnull import mc
from distnull.distributional import (
    DistributionalNull,
    ExperimentDesign,
    degrees_of_freedom,
    dist_t_crit,
    replication_probability,
)
from distnull.errors import DomainError
from distnull.mc import (
    CalibrationReport,
    SimConfig,
    fpr_vs_n,
    simulate_fpr,
    simulate_replication,
)

TRIALS = 100_000


def cfg(design=ExperimentDesign.ONE_SAMPLE, n=20, q_true=0.05, **kw):
    return SimConfig(design=design, n=n, q_true=q_true, trials=TRIALS, **kw)


def combined_se(a: CalibrationReport, b: CalibrationReport) -> float:
    return math.sqrt(a.mc_se**2 + b.mc_se**2)


def test_config_validation():
    with pytest.raises(DomainError):
        cfg(n=1)
    with pytest.raises(DomainError):
        cfg(q_true=-0.1)
    with pytest.raises(DomainError, match="q_true \\* n"):
        cfg(q_true=1e307)  # finite q_true, but q*n overflows
    with pytest.raises(DomainError):
        SimConfig(ExperimentDesign.ONE_SAMPLE, 20, 0.05, trials=0)
    with pytest.raises(DomainError):
        SimConfig(ExperimentDesign.ONE_SAMPLE, 20, 0.05, seed=-1)


def test_deterministic_given_seed():
    a = simulate_fpr(cfg(seed=11), 0.05, 0.05)
    b = simulate_fpr(cfg(seed=11), 0.05, 0.05)
    assert a == b
    c = simulate_fpr(cfg(seed=12), 0.05, 0.05)
    assert a.rate != c.rate


def test_trials_need_not_fill_whole_chunks():
    for trials in (100, 16_385):
        report = simulate_fpr(
            SimConfig(ExperimentDesign.ONE_SAMPLE, 10, 0.0, trials=trials), 0.05, 0.0
        )
        assert report.trials == trials
        expected_se = math.sqrt(report.rate * (1.0 - report.rate) / trials)
        assert report.mc_se == pytest.approx(expected_se, rel=1e-12)


def test_calibrated_when_q_test_matches_q_true():
    for design, n in [
        (ExperimentDesign.ONE_SAMPLE, 20),
        (ExperimentDesign.PAIRED, 30),
        (ExperimentDesign.TWO_SAMPLE_EQUAL_N, 15),
    ]:
        report = simulate_fpr(cfg(design=design, n=n), 0.05, 0.05)
        assert abs(report.rate - 0.05) <= 3.0 * report.mc_se, (design, report)


def test_calibrated_on_both_variance_sampling_paths():
    # nu = 64 sums squared normals; nu = 65 goes through the gamma sampler
    for n in (65, 66):
        report = simulate_fpr(cfg(n=n, seed=5), 0.05, 0.05)
        assert abs(report.rate - 0.05) <= 3.0 * report.mc_se, (n, report)


def test_one_sided_convention_doubles_the_rate():
    report = simulate_fpr(cfg(seed=2), 0.05, 0.05, two_sided=False)
    assert abs(report.rate - 0.10) <= 3.0 * report.mc_se


def test_point_null_test_inflates_under_drift():
    report = simulate_fpr(cfg(n=200, seed=3), 0.05, 0.0)
    assert report.rate > 0.3


def test_fpr_vs_n_is_order_independent():
    a = fpr_vs_n(cfg(), 0.05, [20, 50], 0.05)
    b = fpr_vs_n(cfg(), 0.05, [50, 20], 0.05)
    assert dict(a) == dict(b)
    with pytest.raises(DomainError):
        fpr_vs_n(cfg(), 0.05, [], 0.05)


def test_replication_matches_the_closed_form():
    for t1 in (0.0, 2.0, -2.0):
        report = simulate_replication(t1, cfg(seed=7), 0.05)
        formula = replication_probability(t1, 0.05, 19, 20, DistributionalNull(0.05))
        assert abs(report.rate - formula) <= 3.0 * report.mc_se, (t1, report, formula)


def test_replication_point_null_edge_is_alpha():
    report = simulate_replication(3.0, cfg(q_true=0.0, seed=9), 0.05)
    assert abs(report.rate - 0.05) <= 3.0 * report.mc_se


def test_independent_denominator_is_a_different_model():
    shared = simulate_replication(3.0, cfg(seed=1), 0.05, variant="shared_s")
    independent = simulate_replication(3.0, cfg(seed=1), 0.05, variant="independent_s")
    assert abs(shared.rate - independent.rate) > 3.0 * combined_se(shared, independent)
    formula = replication_probability(3.0, 0.05, 19, 20, DistributionalNull(0.05))
    assert abs(shared.rate - formula) <= 3.0 * shared.mc_se


def test_replication_argument_validation():
    with pytest.raises(DomainError):
        simulate_replication(math.inf, cfg(), 0.05)
    with pytest.raises(DomainError):
        simulate_replication(2.0, cfg(), 0.05, variant="pooled")
    with pytest.raises(DomainError):
        simulate_replication(2.0, cfg(), 0.6)


class TestFrozenStreams:
    """Rates computed by the one-thread, whole-array sampler, frozen so that
    any change to a per-seed stream or to chunk scheduling shows."""

    FPR = [
        # (trials, n, rate): one-sample and paired, q_true 0.05 tested against 0, seed 3;
        # n = 20 sums squared normals (nu 19), n = 66 uses the gamma path (nu 65)
        (1, 20, 0.0),
        (1, 66, 1.0),
        (16_384, 20, 0.15625),
        (16_384, 66, 0.34356689453125),
        (16_385, 20, 0.15624046383887702),
        (16_385, 66, 0.3435459261519683),
        (3 * 16_384 + 5, 20, 0.15450495351628457),
        (3 * 16_384 + 5, 66, 0.3381207152592713),
    ]
    REPLICATION = [
        # (design, n, variant, rate) at t1 = 2, q_true 0.05, 16_385 trials, seed 3
        (ExperimentDesign.ONE_SAMPLE, 20, "shared_s", 0.12487030820872749),
        (ExperimentDesign.ONE_SAMPLE, 20, "independent_s", 0.13414708574916082),
        (ExperimentDesign.ONE_SAMPLE, 66, "shared_s", 0.07604516325907842),
        (ExperimentDesign.ONE_SAMPLE, 66, "independent_s", 0.08361306072627403),
        (ExperimentDesign.PAIRED, 20, "shared_s", 0.12487030820872749),
        (ExperimentDesign.PAIRED, 20, "independent_s", 0.13414708574916082),
        (ExperimentDesign.PAIRED, 66, "shared_s", 0.07604516325907842),
        (ExperimentDesign.PAIRED, 66, "independent_s", 0.08361306072627403),
        (ExperimentDesign.TWO_SAMPLE_EQUAL_N, 20, "shared_s", 0.13207201708880073),
        (ExperimentDesign.TWO_SAMPLE_EQUAL_N, 20, "independent_s", 0.13994507171193166),
        (ExperimentDesign.TWO_SAMPLE_EQUAL_N, 66, "shared_s", 0.07915776624961855),
        (ExperimentDesign.TWO_SAMPLE_EQUAL_N, 66, "independent_s", 0.08111077204760452),
    ]

    @pytest.fixture(params=[1, 2, 5], ids=lambda k: f"cpus{k}")
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: request.param)

    def test_fpr(self, cpus):
        # a paired design at the same n has the same nu and N, so the same rates
        for design in (ExperimentDesign.ONE_SAMPLE, ExperimentDesign.PAIRED):
            for trials, n, rate in self.FPR:
                config = SimConfig(design, n, 0.05, trials=trials, seed=3)
                assert simulate_fpr(config, 0.05, 0.0).rate == rate, (design, trials, n)

    def test_replication(self, cpus):
        for design, n, variant, rate in self.REPLICATION:
            config = SimConfig(design, n, 0.05, trials=16_385, seed=3)
            assert simulate_replication(2.0, config, 0.05, variant).rate == rate, (
                design,
                n,
                variant,
            )

    def test_fpr_vs_n(self, cpus):
        base = SimConfig(ExperimentDesign.TWO_SAMPLE_EQUAL_N, 10, 0.05, trials=16_385, seed=3)
        rates = [(n, r.rate) for n, r in fpr_vs_n(base, 0.05, [10, 40], 0.0)]
        assert rates == [(10, 0.10271589868782423), (40, 0.2549893194995423)]


class TestChunkMechanics:
    @pytest.mark.parametrize("nu", [1, 64])
    @pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 16_384])
    def test_row_blocked_chi2_equals_one_draw(self, size, nu):
        blocked = mc._chi2_over_nu(np.random.Generator(np.random.Philox(17)), nu, size)
        g = np.random.Generator(np.random.Philox(17))
        whole = np.square(g.standard_normal((size, nu))).sum(axis=1) / nu
        assert np.array_equal(blocked, whole)

    @pytest.fixture
    def started(self, monkeypatch):
        """Names of the threads _rate starts."""
        names = []

        class Recording(threading.Thread):
            def start(self):
                names.append(self.name)
                super().start()

        monkeypatch.setattr(mc.threading, "Thread", Recording)
        return names

    @staticmethod
    def run_rate(trials, chunk_hits):
        return mc._rate(SimConfig(ExperimentDesign.ONE_SAMPLE, 20, 0.0, trials=trials), chunk_hits)

    def test_one_chunk_call_starts_no_thread(self, started, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
        assert self.run_rate(16_384, lambda rng, size: size).rate == 1.0
        assert started == []

    @pytest.mark.parametrize(
        "chunks, cpus, threads", [(3, 8, 3), (5, 2, 2), (5, 1, 1), (4, 4, 4)]
    )
    def test_threads_are_bounded_by_chunks_and_cpus(self, started, monkeypatch, chunks, cpus, threads):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        sizes = []
        report = self.run_rate(chunks * 16_384 - 1, lambda rng, size: sizes.append(size) or 1)
        assert len(started) == threads - 1  # the caller's thread is one of them
        assert sorted(sizes) == [16_383] + [16_384] * (chunks - 1)
        assert report.rate == chunks / report.trials

    def test_chunk_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
        error = ValueError("chunk of 5 trials")

        def chunk_hits(rng, size):
            if size == 5:
                raise error
            return 0

        with pytest.raises(ValueError) as excinfo:
            self.run_rate(3 * 16_384 + 5, chunk_hits)
        assert excinfo.value is error

    def test_exception_stops_the_handing_out_of_chunks(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
        calls = []

        def chunk_hits(rng, size):
            calls.append(size)
            raise RuntimeError("every chunk fails")

        with pytest.raises(RuntimeError):
            self.run_rate(100 * 16_384, chunk_hits)
        assert 1 <= len(calls) <= 4  # each thread stops after its first failure

    def test_interrupt_in_the_caller_reaches_it_after_workers_stop(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
        caller_has_a_chunk = threading.Event()

        def chunk_hits(rng, size):
            if threading.current_thread() is threading.main_thread():
                caller_has_a_chunk.set()
                raise KeyboardInterrupt
            # hold the workers until the caller has taken a chunk of its own
            assert caller_has_a_chunk.wait(timeout=10.0)
            return 0

        with pytest.raises(KeyboardInterrupt):
            self.run_rate(100 * 16_384, chunk_hits)
        assert not [t for t in threading.enumerate() if t.name.startswith("distnull-mc")]


class TestAgainstRawObservations:
    """Per-observation reference simulations, written independently of the
    chunked sampler: means drawn per arm, then raw values, then the
    textbook t statistic."""

    Q = 0.1
    ALPHA = 0.05

    def _rate(self, t_stats, nu, n):
        crit = dist_t_crit(self.ALPHA / 2.0, nu, n, DistributionalNull(self.Q))
        return float(np.mean(np.abs(t_stats) >= crit))

    def test_one_sample(self):
        n, sigma = 3, 1.7
        rng = np.random.default_rng(101)
        mu = rng.normal(0.0, math.sqrt(self.Q) * sigma, TRIALS)
        x = rng.normal(mu[:, None], sigma, (TRIALS, n))
        t = x.mean(axis=1) / (x.std(axis=1, ddof=1) / math.sqrt(n))
        raw = self._rate(t, n - 1, n)
        fast = simulate_fpr(
            SimConfig(ExperimentDesign.ONE_SAMPLE, n, self.Q, trials=TRIALS),
            self.ALPHA,
            self.Q,
        )
        assert abs(raw - fast.rate) <= 3.0 * math.sqrt(2.0) * fast.mc_se

    def test_paired(self):
        # each arm gets its own drifting mean; differences carry 2q sigma^2
        n, sigma = 4, 0.9
        rng = np.random.default_rng(202)
        mu_a = rng.normal(0.0, math.sqrt(self.Q) * sigma, TRIALS)
        mu_b = rng.normal(0.0, math.sqrt(self.Q) * sigma, TRIALS)
        a = rng.normal(mu_a[:, None], sigma, (TRIALS, n))
        b = rng.normal(mu_b[:, None], sigma, (TRIALS, n))
        d = a - b
        t = d.mean(axis=1) / (d.std(axis=1, ddof=1) / math.sqrt(n))
        raw = self._rate(t, n - 1, n)
        fast = simulate_fpr(
            SimConfig(ExperimentDesign.PAIRED, n, self.Q, trials=TRIALS),
            self.ALPHA,
            self.Q,
        )
        assert abs(raw - fast.rate) <= 3.0 * math.sqrt(2.0) * fast.mc_se

    def test_two_sample(self):
        n, sigma = 4, 2.3
        rng = np.random.default_rng(303)
        mu_a = rng.normal(0.0, math.sqrt(self.Q) * sigma, TRIALS)
        mu_b = rng.normal(0.0, math.sqrt(self.Q) * sigma, TRIALS)
        a = rng.normal(mu_a[:, None], sigma, (TRIALS, n))
        b = rng.normal(mu_b[:, None], sigma, (TRIALS, n))
        pooled = np.sqrt((a.var(axis=1, ddof=1) + b.var(axis=1, ddof=1)) / 2.0)
        t = (a.mean(axis=1) - b.mean(axis=1)) / (pooled * math.sqrt(2.0 / n))
        raw = self._rate(t, 2 * n - 2, n)
        fast = simulate_fpr(
            SimConfig(ExperimentDesign.TWO_SAMPLE_EQUAL_N, n, self.Q, trials=TRIALS),
            self.ALPHA,
            self.Q,
        )
        assert abs(raw - fast.rate) <= 3.0 * math.sqrt(2.0) * fast.mc_se

    def test_replication_shared_denominator(self):
        # raw reconstruction of the repeat-experiment construct at t1 = 2
        n, t1 = 5, 2.0
        nu = int(degrees_of_freedom(ExperimentDesign.ONE_SAMPLE, n))
        null = DistributionalNull(self.Q)
        crit = dist_t_crit(self.ALPHA, nu, n, null)
        qn = self.Q * n
        shrink = qn / (1.0 + qn)
        se = 1.0 / math.sqrt(n)
        rng = np.random.default_rng(404)
        v1 = rng.chisquare(nu, TRIALS) / nu
        s1 = np.sqrt(v1)
        m1 = t1 * se * s1
        mu = rng.normal(shrink * m1, math.sqrt(shrink) * se)
        m2 = rng.normal(mu, se)
        t2 = m2 / (se * s1)
        raw = float(np.mean(t2 >= crit))
        fast = simulate_replication(
            t1,
            SimConfig(ExperimentDesign.ONE_SAMPLE, n, self.Q, trials=TRIALS, seed=6),
            self.ALPHA,
        )
        formula = replication_probability(t1, self.ALPHA, nu, n, null)
        assert abs(raw - fast.rate) <= 3.0 * math.sqrt(2.0) * fast.mc_se
        assert abs(raw - formula) <= 3.0 * fast.mc_se
