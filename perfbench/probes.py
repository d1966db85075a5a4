"""Layer probes: fixed single-layer measurements, the same on every
workload, so later changes can quote them before and after.

The timed rows reproduce the baseline list of the roadmap's bench item:
``t_cdf(2.1, 19)``, ``t_quantile(0.95, 19)`` and ``t_quantile(0.95, 1e5)``,
``minimize_r`` and ``q_interval(5.2, nu=19, n=20)`` at alpha = 0.05,
beta = 0.5, ``simulate_fpr`` at n = 20 and n = 200, and ``summarize`` at
50 and 200 sites (5 measures x 20 observations).  Each is the median of
several timed batches, untraced.  The probes also time a bare
interpreter, the import of ``distnull.cli`` and one CLI call per
subcommand.

A traced run also makes one traced pass over every layer, so that every
layer metric is measured on every workload.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time

import cli_session
import harness
from harness import Record

BATCHES = 5
CHILD_REPS = 3
SIM_TRIALS = 200_000
CLI_TRIALS = "20000"


def _csv(sites: int) -> str:
    path = harness.WORKDIR / f"probe-{sites}-sites.csv"
    if not path.exists():
        rng = random.Random(sites)
        lines = ["site,measure,value"]
        for m in range(5):
            for s in range(sites):
                off = rng.gauss(0.0, 0.3)
                lines.extend(f"s{s:03d},m{m},{off + rng.gauss(0.0, 1.0)!r}" for _ in range(20))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _per_call_us(fn, calls: int) -> float:
    batches = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(batches)


def _median_s(fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _sim_cfg(n: int, trials: int):
    from distnull import mc
    from distnull.distributional import ExperimentDesign

    return mc.SimConfig(design=ExperimentDesign.ONE_SAMPLE, n=n, q_true=0.05, trials=trials, seed=n)


def _cli_argvs() -> list[list[str]]:
    return [
        ["test", "--t", "2.68", "--nu", "19", "--n", "20", "--q", "0.05", "--format", "json"],
        ["replicate", "--t", "2.68", "--nu", "19", "--n", "20", "--q", "0.05", "--format", "json"],
        ["range", "--t", "5.2", "--nu", "19", "--n", "20", "--format", "json"],
        ["thumb", "--nu", "19", "--format", "json"],
        ["qest", "--data", _csv(50), "--format", "json"],
        ["simulate", "--n", "20", "--q-true", "0.05", "--trials", CLI_TRIALS, "--format", "json"],
    ]


def run_untraced() -> tuple[dict[str, float], list[Record]]:
    """Timed probe rows, and the records of the probe calls that the layer
    metrics pool with the workload's own (simulations and CLI calls)."""
    from distnull import criterion, mc, special, varratio

    crit = criterion.Criteria(0.05, 0.5)
    rows = {
        "probe.t_cdf.nu19.us": _per_call_us(lambda: special.t_cdf(2.1, 19.0), 2000),
        "probe.t_quantile.nu19.us": _per_call_us(lambda: special.t_quantile(0.95, 19.0), 300),
        "probe.t_quantile.nu1e5.us": _per_call_us(lambda: special.t_quantile(0.95, 1e5), 200),
        "probe.minimize_r.nu19.us": _per_call_us(lambda: criterion.minimize_r(crit, 19.0, 20), 200),
        "probe.q_interval.nu19.us": _per_call_us(lambda: criterion.q_interval(5.2, crit, 19.0, 20), 100),
    }
    records = []
    for n in (20, 200):
        cfg = _sim_cfg(n, SIM_TRIALS)
        seconds = _median_s(lambda: mc.simulate_fpr(cfg, 0.05, 0.05), 3)
        rows[f"probe.simulate_fpr.n{n}.s_per_1e6"] = seconds * 1e6 / SIM_TRIALS
        records.append(Record("simulate_fpr", SIM_TRIALS, seconds, {"nu": n - 1.0}))
    cfg = _sim_cfg(20, SIM_TRIALS // 2)
    for variant in ("shared_s", "independent_s"):
        seconds = _median_s(lambda: mc.simulate_replication(2.5, cfg, 0.05, variant), 3)
        records.append(Record("simulate_replication", cfg.trials, seconds, {"variant": variant}))
    for sites, reps in ((50, BATCHES), (200, 3)):
        dataset, _ = varratio.load_csv(_csv(sites))
        rows[f"probe.summarize.sites{sites}.s"] = _median_s(lambda: varratio.summarize(dataset), reps)

    interp = harness.median_child_wall(["-c", "pass"], CHILD_REPS)
    rows["cli.interpreter_ms"] = 1e3 * interp
    rows["cli.import_ms"] = 1e3 * (harness.median_child_wall(["-c", "import distnull.cli"], CHILD_REPS) - interp)
    for argv in _cli_argvs():
        t0 = time.perf_counter()
        proc = cli_session.call(argv)
        records.append(Record("cli", 1.0, time.perf_counter() - t0, {"sub": argv[0], "argv": argv}, proc))
    return rows, records


def run_traced_pass() -> list[Record]:
    """One call into every layer, under the tracer installed by the caller;
    returns records of the CSV loads it made."""
    import analysis_stream
    from distnull import cli, criterion, mc, special, varratio

    crit = criterion.Criteria(0.05, 0.5)
    special.t_cdf(2.1, 19.0)
    special.t_quantile(0.95, 19.0)
    special.t_quantile(0.95, 1e5)
    criterion.minimize_r(crit, 19.0, 20)
    analysis_stream._analyse({"n": 20, "nu": 19.0, "alpha": 0.05, "t": 5.2})
    for n in (20, 200):
        mc.simulate_fpr(_sim_cfg(n, 20_000), 0.05, 0.05)
    for variant in ("shared_s", "independent_s"):
        mc.simulate_replication(2.5, _sim_cfg(20, 20_000), 0.05, variant)
    data = _csv(50)
    varratio.summarize(varratio.load_csv(data)[0])
    argv = ["qest", "--data", data, "--format", "json",
            "--cells-out", str(harness.WORKDIR / "probe-cells.csv"),
            "--hist-out", str(harness.WORKDIR / "probe-hist.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
        cli.main(["thumb", "--nu", "19", "--format", "json"])
    rows = len(harness.WORKDIR.joinpath(data).read_text(encoding="utf-8").splitlines()) - 1
    load = Record("load_csv", rows, 0.0, {"csv_rows": rows})
    return [load, load]
