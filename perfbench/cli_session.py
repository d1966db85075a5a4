"""cli-session: one fresh interpreter per CLI call, one call at a time.

Each call starts ``python perfbench/cli_child.py ARG...``, which runs the
CLI the way the ``distnull`` console script does and reports the child's
own peak RSS (a parent's memory would otherwise leak into it).

A cycle is 19 calls: test, replicate, range and thumb each in json, csv
and human format; qest on a small deep CSV (few sites, many
observations per cell, a few malformed rows) in json and csv; a small
fpr and a small replication simulate; and three invalid argv that must
exit 2.  Interpreter start, imports and the cli adapter dominate.

Checks: every exit code, and every output against the in-process
library: json and csv values within relative 1e-12, human values to the
six digits they print.  A mismatch fails the call and makes the run
incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from typing import Iterator

import harness
from cli_child import RSS_TAG
from harness import Op, Record, Tally, rel_err

TRACED_OPS = 19  # one cycle
LATENCY_PER_CYCLE = False
TAIL = 90
CHILD_PROCESSES = True
NAMED = {
    "throughput_per_s": "cli_calls_per_s",
    "latency_ms_p50": "cli_wall_ms_p50",
    "latency_ms_tail": "cli_wall_ms_p90",
}
FORMATS = ("json", "csv", "human")
DEEP_SITES, DEEP_MEASURES, DEEP_OBS, DEEP_BAD_ROWS = 8, 3, 250, 6
SIM_TRIALS = 20_000
EXACT_REL = 1e-12
HUMAN_REL = 1e-5


def _write_deep_csv(rng: random.Random, path) -> dict:
    lines = ["site,measure,value"]
    for m in range(DEEP_MEASURES):
        offsets = [rng.gauss(0.0, 0.3) for _ in range(DEEP_SITES)]
        for s, off in enumerate(offsets):
            for _ in range(DEEP_OBS):
                lines.append(f"s{s:02d},m{m},{off + rng.gauss(0.0, 1.0)!r}")
    bad = ["s00,m0,not-a-number", "s01,m1", ",m2,0.5", "s02,m0,1.0,extra", "s03,,0.1", "s04,m1,nan"]
    for line in bad[:DEEP_BAD_ROWS]:
        lines.insert(rng.randrange(1, len(lines)), line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = len(lines) - 1
    return {
        "sites": DEEP_SITES,
        "measures": DEEP_MEASURES,
        "obs_per_cell": DEEP_OBS,
        "rows": rows,
        "bad_row_share": DEEP_BAD_ROWS / rows,
    }


def _cycle(rng: random.Random, deep_csv: str) -> list[tuple[list[str], bool]]:
    """One cycle of (argv, valid) pairs in a seeded order."""
    def t_val() -> str:
        return repr(round(math.exp(rng.uniform(math.log(0.5), math.log(8.0))), 6))

    def n_val() -> int:
        return int(math.exp(rng.uniform(math.log(8), math.log(2000))))

    def alpha() -> list[str]:
        return ["--alpha", rng.choice(["0.05", "0.01", "0.005"])]

    def q_val() -> str:
        return rng.choice(["0", "0.01", "0.05", "0.1", "0.3", "0.64"])

    calls: list[list[str]] = []
    for sub in ("test", "replicate"):
        n = n_val()
        calls.append([sub, "--t", t_val(), "--nu", str(n - 1), "--n", str(n), "--q", q_val(), *alpha(), "--format", "json"])
        n = n_val()
        design = "one-sample" if sub == "test" else "paired"
        mean, sd = repr(round(rng.uniform(0.0, 1.0), 4)), repr(round(rng.uniform(0.5, 2.0), 4))
        calls.append([sub, "--design", design, "--n", str(n), "--mean", mean, "--sd", sd, "--q", q_val(), "--format", "csv"])
        n = n_val()
        calls.append([
            sub, "--design", "two-sample", "--n", str(n),
            "--mean", repr(round(rng.uniform(0.0, 1.0), 4)), "--sd", repr(round(rng.uniform(0.5, 2.0), 4)),
            "--mean2", repr(round(rng.uniform(0.0, 1.0), 4)), "--sd2", repr(round(rng.uniform(0.5, 2.0), 4)),
            "--q", q_val(), *alpha(), "--format", "human",
        ])
    for fmt in FORMATS:
        n = n_val()
        calls.append(["range", "--t", t_val(), "--nu", str(n - 1), "--n", str(n), *alpha(), "--format", fmt])
    for fmt in FORMATS:
        calls.append(["thumb", "--nu", str(n_val() - 1), *alpha(), "--format", fmt])
    calls.append(["qest", "--data", deep_csv, "--min-cell-n", "3", "--format", "json"])
    calls.append(["qest", "--data", deep_csv, "--sites", "s00,s01,s02,s03,s05", "--format", "csv"])
    calls.append([
        "simulate", "--n", str(rng.choice([12, 20, 40])), "--q-true", "0.05",
        "--trials", str(SIM_TRIALS), "--seed", str(rng.randrange(1 << 30)), "--format", "json",
    ])
    calls.append([
        "simulate", "--mode", "replication", "--n", "30", "--t", t_val(), "--q-true", "0.1",
        "--trials", str(SIM_TRIALS), "--seed", str(rng.randrange(1 << 30)), "--format", "csv",
    ])
    # Invalid argv: a domain error, a criteria error, and a usage error.
    invalid = [
        ["test", "--t", "2.0", "--nu", "5", "--n", "1", "--q", "0.1"],
        ["range", "--t", "3.0", "--nu", "10", "--n", "11", "--alpha", "0.7"],
        ["thumb", "--format", "json"],
    ]
    cycle = [(argv, True) for argv in calls] + [(argv, False) for argv in invalid]
    rng.shuffle(cycle)
    return cycle


def prepare(seed: int) -> dict:
    rng = random.Random(seed)
    path = harness.WORKDIR / "deep.csv"
    props = _write_deep_csv(rng, path)
    return {"seed": seed, "deep_csv": str(path), "csv": props}


def call(argv: list[str], spans: str | None = None):
    """Run one CLI call in a fresh interpreter; returns the finished process."""
    prefix = ["perfbench/cli_child.py", *(["--spans", spans] if spans else [])]
    _, proc = harness.run_child([*prefix, *argv])
    return proc


def split_rss(stderr: str) -> tuple[str, float]:
    """The CLI's own stderr, and the peak RSS line cli_child.py appended."""
    head, _, last = stderr.rstrip("\n").rpartition("\n")
    tag, _, value = last.partition(" ")
    if tag != RSS_TAG:
        raise ValueError(f"no peak RSS line in stderr: {last!r}")
    return head, float(value)


def ops(state: dict, tracer=None) -> Iterator[Op | None]:
    rng = random.Random(state["seed"] + 1)
    index = 0
    while True:
        for argv, valid in _cycle(rng, state["deep_csv"]):
            spans = str(harness.WORKDIR / f"spans-{index}.json") if tracer else None
            info = {"sub": argv[0], "argv": argv, "valid": valid, "spans": spans}
            yield Op("cli", 1.0, lambda argv=argv, spans=spans: call(argv, spans), info)
            index += 1
        yield None


# -- checks --------------------------------------------------------------


def _opt(argv: list[str], flag: str, cast=str, default=None):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def expected(argv: list[str]):
    """What the library says for a valid call: ("result", dict) or ("rows", list)."""
    from distnull import criterion, distributional, mc, point, varratio
    from distnull.distributional import DistributionalNull, ExperimentDesign, ExperimentSummary

    sub = argv[0]
    alpha = _opt(argv, "--alpha", float, 0.05)
    if sub in ("test", "replicate"):
        n, q = _opt(argv, "--n", int), _opt(argv, "--q", float)
        if "--t" in argv:
            t, nu = _opt(argv, "--t", float), _opt(argv, "--nu", float)
        else:
            design = {
                "one-sample": ExperimentDesign.ONE_SAMPLE,
                "paired": ExperimentDesign.PAIRED,
                "two-sample": ExperimentDesign.TWO_SAMPLE_EQUAL_N,
            }[_opt(argv, "--design")]
            mean, sd = _opt(argv, "--mean", float), _opt(argv, "--sd", float)
            if "--mean2" in argv:
                mean -= _opt(argv, "--mean2", float)
                sd = math.sqrt((sd**2 + _opt(argv, "--sd2", float) ** 2) / 2.0)
            t, nu = distributional.t_statistic(ExperimentSummary(design, n, mean, sd))
        null = DistributionalNull(q)
        base = {"alpha": alpha, "q": q, "n": n, "nu": nu, "t": t}
        if sub == "replicate":
            return "result", {
                **base,
                "replication_probability": distributional.replication_probability(t, alpha, nu, n, null),
                "power_replication_estimate": point.power_replication_estimate(t, alpha, nu),
            }
        pt = point.point_test(t / math.sqrt(n), n, nu, alpha)
        dt = distributional.dist_test_from_t(t, nu, n, null, alpha)
        return "result", {
            **base,
            "z": t / math.sqrt(n),
            "point_p_value": pt.p_value,
            "point_z_crit": pt.z_crit,
            "point_t_crit": pt.t_crit,
            "point_significant": pt.significant,
            "dist_p_value": dt.p_value,
            "dist_t_crit": dt.t_crit,
            "dist_z_crit": dt.t_crit / math.sqrt(n),
            "dist_significant": dt.significant,
            "asymptotic_z_bound": dt.asymptotic_bound_z,
        }
    if sub == "range":
        t, nu, n = _opt(argv, "--t", float), _opt(argv, "--nu", float), _opt(argv, "--n", int)
        out = criterion.q_interval(t, criterion.Criteria(alpha, 0.5), nu, n)
        base = {"alpha": alpha, "beta": 0.5, "n": n, "nu": nu, "t": t,
                "r_min": out.r_min, "q_at_min": out.q_at_min}
        if isinstance(out, criterion.NoSolution):
            thumb = criterion.rule_of_thumb(alpha, nu)
            return "result", {**base, "status": "no_solution",
                              "thumb_t_bound": thumb.t_bound, "thumb_p_threshold": thumb.p_threshold}
        return "result", {**base, "status": "ok", "q1": out.q1, "q2": out.q2, "gamma": out.gamma,
                          "q2_censored": out.q2_censored}
    if sub == "thumb":
        nu = _opt(argv, "--nu", float)
        thumb = criterion.rule_of_thumb(alpha, nu)
        return "result", {"alpha": alpha, "nu": nu, "t_bound": thumb.t_bound,
                          "p_threshold": thumb.p_threshold,
                          "bound_over_quantile": 1.5 * math.sqrt(3.0)}
    if sub == "qest":
        dataset, _ = varratio.load_csv(_opt(argv, "--data"), min_cell_n=_opt(argv, "--min-cell-n", int, 2))
        sites = _opt(argv, "--sites")
        keep = None if sites is None else (lambda s, allowed=set(sites.split(",")): s in allowed)
        return "rows", [
            {"group": r.group, "datapoints": r.datapoints, "mean_q": r.mean_q, "q025": r.q_lo, "q975": r.q_hi}
            for r in varratio.summarize(dataset, None, keep)
        ]
    cfg = mc.SimConfig(
        design=ExperimentDesign.ONE_SAMPLE,
        n=_opt(argv, "--n", int),
        q_true=_opt(argv, "--q-true", float),
        trials=_opt(argv, "--trials", int),
        seed=_opt(argv, "--seed", int),
    )
    if _opt(argv, "--mode") == "replication":
        t = _opt(argv, "--t", float)
        rep = mc.simulate_replication(t, cfg, alpha, "shared_s")
        nu = distributional.degrees_of_freedom(cfg.design, cfg.n)
        formula = distributional.replication_probability(t, alpha, nu, cfg.n, DistributionalNull(cfg.q_true))
        return "rows", [{"design": "one-sample", "n": cfg.n, "q_true": cfg.q_true, "alpha": alpha, "t": t,
                         "variant": "shared-s", "trials": rep.trials, "seed": cfg.seed, "rate": rep.rate,
                         "mc_se": rep.mc_se, "p_r_formula": formula}]
    rep = mc.simulate_fpr(cfg, alpha, cfg.q_true, True)
    return "rows", [{"design": "one-sample", "n": cfg.n, "q_true": cfg.q_true, "q_test": cfg.q_true,
                     "alpha": alpha, "two_sided": True, "trials": rep.trials, "seed": cfg.seed,
                     "rate": rep.rate, "mc_se": rep.mc_se}]


def _same(got, want, tol: float) -> bool:
    if isinstance(want, bool) or isinstance(want, str):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return rel_err(float(got), float(want)) <= tol


def _parse_text(value: str, want, human: bool):
    if isinstance(want, bool):
        return ({"yes": True, "no": False} if human else {"true": True, "false": False}).get(value, value)
    if isinstance(want, str):
        return value
    return float(value)


def _compare(kind: str, want, stdout: str, fmt: str) -> str | None:
    """None when stdout matches the expected result, else what differs."""
    human = fmt == "human"
    tol = HUMAN_REL if human else EXACT_REL
    if fmt == "json":
        doc = json.loads(stdout)
        got = doc["result"] if kind == "result" else doc["rows"]
        rows_got = [got] if kind == "result" else got
    elif fmt == "csv":
        table = list(csv.reader(io.StringIO(stdout)))
        rows_got = [dict(zip(table[0], row)) for row in table[1:]]
    else:  # the human format is only used for single results
        rows_got = [dict(line.split(None, 1) for line in stdout.splitlines())]
    rows_want = [want] if kind == "result" else want
    if len(rows_got) != len(rows_want):
        return f"{len(rows_got)} rows, expected {len(rows_want)}"
    for row_got, row_want in zip(rows_got, rows_want):
        for key, value in row_want.items():
            if key not in row_got:
                return f"missing {key}"
            got = row_got[key]
            if fmt != "json":
                got = _parse_text(got.strip(), value, human)
            if not _same(got, value, tol):
                return f"{key}={got!r}, library {value!r}"
    return None


class Checker:
    """Checks exit codes and outputs as calls complete, and measures the mix."""

    def __init__(self, state: dict, tally: Tally):
        self.state, self.tally = state, tally
        self.calls = self.invalid = 0
        self.peak_rss_mb = 0.0
        self.subs: dict[str, int] = {}
        self.formats: dict[str, int] = {}

    def add(self, rec: Record) -> None:
        tally, argv, valid = self.tally, rec.info["argv"], rec.info["valid"]
        fmt = _opt(argv, "--format", str, "human")
        self.calls += 1
        self.invalid += not valid
        self.subs[argv[0]] = self.subs.get(argv[0], 0) + 1
        self.formats[fmt] = self.formats.get(fmt, 0) + 1
        if rec.error is not None:
            tally.incorrect(f"{argv}: {rec.error!r}")
            tally.op(tally.count("exit_code", False))
            return
        proc = rec.output
        try:
            stderr, rss = split_rss(proc.stderr)
        except ValueError as exc:
            stderr, rss = proc.stderr, 0.0
            tally.incorrect(f"{argv}: {exc}")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        want_code = 0 if valid else 2
        if not tally.count("exit_code", proc.returncode == want_code):
            tally.incorrect(f"{argv}: exit {proc.returncode}, expected {want_code}: {stderr[-300:]}")
            tally.op(False)
            return
        if not valid:
            tally.op(True)
            return
        kind, want = expected(argv)
        try:
            diff = _compare(kind, want, proc.stdout, fmt)
        except (ValueError, KeyError, IndexError) as exc:
            diff = f"unparsable output: {exc!r}"
        if not tally.count("output", diff is None):
            tally.incorrect(f"{argv}: {diff}")
        tally.op(diff is None)

    def properties(self) -> dict:
        n = max(1, self.calls)
        return {
            "deep_csv": self.state["csv"],
            "subcommand_mix": {k: v / n for k, v in sorted(self.subs.items())},
            "format_mix": {k: v / n for k, v in sorted(self.formats.items())},
            "invalid_argv_share": self.invalid / n,
        }
