"""Per-layer metrics of a traced run.

Span metrics (calls, self time, calls made per call) come from the
traced part: the workload's traced operations plus one traced pass of
the probes.  Rates and wall times (MC trials/s, CLI wall times) come
from untraced calls: the workload's operations replayed without tracing,
plus the probe calls.  "Per result" ratios count workload operations
only.  Which end-to-end metric each layer metric should move, and on
which workload, is written down in the benchmark's README.
"""

from __future__ import annotations

import statistics

import harness
from harness import Record, metric
from tracer import SpanSummary

SUBCOMMANDS = ("test", "replicate", "range", "thumb", "qest", "simulate")


def _rate(records: list[Record], keep) -> float:
    chosen = [r for r in records if keep(r)]
    seconds = sum(r.seconds for r in chosen)
    return sum(r.units for r in chosen) / seconds if seconds > 0.0 else 0.0


def metrics(
    spans: SpanSummary,
    workload_ops: int,
    traced_records: list[Record],
    untraced_records: list[Record],
    probe_rows: dict[str, float],
    overhead_share: float,
) -> dict[str, dict]:
    def ms(label: str) -> float:
        return 1e3 * spans.self_s.get(label, 0.0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, dict] = {}
    q_calls = spans.calls.get("special.t_quantile", 0)
    m["special.t_quantile.calls"] = metric(q_calls, "count")
    m["special.t_quantile.self_ms"] = metric(ms("special.t_quantile"), "ms")
    m["special.t_quantile.cdf_calls_per_call"] = metric(
        per(spans.count_under("special.t_cdf", "special.t_quantile"), q_calls), "calls/call")
    m["special.t_cdf.calls"] = metric(spans.calls.get("special.t_cdf", 0), "count")
    m["special.t_cdf.self_ms"] = metric(ms("special.t_cdf"), "ms")
    m["special.reg_inc_beta.calls"] = metric(spans.calls.get("special.reg_inc_beta", 0), "count")

    m["point.self_ms"] = metric(1e3 * spans.layer_self_s("point"), "ms")
    m["distributional.self_ms"] = metric(1e3 * spans.layer_self_s("distributional"), "ms")
    m["distributional.quantile_calls_per_result"] = metric(
        per(spans.count_under("special.t_quantile", "distributional.", results_only=True), workload_ops),
        "calls/result")

    qi_calls = spans.calls.get("criterion.q_interval", 0)
    m["criterion.q_interval.self_ms"] = metric(ms("criterion.q_interval"), "ms")
    m["criterion.q_interval.quantile_calls_per_call"] = metric(
        per(spans.count_under("special.t_quantile", "criterion.q_interval"), qi_calls), "calls/call")
    m["criterion.minimize_r.self_ms"] = metric(ms("criterion.minimize_r"), "ms")
    m["criterion.rule_of_thumb.self_ms"] = metric(ms("criterion.rule_of_thumb"), "ms")

    load_s = spans.total_s.get("varratio.load_csv", 0.0)
    rows = sum(r.info.get("csv_rows", 0) for r in traced_records)
    m["varratio.load_csv.s"] = metric(load_s, "s")
    m["varratio.load_csv.rows_per_s"] = metric(per(rows, load_s), "rows/s")
    m["varratio.summarize.s"] = metric(spans.total_s.get("varratio.summarize", 0.0), "s")
    m["varratio.all_cells.s"] = metric(spans.total_s.get("varratio.all_cells", 0.0), "s")
    m["varratio.write.s"] = metric(
        sum(s for label, s in spans.total_s.items() if label.startswith("varratio.write_")), "s")
    m["varratio.cells"] = metric(spans.calls.get("varratio.cell_q", 0), "count")

    def fpr(keep_nu):
        return _rate(untraced_records, lambda r: r.kind == "simulate_fpr" and keep_nu(r.info["nu"]))

    m["mc.fpr.trials_per_s.nu_le_64"] = metric(fpr(lambda nu: nu <= 64), "trials/s")
    m["mc.fpr.trials_per_s.nu_gt_64"] = metric(fpr(lambda nu: nu > 64), "trials/s")
    for variant in ("shared_s", "independent_s"):
        m[f"mc.replication.trials_per_s.{variant}"] = metric(
            _rate(untraced_records, lambda r: r.kind == "simulate_replication"
                  and r.info["variant"] == variant), "trials/s")

    cli_calls = [r for r in untraced_records if r.kind == "cli"]
    m["cli.interpreter_ms"] = metric(probe_rows["cli.interpreter_ms"], "ms")
    m["cli.import_ms"] = metric(probe_rows["cli.import_ms"], "ms")
    m["cli.nonzero_exits"] = metric(sum(r.output.returncode != 0 for r in cli_calls), "count")
    for sub in SUBCOMMANDS:
        walls = [r.seconds for r in cli_calls if r.info["sub"] == sub]
        m[f"cli.{sub}.wall_ms_p50"] = metric(1e3 * statistics.median(walls), "ms")

    m["trace.overhead_share"] = metric(overhead_share, "share")
    for name, value in probe_rows.items():
        if name.startswith("probe."):
            unit = name.rsplit(".", 1)[1].replace("_per_", "/").replace("1e6", "1e6trials")
            m[name] = metric(value, unit)
    m["src.distnull_lines"] = metric(harness.src_lines(), "lines")
    return m
