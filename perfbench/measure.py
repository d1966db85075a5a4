"""The two kinds of run.

Untraced: set-up time, then the workload's closed loop for the given
seconds, each output checked as it arrives, outside the timed calls.  Its
result line holds the end-to-end metrics, which every workload reports
under the same names (BENCHMARK.json):

    setup_s           fresh interpreter importing distnull, median of 7
    throughput_per_s  work units per busy second (results, CLI calls,
                      CSV rows or MC trials, depending on the workload)
    latency_ms_p50    latency of one operation (of one whole cycle on
                      mc-calibration, whose calls differ tenfold in
                      cost), median
    latency_ms_tail   the same latency at the workload's tail percentile
                      (p99 on analysis-stream, else p90)
    peak_rss_mb       peak RSS of the process doing the work: this one,
                      or the largest CLI child on cli-session (the
                      harness keeps no per-operation outputs)
    ops_ok_share      share of operations that met their accuracy target

The report line before it repeats them under the names each workload's
own terms give them (``analysis_results_per_s``, ``cli_wall_ms_p90``,
``ops_failed_share`` and so on), with the measured input properties.

Traced: the layer probes untraced, then a fixed number of the
workload's operations (``TRACED_OPS``) with every layer traced, then one
traced pass of the probes so every layer has spans on every workload,
then the same operations again untraced, which gives the tracing
overhead.  The traced work is fixed rather than timed, so call counts
repeat exactly at a given seed and compare across versions of the code.
"""

from __future__ import annotations

import importlib

import harness
import layers
import probes
from rss import peak_rss_mb
from tracer import LAYERS, NO_RESULT, Tracer


def _import_package() -> None:
    # Imports happen before any timed region.
    for name in ("distnull", *(f"distnull.{m}" for m in LAYERS)):
        importlib.import_module(name)


def end_to_end(mod, records: list[harness.Record], tally: harness.Tally, setup_s: float, rss: float) -> dict:
    busy = sum(r.seconds for r in records)
    if mod.LATENCY_PER_CYCLE:
        per_cycle: dict[int, float] = {}
        for r in records:
            per_cycle[r.cycle] = per_cycle.get(r.cycle, 0.0) + r.seconds
        walls = list(per_cycle.values())
    else:
        walls = [r.seconds for r in records]
    return {
        "setup_s": harness.metric(setup_s, "s"),
        "throughput_per_s": harness.metric(sum(r.units for r in records) / busy, "1/s"),
        "latency_ms_p50": harness.metric(1e3 * harness.percentile(walls, 50), "ms"),
        "latency_ms_tail": harness.metric(1e3 * harness.percentile(walls, mod.TAIL), "ms"),
        "peak_rss_mb": harness.metric(rss, "MB"),
        "ops_ok_share": harness.metric(1.0 - tally.missed / max(1, tally.attempted), "share"),
    }


def named(mod, metrics: dict, tally: harness.Tally) -> dict:
    out = {mod.NAMED.get(k, k): v for k, v in metrics.items() if k != "ops_ok_share"}
    out["ops_failed_share"] = harness.metric(tally.missed / max(1, tally.attempted), "share")
    return out


def untraced(name: str, mod, seed: int, seconds: float) -> None:
    setup_s = harness.measure_setup_s()
    _import_package()
    state = mod.prepare(seed)
    tally = harness.Tally()
    checker = mod.Checker(state, tally)
    records = harness.drive(mod.ops(state, None), seconds, check=checker.add)
    rss = checker.peak_rss_mb if mod.CHILD_PROCESSES else peak_rss_mb()
    props = checker.properties()
    metrics = end_to_end(mod, records, tally, setup_s, rss)
    report = {
        "workload": name,
        "seed": seed,
        "operations": len(records),
        "named_metrics": named(mod, metrics, tally),
        "miss_share_by_check": tally.miss_shares(),
        "input_properties": props,
        "src_distnull_lines": harness.src_lines(),
    }
    harness.emit(tally, metrics, report)


def _tagged(ops, tracer: Tracer):
    for i, op in enumerate(ops):
        if op is not None:
            call = op.call

            def tagged(call=call, i=i):
                tracer.result_id = i
                try:
                    return call()
                finally:
                    tracer.result_id = NO_RESULT

            op = harness.Op(op.kind, op.units, tagged, op.info)
        yield op


def traced(name: str, mod, seed: int) -> None:
    _import_package()
    probe_rows, probe_records = probes.run_untraced()
    state = mod.prepare(seed)

    tracer = Tracer()
    tracer.install()
    try:
        traced_records = harness.drive(
            _tagged(mod.ops(state, tracer), tracer), float("inf"), limit=mod.TRACED_OPS
        )
        pass_records = probes.run_traced_pass()
    finally:
        tracer.uninstall()
    for i, rec in enumerate(traced_records):
        spans = rec.info.get("spans")
        if spans:  # spans recorded inside a child process
            tracer.result_id = i
            tracer.merge(spans)
    tracer.result_id = NO_RESULT
    replay = harness.drive(mod.ops(state, None), float("inf"), limit=len(traced_records))

    tally = harness.Tally()
    checker = mod.Checker(state, tally)
    for rec in traced_records:
        checker.add(rec)
    props = checker.properties()
    overhead = sum(r.seconds for r in traced_records) / sum(r.seconds for r in replay) - 1.0
    metrics = layers.metrics(
        tracer.summary(),
        workload_ops=len(traced_records),
        traced_records=traced_records + pass_records,
        untraced_records=replay + probe_records,
        probe_rows=probe_rows,
        overhead_share=overhead,
    )
    report = {
        "workload": name,
        "seed": seed,
        "traced_operations": len(traced_records),
        "miss_share_by_check": tally.miss_shares(),
        "input_properties": props,
    }
    harness.emit(tally, metrics, report)
