"""qest-wide: ``cli.main(["qest", ...])`` in-process on a wide CSV.

The generated CSV has many sites and few observations per cell: 200
sites, 5 measures, 4 observations per cell, with about 1% of cells cut
to 2 observations (below ``--min-cell-n 3``) and a few malformed rows.
Every call uses ``--groups`` (three groups over two set labels), a
``--sites`` filter keeping 90% of the sites, ``--cells-out`` and
``--hist-out``.  The summary and per-cell paths, which recompute site
means for every cell, do nearly all the work.

Checks: the summary rows, the cells CSV and the histogram CSV of every
call against a brute-force recomputation from the generated values,
within relative 1e-12.  A mismatch fails the call and makes the run
incorrect.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import json
import random
from typing import Iterator

import harness
from harness import Op, Record, Tally, rel_err

TRACED_OPS = 3
LATENCY_PER_CYCLE = False
TAIL = 90
CHILD_PROCESSES = False
NAMED = {
    "throughput_per_s": "qest_rows_per_s",
    "latency_ms_p50": "qest_call_ms_p50",
    "latency_ms_tail": "qest_call_ms_p90",
}
SITES, MEASURES, OBS, MIN_CELL_N = 200, 5, 4, 3
SHORT_CELL_SHARE = 0.01
KEEP_SITE_SHARE = 0.9
BAD_ROWS = ("s000,m0,oops", "s001,m1", ",m2,0.1", "s002,m3,1,2", "s003,,0.5", "s004,m4,inf")
GROUPS = (("g_a", ("m0", "m1"), "1"), ("g_b", ("m2", "m3"), "1"), ("g_c", ("m4",), "2"))
TOL = 1e-12


def prepare(seed: int) -> dict:
    rng = random.Random(seed)
    cells: dict[tuple[str, str], list[float]] = {}
    lines = ["site,measure,value"]
    for m in range(MEASURES):
        spread = rng.uniform(0.1, 0.4)
        for s in range(SITES):
            site, measure = f"s{s:03d}", f"m{m}"
            count = 2 if rng.random() < SHORT_CELL_SHARE else OBS
            off = rng.gauss(0.0, spread)
            values = [off + rng.gauss(0.0, 1.0) for _ in range(count)]
            cells[(measure, site)] = values
            lines.extend(f"{site},{measure},{v!r}" for v in values)
    for line in BAD_ROWS:
        lines.insert(rng.randrange(1, len(lines)), line)
    data = harness.WORKDIR / "wide.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    groups = harness.WORKDIR / "groups.ini"
    groups.write_text(
        "".join(f"[{g}]\nset = {label}\nmeasures = {', '.join(ms)}\n\n" for g, ms, label in GROUPS),
        encoding="utf-8",
    )
    kept = sorted(rng.sample([f"s{s:03d}" for s in range(SITES)], int(KEEP_SITE_SHARE * SITES)))
    rows = len(lines) - 1
    return {
        "seed": seed,
        "data": str(data),
        "groups": str(groups),
        "sites": kept,
        "cells": cells,
        "rows": rows,
        "properties": {
            "sites": SITES,
            "measures": MEASURES,
            "obs_per_cell": OBS,
            "rows": rows,
            "bad_row_share": len(BAD_ROWS) / rows,
            "cells_below_min_cell_n": sum(len(v) < MIN_CELL_N for v in cells.values()),
            "sites_kept_by_filter": len(kept),
        },
    }


def _qest(argv: list[str]) -> tuple[int, str]:
    from distnull import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def ops(state: dict, tracer=None) -> Iterator[Op | None]:
    index = 0
    while True:
        cells_out = harness.WORKDIR / f"cells-{index}.csv"
        hist_out = harness.WORKDIR / f"hist-{index}.csv"
        argv = [
            "qest", "--data", state["data"], "--groups", state["groups"],
            "--sites", ",".join(state["sites"]), "--min-cell-n", str(MIN_CELL_N),
            "--cells-out", str(cells_out), "--hist-out", str(hist_out), "--format", "json",
        ]
        info = {"csv_rows": state["rows"], "cells_out": cells_out, "hist_out": hist_out}
        yield Op("qest", float(state["rows"]), lambda argv=argv: _qest(argv), info)
        yield None
        index += 1


def brute_force(state: dict) -> tuple[list[dict], list[tuple]]:
    """Summary rows and (measure, site, within, between, q) cells, from the
    generated values with plain numpy, independently of distnull.varratio."""
    import numpy as np

    kept_sites = set(state["sites"])
    by_measure: dict[str, dict[str, list[float]]] = {}
    for (measure, site), values in state["cells"].items():
        if len(values) >= MIN_CELL_N:
            by_measure.setdefault(measure, {})[site] = values
    cells = []
    q_by_measure: dict[str, list[float]] = {}
    for measure in sorted(by_measure):
        sites = by_measure[measure]
        if len(sites) < 2:
            continue
        sites = {s: v for s, v in sites.items() if s in kept_sites}
        if len(sites) < 2:
            continue
        between = float(np.var([np.mean(sites[s]) for s in sorted(sites)], ddof=1))
        for site in sorted(sites):
            within = float(np.var(sites[site], ddof=1))
            cells.append((measure, site, within, between, between / within))
            q_by_measure.setdefault(measure, []).append(between / within)

    def row(group: str, qs: list[float]) -> dict:
        lo, hi = np.quantile(qs, [0.025, 0.975])
        return {"group": group, "datapoints": len(qs), "mean_q": float(np.mean(qs)), "q025": float(lo), "q975": float(hi)}

    rows, by_label, everything = [], {}, []
    for group, measures, label in GROUPS:
        qs = [q for m in measures for q in q_by_measure.get(m, [])]
        rows.append(row(group, qs))
        by_label.setdefault(label, []).extend(qs)
        everything.extend(qs)
    rows.extend(row(f"all {label}", qs) for label, qs in by_label.items())
    rows.append(row("all", everything))
    return rows, cells


def _diff(rec: Record, rows: list[dict], cells: list[tuple]) -> str | None:
    code, stdout = rec.output
    if code != 0:
        return f"exit {code}"
    got_rows = json.loads(stdout)["rows"]
    if len(got_rows) != len(rows):
        return f"{len(got_rows)} summary rows, expected {len(rows)}"
    for got, want in zip(got_rows, rows):
        for key, value in want.items():
            ok = got[key] == value if isinstance(value, (str, int)) else rel_err(got[key], value) <= TOL
            if not ok:
                return f"group {want['group']}: {key}={got[key]!r}, brute force {value!r}"
    with open(rec.info["cells_out"], encoding="utf-8", newline="") as fh:
        got_cells = list(csv.reader(fh))[1:]
    if len(got_cells) != len(cells):
        return f"{len(got_cells)} cells written, expected {len(cells)}"
    for got, want in zip(got_cells, cells):
        if tuple(got[:2]) != want[:2] or any(rel_err(float(g), w) > TOL for g, w in zip(got[2:], want[2:])):
            return f"cell {got}, brute force {want}"
    with open(rec.info["hist_out"], encoding="utf-8", newline="") as fh:
        bins = [(float(lo), float(hi), int(n)) for lo, hi, n in list(csv.reader(fh))[1:]]
    qs = sorted(c[4] for c in cells)
    for i, (lo, hi, n) in enumerate(bins):
        last = i == len(bins) - 1  # numpy closes the last bin on the right
        want = (bisect.bisect_right if last else bisect.bisect_left)(qs, hi) - bisect.bisect_left(qs, lo)
        if n != want:
            return f"histogram bin [{lo}, {hi}) holds {n}, brute force {want}"
    if sum(n for _, _, n in bins) != len(qs):
        return "histogram does not count every cell"
    return None


class Checker:
    """Checks every call's outputs against the brute-force recomputation."""

    def __init__(self, state: dict, tally: Tally):
        self.state, self.tally = state, tally
        self.rows, self.cells = brute_force(state)

    def add(self, rec: Record) -> None:
        diff = f"raised {rec.error!r}" if rec.error is not None else _diff(rec, self.rows, self.cells)
        if not self.tally.count("output", diff is None):
            self.tally.incorrect(diff)
        self.tally.op(diff is None)

    def properties(self) -> dict:
        return {**self.state["properties"], "cells_per_call": len(self.cells)}
