"""Random argv for the CLI: every run ends with exit 0 or 2, in bounded
time, with no traceback and no nan or inf in what it prints."""

import contextlib
import csv
import io
import re
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from distnull.cli import main

# Seconds one argv may take; a run that hangs is a failure, not a slow test.
WALL_BOUND_S = 10

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

VALUE = st.sampled_from(
    ["0", "1e308", "-1e308", "1e154", "5e-324", "1e-160", "nan", "inf", "-inf", "oops", ""]
)
# Most rows fill a few cells of plain ids, so that datasets qualify; the rest
# carry blank, spaced, quoted, comma-bearing, comment-like and non-ASCII ids.
CELLS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["m", "w"]),
              st.lists(VALUE, min_size=1, max_size=3)),
    max_size=6,
)
ODD_ROWS = st.lists(
    st.tuples(st.sampled_from(["", " ", "a b", "s,1", '"q"', "#c", "é"]),
              st.sampled_from(["m", "", " ", "m,2", "μ"]), VALUE),
    max_size=3,
)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout(f"argv took longer than {WALL_BOUND_S} s")


def run_bounded(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WALL_BOUND_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    cells=CELLS,
    odd_rows=ODD_ROWS,
    min_cell_n=st.sampled_from(["0", "1", "2", "3"]),
    sites=st.none() | st.sampled_from(["a", "a,b", "a,b,c", ",", "zz", "a b,é"]),
    ddof=st.sampled_from(["0", "1"]),
    fmt=st.none() | st.sampled_from(["json", "csv", "human"]),
    cells_out=st.booleans(),
    hist_out=st.booleans(),
)
# site a's mean sums -inf and +inf, so numpy warns of an invalid value
@example(
    cells=[("a", "w", ["0", "0", "0"]), ("a", "w", ["1e308", "-1e308"]),
           ("b", "w", ["0", "0"]), ("a", "w", ["0", "1e308", "-1e308"])],
    odd_rows=[], min_cell_n="2", sites=None, ddof="1", fmt=None, cells_out=False,
    hist_out=False,
)
def test_qest(cells, odd_rows, min_cell_n, sites, ddof, fmt, cells_out, hist_out):
    rows = [(site, measure, v) for site, measure, values in cells for v in values] + odd_rows
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "measure", "value"])
            writer.writerows(rows)
        argv = ["qest", "--data", str(data), "--min-cell-n", min_cell_n, "--ddof", ddof]
        if sites is not None:
            argv += ["--sites", sites]
        if fmt is not None:
            argv += ["--format", fmt]
        if cells_out:
            argv += ["--cells-out", str(Path(tmp) / "cells.csv")]
        if hist_out:
            argv += ["--hist-out", str(Path(tmp) / "hist.csv")]
        code, out, err = run_bounded(argv)
    assert code in (0, 2), (argv, rows, err)
    assert "Traceback" not in err, (argv, rows, err)
    assert "encountered" not in err, (argv, rows, err)  # numpy's RuntimeWarning text
    assert not NON_FINITE.search(out), (argv, rows, out)
