"""Random argv for the CLI: every run ends with exit 0, 2 or 3, in bounded
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
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["m", "w", "w%"]),
              st.lists(VALUE, min_size=1, max_size=3)),
    max_size=6,
)
ODD_ROWS = st.lists(
    st.tuples(st.sampled_from(["", " ", "a b", "s,1", '"q"', "#c", "é"]),
              st.sampled_from(["m", "", " ", "m,2", "μ"]), VALUE),
    max_size=3,
)
# Measure groups for --groups; a name holding "%" must match the CSV literally.
GROUPS = st.lists(
    st.lists(st.sampled_from(["m", "w", "w%", "%(m)s", "m%%"]), min_size=1, max_size=2),
    min_size=1,
    max_size=2,
)


# Flag values from the middle of each domain to its edges and past them.
NUMBER = st.sampled_from(
    ["0", "-0", "1", "-1", "0.05", "0.3", "0.5", "0.999", "2.5", "19", "-3.7", "1e-9",
     "1e-160", "5e-324", "1e5", "1e20", "1e154", "1e300", "1.7e308", "-1.7e308", "1e400",
     "nan", "inf", "-inf", "oops"]
)
SIZE = st.sampled_from(
    ["0", "1", "2", "3", "20", "1000", "-5", "2.5", "x", str(2**1022), str(2**1022 + 1),
     str(10**200), str(10**400)]
)
# simulate runs every trial, so its counts stay small
TRIALS = st.sampled_from(["-1", "0", "1", "7", "100"])
SIM_N = st.sampled_from(["2", "3", "20", "65", "1000", "2,20", "20,,3", ",", "0", "x",
                         str(2**1022), str(10**200), str(10**400)])
DESIGN = st.sampled_from(["one-sample", "paired", "two-sample", "bogus"])
FORMAT = st.sampled_from(["json", "csv", "human"])
# A [defaults] section for --config: each key absent, or a flag value, a
# value with "%" in it, a bad format or nothing.
DEFAULTS = st.fixed_dictionaries({}, optional={
    key: NUMBER | st.sampled_from(["5%", "%(x)s", "xml", "json", ""])
    for key in ["format", "alpha", "beta", "q_ceiling", "seed", "trials"]
})


def flags(**values):
    """argv for the given flags, leaving out those drawn as None.  Each is
    one --flag=value word, so that argparse takes "-inf" as a value."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()
            if value is not None]


def maybe(strategy):
    return st.none() | strategy


def write_ini(path, sections):
    """Write {section: {key: value}} as an INI file."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))


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
    fmt=st.none() | st.sampled_from(["json", "csv", "human"]),
    cells_out=st.booleans(),
    hist_out=st.booleans(),
    groups=maybe(GROUPS),
)
# site a's mean sums -inf and +inf, so numpy warns of an invalid value
@example(
    cells=[("a", "w", ["0", "0", "0"]), ("a", "w", ["1e308", "-1e308"]),
           ("b", "w", ["0", "0"]), ("a", "w", ["0", "1e308", "-1e308"])],
    odd_rows=[], min_cell_n="2", sites=None, fmt=None, cells_out=False,
    hist_out=False, groups=None,
)
def test_qest(cells, odd_rows, min_cell_n, sites, fmt, cells_out, hist_out, groups):
    rows = [(site, measure, v) for site, measure, values in cells for v in values] + odd_rows
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "measure", "value"])
            writer.writerows(rows)
        argv = ["qest", "--data", str(data), "--min-cell-n", min_cell_n]
        if sites is not None:
            argv += ["--sites", sites]
        if fmt is not None:
            argv += ["--format", fmt]
        if cells_out:
            argv += ["--cells-out", str(Path(tmp) / "cells.csv")]
        if hist_out:
            argv += ["--hist-out", str(Path(tmp) / "hist.csv")]
        if groups is not None:
            write_ini(Path(tmp) / "groups.ini",
                      {f"g{i}": {"measures": " ".join(names)} for i, names in enumerate(groups)})
            argv += ["--groups", str(Path(tmp) / "groups.ini")]
        code, out, err = run_bounded(argv)
    assert code in (0, 2), (argv, rows, err)
    assert "Traceback" not in err, (argv, rows, err)
    assert "encountered" not in err, (argv, rows, err)  # numpy's RuntimeWarning text
    assert not NON_FINITE.search(out), (argv, rows, out)


def check(argv, defaults=None):
    """Run argv, with a --config file holding defaults unless that is None."""
    with tempfile.TemporaryDirectory() as tmp:
        if defaults is not None:
            write_ini(Path(tmp) / "cfg.ini", {"defaults": defaults})
            argv = [*argv, f"--config={Path(tmp) / 'cfg.ini'}"]
        code, out, err = run_bounded(argv)
    assert code in (0, 2, 3), (argv, defaults, err)
    assert "Traceback" not in err, (argv, err)
    assert not NON_FINITE.search(out), (argv, out)


STATS = st.fixed_dictionaries({
    "design": maybe(DESIGN),
    "n": SIZE,
    "mean": maybe(NUMBER),
    "sd": maybe(NUMBER),
    "mean2": maybe(NUMBER),
    "sd2": maybe(NUMBER),
    "t": maybe(NUMBER),
    "nu": maybe(NUMBER),
    "alpha": maybe(NUMBER),
    "q": NUMBER,
    "format": FORMAT,
})


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["test", "replicate"]), values=STATS)
# an sd**2 that overflowed, a standard error that underflowed to 0, a q * n of inf
@example(command="test", values={
    "design": "two-sample", "n": "20", "mean": "2", "sd": "-1", "mean2": "0",
    "sd2": "1.7e308", "t": None, "nu": None, "alpha": None, "q": "0.1", "format": "human"})
@example(command="test", values={
    "design": "paired", "n": "20", "mean": "1e300", "sd": "5e-324", "mean2": None,
    "sd2": None, "t": None, "nu": None, "alpha": None, "q": "1e5", "format": "human"})
@example(command="test", values={
    "design": None, "n": str(2**1022), "mean": None, "sd": None, "mean2": None,
    "sd2": None, "t": "0.5", "nu": "19", "alpha": None, "q": "1e20", "format": "human"})
def test_test_and_replicate(command, values):
    check([command, *flags(**values)])


# beta just above alpha = 0.05, and beta near 1: R's minimum lies at u = qN
# below 1e-6 or above 1e6
BETA = NUMBER | st.sampled_from(["0.0500001", "0.999999999999"])


@settings(max_examples=300, deadline=None)
@given(values=st.fixed_dictionaries({
    "t": NUMBER, "nu": NUMBER, "n": SIZE, "alpha": maybe(NUMBER), "beta": maybe(BETA),
    "q_ceiling": maybe(NUMBER), "format": maybe(FORMAT),
}), defaults=maybe(DEFAULTS))
@example(values={
    "t": "1.72913355", "nu": "19", "n": "20", "alpha": None, "beta": "0.0500001",
    "q_ceiling": None, "format": None}, defaults=None)
@example(values={
    "t": "1.46e23", "nu": "0.5", "n": "2", "alpha": None, "beta": "0.999999999999",
    "q_ceiling": "1e300", "format": None}, defaults=None)
def test_range(values, defaults):
    check(["range", *flags(**values)], defaults)


@settings(max_examples=200, deadline=None)
@given(
    values=st.fixed_dictionaries({"nu": NUMBER, "alpha": maybe(NUMBER), "format": maybe(FORMAT)}),
    defaults=maybe(DEFAULTS),
)
@example(values={"nu": "1e300", "alpha": None, "format": "human"}, defaults=None)  # once hung
def test_thumb(values, defaults):
    check(["thumb", *flags(**values)], defaults)


@settings(max_examples=200, deadline=None)
@given(
    values=st.fixed_dictionaries({
        "mode": maybe(st.sampled_from(["fpr", "replication"])),
        "design": maybe(DESIGN),
        "n": SIM_N,
        "q_true": NUMBER,
        "q_test": maybe(NUMBER),
        "alpha": maybe(NUMBER),
        "trials": TRIALS,
        "seed": maybe(st.sampled_from(["0", "7", "-1", str(2**64)])),
        "t": maybe(NUMBER),
        "variant": maybe(st.sampled_from(["shared-s", "independent-s"])),
        "format": maybe(FORMAT),
    }),
    one_sided=st.booleans(),
    defaults=maybe(DEFAULTS),
)
# dist_t_crit at nu near 1e200 once hung
@example(values={
    "mode": None, "design": None, "n": str(10**200), "q_true": "0", "q_test": None,
    "alpha": None, "trials": "7", "seed": None, "t": None, "variant": None,
    "format": "human"}, one_sided=False, defaults=None)
# t1 * s1 and the repeat's statistic overflow, so numpy warned of it
@example(values={
    "mode": "replication", "design": None, "n": "2", "q_true": "1", "q_test": None,
    "alpha": None, "trials": "100", "seed": None, "t": "1.7e308",
    "variant": "independent-s", "format": "json"}, one_sided=False, defaults=None)
def test_simulate(values, one_sided, defaults):
    check(["simulate", *flags(**values), *(["--no-two-sided"] if one_sided else [])], defaults)
