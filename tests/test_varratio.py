import csv
import io
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from distnull.errors import DataFormatError, DegenerateSampleError, DomainError
from distnull.varratio import (
    IngestReport,
    MeasureGroupSpec,
    MultiSiteDataset,
    MultiSiteRecord,
    all_cells,
    cell_q,
    ingest,
    load_csv,
    load_groups,
    restrict,
    summarize,
    write_cells_csv,
    write_histogram_csv,
    write_summary_csv,
)


# independent brute-force definitions the fast paths are checked against

def manual_variance(values, ddof=1):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - ddof)


def manual_quantile(values, p):
    # linear interpolation between order statistics
    ordered = sorted(values)
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def rec(site, measure, value):
    return MultiSiteRecord(site=site, measure=measure, value=float(value))


def hand_records():
    # site means 0, 1, 2 -> between-variance exactly 1; site C has
    # within-variance exactly 4, so its ratio is exactly 0.25
    cells = {"A": [-1, 0, 1], "B": [0, 1, 2], "C": [0, 2, 4]}
    return [rec(site, "m", v) for site, values in cells.items() for v in values]


def random_records(seed=7):
    rng = random.Random(seed)
    rows = []
    for m in range(4):
        for s in range(rng.randint(2, 5)):
            count = rng.randint(3, 20)
            rows.extend(
                rec(f"site{s}", f"m{m}", rng.randrange(-40, 41)) for _ in range(count)
            )
    return rows


CSV_FIXTURE = """\
# multi-site export
site,measure,value

lab1,anchoring,1.5
lab1,anchoring,2.5
lab2,anchoring,2.0
lab2,anchoring,4.0
lab3,anchoring,bad
lab1,anchoring
 ,anchoring,3.0
lab9,solo,1.0
lab9,solo,2.0
"""


def test_record_validation():
    with pytest.raises(DomainError):
        rec("", "m", 1.0)
    with pytest.raises(DomainError):
        rec("A", "  ", 1.0)
    with pytest.raises(DomainError):
        rec("A", "m", math.nan)


class TestIngest:
    def test_basic_shape(self):
        dataset, report = ingest(hand_records())
        assert dataset.measures == ("m",)
        assert dataset.sites("m") == ("A", "B", "C")
        assert list(dataset.values("m", "C")) == [0.0, 2.0, 4.0]
        assert report.rows_read == 9
        assert report.rows_used == 9
        assert not report.bad_rows

    def test_values_are_stored_sorted(self):
        dataset, _ = ingest([rec("A", "m", v) for v in (3, 1, 2)] * 2 + [rec("B", "m", 0), rec("B", "m", 1)])
        assert list(dataset.values("m", "A")) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]

    def test_small_cells_dropped(self):
        rows = hand_records() + [rec("D", "m", 9.0)]
        dataset, report = ingest(rows, min_cell_n=3)
        assert dataset.sites("m") == ("A", "B", "C")
        assert ("m", "D", 1) in report.dropped_cells

    def test_single_site_measure_dropped(self):
        rows = hand_records() + [rec("A", "lonely", 1.0), rec("A", "lonely", 2.0)]
        dataset, report = ingest(rows)
        assert dataset.measures == ("m",)
        assert report.dropped_measures == ["lonely"]
        assert ("lonely", "A", 2) in report.dropped_cells

    def test_nothing_left_is_an_error(self):
        with pytest.raises(DataFormatError):
            ingest([rec("A", "m", 1.0), rec("A", "m", 2.0)])

    def test_min_cell_n_validation(self):
        with pytest.raises(DomainError):
            ingest(hand_records(), min_cell_n=1)

    def test_permutation_invariance(self):
        rows = random_records()
        shuffled = rows[:]
        random.Random(99).shuffle(shuffled)
        a, _ = ingest(rows)
        b, _ = ingest(shuffled)
        assert summarize(a) == summarize(b)
        assert all_cells(a) == all_cells(b)


class TestLoadCsv:
    def test_fixture_diagnostics(self):
        dataset, report = load_csv(io.StringIO(CSV_FIXTURE))
        assert dataset.measures == ("anchoring",)
        assert dataset.sites("anchoring") == ("lab1", "lab2")
        assert report.rows_read == 9
        assert report.rows_used == 4
        assert [lineno for lineno, _ in report.bad_rows] == [8, 9, 10]
        assert report.dropped_measures == ["solo"]

    def test_fixture_ratios(self):
        dataset, _ = load_csv(io.StringIO(CSV_FIXTURE))
        # site means 2 and 3 -> between = 0.5; within 0.5 and 2.0
        assert cell_q(dataset, "anchoring", "lab1").q == 1.0
        assert cell_q(dataset, "anchoring", "lab2").q == 0.25

    def test_header_must_match(self):
        with pytest.raises(DataFormatError):
            load_csv(io.StringIO("lab,measure,value\nA,m,1\nB,m,2\n"))
        with pytest.raises(DataFormatError):
            load_csv(io.StringIO(""))
        with pytest.raises(DataFormatError):
            load_csv(io.StringIO("site,measure\r,value\nA,m,1\n"))

    def test_header_case_and_spacing_are_forgiven(self):
        text = "Site , MEASURE , Value\nA,m,1\nA,m,2\nB,m,3\nB,m,5\n"
        dataset, report = load_csv(io.StringIO(text))
        assert dataset.sites("m") == ("A", "B")
        assert not report.bad_rows

    # Three comma-joined fields of random tokens: the tokens' own commas and
    # quotes vary the field count, and most lines still come close to a valid row.
    _TOKENS = st.sampled_from(["a", ",", '"', "\r", " ", "1", "2.5", "#", "\x00", "nan"])
    _FIELD = st.lists(_TOKENS, min_size=1, max_size=3).map("".join)

    @settings(max_examples=300)
    @given(st.lists(st.lists(_FIELD, min_size=3, max_size=3).map(",".join), max_size=8))
    @example(["c,m\rx,1"])
    def test_rows_match_a_per_line_csv_reader(self, lines):
        text = "site,measure,value\n" + "\n".join(lines) + "\nA,m,1\nA,m,2\nB,m,3\nB,m,5\n"
        rows_read, bad = 0, []
        for lineno, line in enumerate(io.StringIO(text), start=1):
            if lineno == 1 or not line.strip() or line.strip().startswith("#"):
                continue
            rows_read += 1
            try:
                fields = [f.strip() for f in next(csv.reader([line]))]
                ok = len(fields) == 3 and fields[0] and fields[1]
                ok = ok and math.isfinite(float(fields[2]))
            except (csv.Error, ValueError):
                ok = False
            if not ok:
                bad.append(lineno)
        _, report = load_csv(io.StringIO(text))
        assert report.rows_read == rows_read
        assert [lineno for lineno, _ in report.bad_rows] == bad

    def test_path_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_FIXTURE, encoding="utf-8")
        dataset, _ = load_csv(str(path))
        assert dataset.measures == ("anchoring",)


class TestCellQ:
    def test_hand_values(self):
        dataset, _ = ingest(hand_records())
        cell = cell_q(dataset, "m", "C")
        assert cell.between_var == 1.0
        assert cell.within_var == 4.0
        assert cell.q == 0.25
        assert cell_q(dataset, "m", "A").q == 1.0

    def test_ddof_zero(self):
        rows = [rec("A", "m", v) for v in (-1, 0, 1)] + [
            rec("B", "m", v) for v in (1, 2, 3)
        ]
        dataset, _ = ingest(rows)
        # means 0 and 2: between is 2 unbiased, 1 population
        assert cell_q(dataset, "m", "A", ddof=1).q == pytest.approx(2.0, rel=1e-15)
        assert cell_q(dataset, "m", "A", ddof=0).q == pytest.approx(1.5, rel=1e-15)
        with pytest.raises(DomainError):
            cell_q(dataset, "m", "A", ddof=2)

    def test_degenerate_cell(self):
        rows = hand_records() + [rec("D", "m", 5.0), rec("D", "m", 5.0)]
        dataset, _ = ingest(rows)
        with pytest.raises(DegenerateSampleError):
            cell_q(dataset, "m", "D")
        with pytest.warns(UserWarning, match="degenerate"):
            cells = all_cells(dataset)
        assert [c.site for c in cells] == ["A", "B", "C"]

    def test_overflowed_variances_make_a_cell_unusable(self):
        # site A's squared deviations overflow; site B's mean is 1e308, so the
        # between-site variance is inf for every cell of measure "b"
        rows = [rec("A", "a", v) for v in (1e308, -1e308)] + [
            rec("B", "a", v) for v in (1.0, 2.0)
        ]
        rows += [rec("A", "b", v) for v in (1.0, 2.0)] + [
            rec("B", "b", v) for v in (1e308, 1e308)
        ]
        dataset, _ = ingest(rows)
        for measure, site in [("a", "A"), ("b", "A"), ("b", "B")]:
            with pytest.raises(DegenerateSampleError, match="beyond float range"):
                cell_q(dataset, measure, site)
        with pytest.warns(UserWarning, match="beyond float range"):
            cells = all_cells(dataset)
        assert [(c.measure, c.site, c.q) for c in cells] == [("a", "B", 2.25)]

    def test_ratio_overflow_makes_a_cell_unusable(self):
        # within 5e-309 (subnormal), between about 5e299: q overflows
        rows = [rec("A", "m", v) for v in (0.0, 1e-154)] + [
            rec("B", "m", v) for v in (1e150, 2e150)
        ]
        dataset, _ = ingest(rows)
        with pytest.raises(DegenerateSampleError, match="q inf"):
            cell_q(dataset, "m", "A")

    def test_missing_cell(self):
        dataset, _ = ingest(hand_records())
        with pytest.raises(DomainError):
            cell_q(dataset, "m", "Z")
        with pytest.raises(DomainError):
            cell_q(dataset, "nope", "A")

    def test_matches_brute_force(self):
        rows = random_records()
        by_measure = {}
        for r in rows:
            by_measure.setdefault(r.measure, {}).setdefault(r.site, []).append(r.value)
        dataset, _ = ingest(rows)
        for cell in all_cells(dataset):
            sites = by_measure[cell.measure]
            expect_within = manual_variance(sites[cell.site])
            expect_between = manual_variance(
                [sum(v) / len(v) for v in sites.values()]
            )
            assert cell.within_var == pytest.approx(expect_within, rel=1e-12)
            assert cell.between_var == pytest.approx(expect_between, rel=1e-12)
            assert cell.q == pytest.approx(expect_between / expect_within, rel=1e-12)


class TestInvariance:
    @staticmethod
    def _dyadic_records(transform):
        # power-of-two cell and site counts keep every mean exact in
        # binary floating point, so these transforms are exact, not
        # approximate
        rng = random.Random(3)
        rows = []
        for measure in ("m1", "m2"):
            for site in ("s1", "s2", "s3", "s4"):
                rows.extend(
                    rec(site, measure, transform(rng.randrange(-50, 51)))
                    for _ in range(8)
                )
        return rows

    def _qs(self, transform):
        dataset, _ = ingest(self._dyadic_records(transform))
        return [c.q for c in all_cells(dataset)]

    def test_scale_invariance_is_exact(self):
        assert self._qs(lambda v: v) == self._qs(lambda v: 4 * v)

    def test_shift_invariance_is_exact(self):
        assert self._qs(lambda v: v) == self._qs(lambda v: v + 7)


class TestSummarize:
    def test_default_groups_match_brute_force(self):
        rows = random_records()
        dataset, _ = ingest(rows)
        cells = all_cells(dataset)
        for row in summarize(dataset):
            if row.group == "all":
                qs = [c.q for c in cells]
            else:
                qs = [c.q for c in cells if c.measure == row.group]
            assert row.datapoints == len(qs)
            assert row.mean_q == pytest.approx(sum(qs) / len(qs), rel=1e-12)
            assert row.q_lo == pytest.approx(manual_quantile(qs, 0.025), rel=1e-12)
            assert row.q_hi == pytest.approx(manual_quantile(qs, 0.975), rel=1e-12)

    def test_row_order_and_pooled_rows(self):
        rows = random_records()
        dataset, _ = ingest(rows)
        groups = [
            MeasureGroupSpec(group="first", measures=("m0", "m1"), set_label="1"),
            MeasureGroupSpec(group="second", measures=("m2",), set_label="1"),
            MeasureGroupSpec(group="third", measures=("m3",), set_label="2"),
        ]
        out = summarize(dataset, groups)
        assert [r.group for r in out] == ["first", "second", "third", "all 1", "all 2", "all"]
        pooled = next(r for r in out if r.group == "all 1")
        assert pooled.datapoints == out[0].datapoints + out[1].datapoints
        grand = out[-1]
        assert grand.datapoints == sum(r.datapoints for r in out[:3])

    def test_single_group_has_no_grand_row(self):
        dataset, _ = ingest(hand_records())
        out = summarize(dataset, [MeasureGroupSpec(group="only", measures=("m",))])
        assert [r.group for r in out] == ["only"]

    def test_single_datapoint_collapses_the_quantiles(self):
        rows = hand_records() + [rec("D", "m2", 5.0), rec("D", "m2", 5.0),
                                 rec("E", "m2", 1.0), rec("E", "m2", 3.0)]
        dataset, _ = ingest(rows)
        with pytest.warns(UserWarning, match="degenerate"):
            out = summarize(dataset, [MeasureGroupSpec(group="g", measures=("m2",))])
        assert len(out) == 1
        assert out[0].datapoints == 1
        assert out[0].mean_q == out[0].q_lo == out[0].q_hi

    def test_mean_of_huge_ratios_is_finite(self):
        # three cells with q = 6.75e307 each: their sum overflows, the mean does not
        rows = [rec(s, "m", v) for s in "ACD" for v in (0.0, 1e-4)] + [
            rec("B", "m", v) for v in (1e150, 2e150)
        ]
        dataset, _ = ingest(rows)
        (row,) = summarize(dataset)
        q_a, q_b = cell_q(dataset, "m", "A").q, cell_q(dataset, "m", "B").q
        assert row.datapoints == 4
        assert row.mean_q == pytest.approx(0.75 * q_a + 0.25 * q_b, rel=1e-15)

    def test_missing_measure_warns(self):
        dataset, _ = ingest(hand_records())
        groups = [MeasureGroupSpec(group="g", measures=("m", "ghost"))]
        with pytest.warns(UserWarning, match="ghost"):
            out = summarize(dataset, groups)
        assert out[0].datapoints == 3

    def test_empty_group_warns_and_is_omitted(self):
        dataset, _ = ingest(hand_records())
        groups = [
            MeasureGroupSpec(group="real", measures=("m",)),
            MeasureGroupSpec(group="ghost", measures=("nothing",)),
        ]
        with pytest.warns(UserWarning):
            out = summarize(dataset, groups)
        assert [r.group for r in out] == ["real"]

    def test_overlapping_groups_rejected(self):
        dataset, _ = ingest(hand_records())
        groups = [
            MeasureGroupSpec(group="a", measures=("m",)),
            MeasureGroupSpec(group="b", measures=("m",)),
        ]
        with pytest.raises(DomainError):
            summarize(dataset, groups)

    def test_site_filter_recomputes_between_variance(self):
        dataset, _ = ingest(hand_records())
        narrowed = restrict(dataset, lambda s: s in {"A", "C"})
        # means 0 and 2 -> between = 2, site C within = 4
        assert cell_q(narrowed, "m", "C").q == 0.5
        assert summarize(dataset, site_filter=lambda s: s in {"A", "C"}) == summarize(
            narrowed
        )

    def test_filter_that_removes_everything(self):
        dataset, _ = ingest(hand_records())
        narrowed = restrict(dataset, lambda s: s == "A")
        assert narrowed.is_empty()
        assert summarize(dataset, site_filter=lambda s: False) == []


class TestLoadGroups:
    GOOD = """\
[anchoring]
set = 1
measures = anchor1, anchor2
    anchor3

[gains]
set = 2
measures = gain1 gain2

[ungrouped]
measures = misc
"""

    def test_parse(self):
        groups = load_groups(io.StringIO(self.GOOD))
        assert groups[0] == MeasureGroupSpec(
            group="anchoring",
            measures=("anchor1", "anchor2", "anchor3"),
            set_label="1",
        )
        assert groups[1].measures == ("gain1", "gain2")
        assert groups[2].set_label is None

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFormatError):
            load_groups(io.StringIO("[g]\nmeasures = a\ncolor = red\n"))

    def test_missing_measures_rejected(self):
        with pytest.raises(DataFormatError):
            load_groups(io.StringIO("[g]\nset = 1\n"))

    def test_empty_measures_rejected(self):
        with pytest.raises(DataFormatError):
            load_groups(io.StringIO("[g]\nmeasures =\n"))

    def test_duplicate_measure_rejected(self):
        text = "[a]\nmeasures = x\n[b]\nmeasures = x y\n"
        with pytest.raises(DomainError):
            load_groups(io.StringIO(text))

    def test_no_groups_rejected(self):
        with pytest.raises(DataFormatError):
            load_groups(io.StringIO("\n"))

    def test_bad_ini_rejected(self):
        with pytest.raises(DataFormatError):
            load_groups(io.StringIO("measures = before any section\n"))


class TestWriters:
    def test_summary_round_trip(self):
        dataset, _ = ingest(random_records())
        rows = summarize(dataset)
        buf = io.StringIO()
        write_summary_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "group,datapoints,mean_q,q025,q975"
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert first[0] == rows[0].group
        assert float(first[2]) == rows[0].mean_q  # repr round-trips exactly

    def test_cells_csv(self):
        dataset, _ = ingest(hand_records())
        buf = io.StringIO()
        write_cells_csv(all_cells(dataset), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "measure,site,within_var,between_var,q"
        assert lines[3] == "m,C,4.0,1.0,0.25"

    def test_histogram_bins(self):
        buf = io.StringIO()
        write_histogram_csv([0.005, 0.015, 0.0151, 0.029], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == [1, 2, 1]

    def test_histogram_includes_the_top_edge(self):
        buf = io.StringIO()
        write_histogram_csv([0.01], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert int(lines[1].split(",")[2]) == 1

    def test_histogram_empty(self):
        buf = io.StringIO()
        write_histogram_csv([], buf)
        assert buf.getvalue().splitlines() == ["bin_lo,bin_hi,count"]

    def test_histogram_bad_width(self):
        with pytest.raises(DomainError):
            write_histogram_csv([0.1], io.StringIO(), bin_width=0.0)

    @pytest.mark.parametrize("top", [10_000.01, 2.3e43, math.inf, math.nan])
    def test_histogram_refuses_too_many_bins(self, top):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="histogram bins"):
            write_histogram_csv([0.5, top], buf)
        assert buf.getvalue() == ""

    def test_writers_accept_paths(self, tmp_path):
        dataset, _ = ingest(hand_records())
        dest = tmp_path / "cells.csv"
        write_cells_csv(all_cells(dataset), str(dest))
        assert dest.read_text().startswith("measure,site")


def test_ingest_report_defaults():
    report = IngestReport()
    assert report.rows_read == 0 and not report.bad_rows


def test_between_variance_is_computed_once_per_measure(monkeypatch):
    dataset, _ = ingest(hand_records())
    calls = []
    site_means = MultiSiteDataset.site_means

    def counted(self, measure):
        calls.append(measure)
        return site_means(self, measure)

    monkeypatch.setattr(MultiSiteDataset, "site_means", counted)
    all_cells(dataset)
    assert calls == ["m"]
    calls.clear()
    summarize(dataset)
    assert calls == ["m"]


def test_degenerate_cell_warnings_name_the_caller():
    rows = hand_records() + [rec("D", "m", 5.0), rec("D", "m", 5.0)]
    dataset, _ = ingest(rows)
    for run in (all_cells, summarize):
        with pytest.warns(UserWarning, match="degenerate") as record:
            run(dataset)
        assert record[0].filename == __file__
    # the group-level warnings too: a missing measure and an empty group
    groups = [
        MeasureGroupSpec(group="g", measures=("m", "ghost")),
        MeasureGroupSpec(group="void", measures=("absent",)),
    ]
    with pytest.warns(UserWarning) as record:
        summarize(dataset, groups)
    assert sorted(str(w.message).split(":")[0] for w in record) == [
        "group 'g'",
        "group 'void'",
        "group 'void' is empty; row omitted",
        "skipping degenerate cell",
    ]
    assert all(w.filename == __file__ for w in record)
