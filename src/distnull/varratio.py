"""Variance-ratio estimation from multi-site measurements.

Given long-format records (site, measure, value), each (measure, site)
cell gets a variance ratio q: the variance of per-site means of that
measure (between-site) divided by the cell's own sample variance
(within-site).  Grouped summaries report the mean and the 2.5%/97.5%
empirical quantiles of the pooled q values, which is the shape of
evidence needed to pick a defensible q for the distributional tests.

Conventions, since the underlying procedure leaves them open: both
variances use the unbiased n-1 denominator, between-site variance
weights every site mean equally regardless of cell size, and the
p-quantile interpolates linearly between the order statistics around index
(n - 1)p (the "type 7" rule).  A mean is the exactly rounded sum of x/n,
kept within the values' range: it cannot overflow, and n copies of v give v.
"""

from __future__ import annotations

import bisect
import configparser
import csv
import math
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import DataFormatError, DegenerateSampleError, DomainError

__all__ = [
    "MultiSiteRecord",
    "MultiSiteDataset",
    "IngestReport",
    "VarianceRatioCell",
    "MeasureGroupSpec",
    "GroupSummary",
    "ingest",
    "load_csv",
    "load_groups",
    "cell_q",
    "all_cells",
    "restrict",
    "summarize",
    "qest",
    "write_cells_csv",
    "write_histogram_csv",
]

CSV_HEADER = ("site", "measure", "value")
# write_histogram_csv bins q this wide, and refuses a q that needs more
# bins than _MAX_BINS.
_BIN_WIDTH = 0.01
_MAX_BINS = 10**6


@dataclass(frozen=True)
class MultiSiteRecord:
    """One measurement of one measure at one site."""

    site: str
    measure: str
    value: float

    def __post_init__(self) -> None:
        _check_row(self.site, self.measure, self.value)


def _check_row(site: str, measure: str, value: float) -> None:
    if not site.strip():
        raise DomainError("site identifier must be non-empty")
    if not measure.strip():
        raise DomainError("measure identifier must be non-empty")
    if not math.isfinite(value):
        raise DomainError(f"value must be finite, got {value}")


@dataclass
class IngestReport:
    """Diagnostics from building a dataset.

    ``bad_rows`` holds (line number, reason) for rows that failed to
    parse; ``dropped_cells`` holds (measure, site, count) for each cell
    below the observation threshold and each cell of a dropped measure;
    ``dropped_measures`` lists measures left with fewer than two qualifying sites.
    """

    rows_read: int = 0
    rows_used: int = 0
    bad_rows: list[tuple[int, str]] = field(default_factory=list)
    dropped_cells: list[tuple[str, str, int]] = field(default_factory=list)
    dropped_measures: list[str] = field(default_factory=list)


class MultiSiteDataset:
    """Validated (measure, site) cells of measurement values.

    ``ingest`` and ``load_csv`` keep only cells of at least ``min_cell_n``
    observations and measures at two or more sites.  Cells are sorted tuples,
    so permuted record streams give identical datasets and no caller can edit one.
    """

    def __init__(self, cells: dict[str, dict[str, Sequence[float]]]):
        self._cells = {
            measure: {
                site: tuple(sorted(map(float, values)))
                for site, values in sorted(sites.items())
            }
            for measure, sites in sorted(cells.items())
        }

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(self._cells)

    def sites(self, measure: str) -> tuple[str, ...]:
        return tuple(self._lookup(measure))

    def values(self, measure: str, site: str) -> tuple[float, ...]:
        sites = self._lookup(measure)
        if site not in sites:
            raise DomainError(f"no cell for measure {measure!r} at site {site!r}")
        return sites[site]

    def site_means(self, measure: str) -> list[float]:
        return [_mean(cell) for cell in self._lookup(measure).values()]

    def is_empty(self) -> bool:
        return not self._cells

    def _lookup(self, measure: str) -> dict[str, tuple[float, ...]]:
        if measure not in self._cells:
            raise DomainError(f"no such measure {measure!r}")
        return self._cells[measure]


def _check_min_cell_n(min_cell_n: int) -> None:
    if min_cell_n < 2:
        raise DomainError(f"min_cell_n must be >= 2 (a variance needs it), got {min_cell_n}")


def _build(
    cells: dict[str, dict[str, list[float]]], min_cell_n: int, report: IngestReport
) -> MultiSiteDataset:
    kept: dict[str, dict[str, list[float]]] = {}
    for measure, sites in cells.items():
        qualifying = {}
        for site, values in sites.items():
            if len(values) >= min_cell_n:
                qualifying[site] = values
            else:
                report.dropped_cells.append((measure, site, len(values)))
        if len(qualifying) >= 2:
            kept[measure] = qualifying
        else:
            report.dropped_measures.append(measure)
            report.dropped_cells.extend(
                (measure, site, len(values)) for site, values in qualifying.items()
            )
    if not kept:
        raise DataFormatError(
            "empty dataset: no measure has two or more sites with "
            f"at least {min_cell_n} observations each"
        )
    report.rows_used = sum(len(v) for sites in kept.values() for v in sites.values())
    return MultiSiteDataset(kept)


def ingest(
    records: Iterable[MultiSiteRecord], min_cell_n: int = 2
) -> tuple[MultiSiteDataset, IngestReport]:
    """Build a validated dataset from records, with drop diagnostics."""
    _check_min_cell_n(min_cell_n)
    report = IngestReport()
    cells = defaultdict(lambda: defaultdict(list))
    for rec in records:
        report.rows_read += 1
        cells[rec.measure][rec.site].append(rec.value)
    return _build(cells, min_cell_n, report), report


def load_csv(
    source: str | TextIO, min_cell_n: int = 2
) -> tuple[MultiSiteDataset, IngestReport]:
    """Read a ``site,measure,value`` CSV file into a dataset.

    Lines starting with ``#`` and blank lines are skipped.  Each line is
    one row; quoted fields follow CSV rules.  Malformed rows (wrong field
    count, broken quoting, empty identifier, non-numeric value) are
    recorded in the report with their line numbers and do not abort the
    load; the header row must match exactly.
    """
    _check_min_cell_n(min_cell_n)
    report = IngestReport()
    cells = defaultdict(lambda: defaultdict(list))
    seen_header = False
    with _opened(source, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not seen_header:
                try:
                    header = tuple(f.strip().lower() for f in next(csv.reader([line])))
                except csv.Error:
                    header = ()
                if header != CSV_HEADER:
                    raise DataFormatError(
                        f"line {lineno}: expected header {','.join(CSV_HEADER)!r}, "
                        f"got {stripped!r}"
                    )
                seen_header = True
                continue
            report.rows_read += 1
            try:
                fields = next(csv.reader([line]))
                if len(fields) != 3:
                    raise DataFormatError(f"expected 3 fields, got {len(fields)}")
                site, measure, raw_value = fields
                site, measure = site.strip(), measure.strip()
                value = float(raw_value.strip())
                _check_row(site, measure, value)
            except (csv.Error, DataFormatError, ValueError) as exc:
                report.bad_rows.append((lineno, str(exc)))
                continue
            cells[measure][site].append(value)
    if not seen_header:
        raise DataFormatError("no header row found")
    return _build(cells, min_cell_n, report), report


@contextmanager
def _opened(source: str | TextIO, mode: str) -> Iterator[TextIO]:
    if hasattr(source, "read" if mode == "r" else "write"):
        yield source
        return
    with open(source, mode, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{source!r} is not UTF-8: {exc}") from exc


@dataclass(frozen=True)
class VarianceRatioCell:
    """q = between_var / within_var for one (measure, site) cell."""

    measure: str
    site: str
    within_var: float
    between_var: float
    q: float


@dataclass(frozen=True)
class MeasureGroupSpec:
    """Named group of measures, optionally tagged with a set label."""

    group: str
    measures: tuple[str, ...]
    set_label: str | None = None

    def __post_init__(self) -> None:
        if not self.measures:
            raise DomainError(f"group {self.group!r} lists no measures")


@dataclass(frozen=True)
class GroupSummary:
    """One output row: pooled q statistics for a group of measures."""

    group: str
    datapoints: int
    mean_q: float
    q_lo: float
    q_hi: float


def _mean(values: Sequence[float]) -> float:
    # halved terms keep fsum finite; the clamp caps an overflow and makes copies of v give v
    n = len(values)
    return min(max(2.0 * math.fsum(x / (2 * n) for x in values), min(values)), max(values))


def _variance(values: Sequence[float]) -> float:
    # d * d is inf past the float range, where d ** 2 raises; _cell rejects inf
    m, n = _mean(values), len(values)
    return _mean([d * d for d in (x - m for x in values)]) * (n / (n - 1))


def _quantile(ordered: Sequence[float], p: float) -> float:
    # type 7, lerping from the nearer order statistic as numpy's "linear" does
    last = len(ordered) - 1
    i = min(math.floor(last * p), last)
    lo, hi, t = ordered[i], ordered[min(i + 1, last)], last * p - i
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


def _cell(measure: str, site: str, cell: Sequence[float], between: float) -> VarianceRatioCell:
    within = _variance(cell)
    if within == 0.0:
        raise DegenerateSampleError(
            f"cell ({measure!r}, {site!r}) has zero within-site variance"
        )
    q = between / within
    if not (math.isfinite(within) and math.isfinite(between) and math.isfinite(q)):
        raise DegenerateSampleError(
            f"cell ({measure!r}, {site!r}) is beyond float range: within-site "
            f"variance {within!r}, between-site variance {between!r}, q {q!r}"
        )
    return VarianceRatioCell(measure, site, within, between, q)


def cell_q(dataset: MultiSiteDataset, measure: str, site: str) -> VarianceRatioCell:
    """Variance ratio for one cell.

    Parameters
    ----------
    dataset : MultiSiteDataset
    measure, site : str
        Cell coordinates; the cell must exist in the dataset.

    Returns
    -------
    VarianceRatioCell
        ``within_var`` is the sample variance of the cell's values and
        ``between_var`` that of the per-site means of this measure across
        all of its qualifying sites, each site weighted equally, both with
        the n-1 denominator; ``q`` is their ratio.

    Raises
    ------
    DegenerateSampleError
        If the cell's values are all equal (within_var = 0, q undefined),
        or a variance or q overflows a float.
    """
    between = _variance(dataset.site_means(measure))
    return _cell(measure, site, dataset.values(measure, site), between)


def _cell_table(
    dataset: MultiSiteDataset, measures: Iterable[str]
) -> dict[str, list[VarianceRatioCell]]:
    # Every cell once, with one between-site variance per measure.  all_cells,
    # summarize and qest call this directly, so stacklevel=3 names their caller.
    table: dict[str, list[VarianceRatioCell]] = {}
    for measure in measures:
        between = _variance(dataset.site_means(measure))
        cells = table[measure] = []
        for site in dataset.sites(measure):
            try:
                cells.append(_cell(measure, site, dataset.values(measure, site), between))
            except DegenerateSampleError as exc:
                warnings.warn(f"skipping degenerate cell: {exc}", stacklevel=3)
    return table


def all_cells(dataset: MultiSiteDataset) -> list[VarianceRatioCell]:
    """Every computable cell ratio; degenerate cells are skipped with a warning."""
    table = _cell_table(dataset, dataset.measures)
    return [cell for cells in table.values() for cell in cells]


def restrict(
    dataset: MultiSiteDataset, site_filter: Callable[[str], bool]
) -> MultiSiteDataset:
    """Dataset limited to sites accepted by the predicate.

    Measures left with fewer than two qualifying sites drop out.  The
    result may be empty; downstream summaries handle that with warnings
    rather than errors.
    """
    kept: dict[str, dict[str, tuple[float, ...]]] = {}
    for measure in dataset.measures:
        sites = {
            site: dataset.values(measure, site)
            for site in dataset.sites(measure)
            if site_filter(site)
        }
        if len(sites) >= 2:
            kept[measure] = sites
    return MultiSiteDataset(kept)


def _summary_row(group: str, qs: list[float]) -> GroupSummary:
    ordered = sorted(qs)
    lo, hi = _quantile(ordered, 0.025), _quantile(ordered, 0.975)
    return GroupSummary(group, len(qs), _mean(ordered), lo, hi)


def _check_disjoint(groups: list[MeasureGroupSpec]) -> None:
    seen: dict[str, str] = {}
    for spec in groups:
        for measure in spec.measures:
            if measure in seen:
                raise DomainError(
                    f"measure {measure!r} appears in groups "
                    f"{seen[measure]!r} and {spec.group!r}"
                )
            seen[measure] = spec.group


def summarize(
    dataset: MultiSiteDataset,
    groups: list[MeasureGroupSpec] | None = None,
    site_filter: Callable[[str], bool] | None = None,
) -> list[GroupSummary]:
    """Grouped quantile summary of the pooled per-cell variance ratios.

    Parameters
    ----------
    dataset : MultiSiteDataset
    groups : list of MeasureGroupSpec, optional
        Measure grouping; measures must not repeat across groups.  When
        omitted, every measure forms its own group.
    site_filter : callable, optional
        When given, summarize ``restrict(dataset, site_filter)`` instead.

    Returns
    -------
    list of GroupSummary
        One row per non-empty group, in input order; then one ``all
        <set>`` row per distinct set label, and an ``all`` row pooling
        every group when there are at least two.  Groups with no
        computable cells are dropped with a warning.
    """
    if site_filter is not None:
        dataset = restrict(dataset, site_filter)
    measures = dataset.measures
    if groups is not None:
        _check_disjoint(groups)
        measures = [m for spec in groups for m in spec.measures if m in measures]
    return _pool(_cell_table(dataset, measures), groups)


def qest(
    dataset: MultiSiteDataset, groups: list[MeasureGroupSpec] | None = None
) -> tuple[list[VarianceRatioCell], list[GroupSummary]]:
    """``(all_cells(dataset), summarize(dataset, groups))``, each cell computed once.

    Warns as those two calls would, in that order, except that a degenerate
    cell is reported once, not again for its group.
    """
    if groups is not None:
        _check_disjoint(groups)
    table = _cell_table(dataset, dataset.measures)
    return [cell for cells in table.values() for cell in cells], _pool(table, groups)


def _pool(
    table: dict[str, list[VarianceRatioCell]], groups: list[MeasureGroupSpec] | None
) -> list[GroupSummary]:
    # summarize's rows from a table holding each dataset measure the groups name;
    # summarize and qest call this directly, so stacklevel=3 names their caller.
    if groups is None:
        groups = [MeasureGroupSpec(group=m, measures=(m,)) for m in table]
    rows: list[GroupSummary] = []
    pooled_by_label: dict[str, list[float]] = {}
    pooled_all: list[float] = []
    for spec in groups:
        for measure in (m for m in spec.measures if m not in table):
            warnings.warn(
                f"group {spec.group!r}: measure {measure!r} not in dataset", stacklevel=3
            )
        qs = [cell.q for m in spec.measures for cell in table.get(m, ())]
        if not qs:
            warnings.warn(f"group {spec.group!r} is empty; row omitted", stacklevel=3)
            continue
        rows.append(_summary_row(spec.group, qs))
        if spec.set_label is not None:
            pooled_by_label.setdefault(spec.set_label, []).extend(qs)
        pooled_all.extend(qs)
    n_nonempty = len(rows)
    rows.extend(_summary_row(f"all {label}", qs) for label, qs in pooled_by_label.items())
    if n_nonempty > 1:
        rows.append(_summary_row("all", pooled_all))
    return rows


def load_groups(source: str | TextIO) -> list[MeasureGroupSpec]:
    """Read a measure-grouping config file.

    INI format: one section per group, a required ``measures`` key
    listing measure names separated by commas or whitespace, and an
    optional ``set`` label.  Values are read literally: a ``%`` is part of
    the name, as in the CSV::

        [anchoring]
        set = 1
        measures = anchoring1, anchoring2, anchoring3, anchoring4
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with _opened(source, "r") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise DataFormatError(f"bad group config: {exc}") from exc
    groups = []
    for section in parser.sections():
        keys = set(parser[section])
        unknown = keys - {"measures", "set"}
        if unknown:
            raise DataFormatError(
                f"group {section!r}: unknown keys {sorted(unknown)}"
            )
        if "measures" not in keys:
            raise DataFormatError(f"group {section!r}: missing 'measures' key")
        measures = tuple(parser[section]["measures"].replace(",", " ").split())
        if not measures:
            raise DataFormatError(f"group {section!r}: 'measures' lists no names")
        groups.append(
            MeasureGroupSpec(
                group=section,
                measures=measures,
                set_label=parser[section].get("set"),
            )
        )
    if not groups:
        raise DataFormatError("group config defines no groups")
    _check_disjoint(groups)
    return groups


def write_cells_csv(cells: list[VarianceRatioCell], dest: str | TextIO) -> None:
    """Per-cell ratios as CSV: measure,site,within_var,between_var,q."""
    with _opened(dest, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["measure", "site", "within_var", "between_var", "q"])
        for cell in cells:
            writer.writerow(
                [
                    cell.measure,
                    cell.site,
                    repr(cell.within_var),
                    repr(cell.between_var),
                    repr(cell.q),
                ]
            )


def write_histogram_csv(q_values: Iterable[float], dest: str | TextIO) -> None:
    """Histogram of q in bins [lo, hi) of width 0.01, the last closed: bin_lo,bin_hi,count."""
    values = sorted(q_values)
    # a nan sorts anywhere, so look for it before trusting values[-1]
    high = next((v for v in values if math.isnan(v)), values[-1] if values else 0.0)
    if not high / _BIN_WIDTH <= _MAX_BINS:
        raise DomainError(
            f"q up to {high!r} needs more than {_MAX_BINS} histogram "
            f"bins of width {_BIN_WIDTH!r}"
        )
    with _opened(dest, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        if not values:
            return
        n_bins = max(1, math.ceil(high / _BIN_WIDTH))
        n_bins += n_bins * _BIN_WIDTH < high  # ceil(q / 0.01) * 0.01 can be one ulp short of q
        edges = [i * _BIN_WIDTH for i in range(n_bins + 1)]
        below = [bisect.bisect_left(values, e) for e in edges[:-1]]
        below.append(bisect.bisect_right(values, edges[-1]))
        for i in range(len(edges) - 1):
            writer.writerow([repr(edges[i]), repr(edges[i + 1]), below[i + 1] - below[i]])
