"""Variance-ratio estimation from multi-site measurements.

Given long-format records (site, measure, value), each (measure, site)
cell gets a variance ratio q: the variance of per-site means of that
measure (between-site) divided by the cell's own sample variance
(within-site).  Grouped summaries report the mean and the 2.5%/97.5%
empirical quantiles of the pooled q values, which is the shape of
evidence needed to pick a defensible q for the distributional tests.

Conventions, since the underlying procedure leaves them open: variances
use the unbiased n-1 denominator by default (``ddof=1``; pass 0 for the
population form), between-site variance weights every site mean equally
regardless of cell size, and quantiles interpolate linearly between
order statistics (the "type 7" rule, numpy's default).
"""

from __future__ import annotations

import configparser
import csv
import math
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

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
    "write_summary_csv",
    "write_cells_csv",
    "write_histogram_csv",
]

CSV_HEADER = ("site", "measure", "value")
# write_histogram_csv refuses a q that needs more bins than this.
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
    parse; ``dropped_cells`` holds (measure, site, count) for cells
    below the observation threshold; ``dropped_measures`` lists measures
    left with fewer than two qualifying sites.
    """

    rows_read: int = 0
    rows_used: int = 0
    bad_rows: list[tuple[int, str]] = field(default_factory=list)
    dropped_cells: list[tuple[str, str, int]] = field(default_factory=list)
    dropped_measures: list[str] = field(default_factory=list)


class MultiSiteDataset:
    """Validated (measure, site) cells of measurement values.

    Every stored cell has at least ``min_cell_n`` observations and every
    stored measure appears at two or more sites.  Cell values are kept
    sorted, so datasets built from permuted record streams are identical.
    """

    def __init__(self, cells: dict[str, dict[str, np.ndarray]], min_cell_n: int):
        self._cells = {
            measure: {
                site: np.sort(np.asarray(values, dtype=float))
                for site, values in sorted(sites.items())
            }
            for measure, sites in sorted(cells.items())
        }
        self.min_cell_n = min_cell_n

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(self._cells)

    def sites(self, measure: str) -> tuple[str, ...]:
        return tuple(self._lookup(measure))

    def values(self, measure: str, site: str) -> np.ndarray:
        sites = self._lookup(measure)
        if site not in sites:
            raise DomainError(f"no cell for measure {measure!r} at site {site!r}")
        return sites[site]

    def site_means(self, measure: str) -> np.ndarray:
        sites = self._lookup(measure)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan; _cell rejects it
            return np.array([cell.mean() for cell in sites.values()])

    def is_empty(self) -> bool:
        return not self._cells

    def _lookup(self, measure: str) -> dict[str, np.ndarray]:
        if measure not in self._cells:
            raise DomainError(f"no such measure {measure!r}")
        return self._cells[measure]


def _check_min_cell_n(min_cell_n: int) -> None:
    if min_cell_n < 2:
        raise DomainError(f"min_cell_n must be >= 2 (a variance needs it), got {min_cell_n}")


def _check_ddof(ddof: int) -> None:
    if ddof not in (0, 1):
        raise DomainError(f"ddof must be 0 or 1, got {ddof!r}")


def _build(
    cells: dict[str, dict[str, list[float]]], min_cell_n: int, report: IngestReport
) -> MultiSiteDataset:
    kept: dict[str, dict[str, np.ndarray]] = {}
    for measure, sites in cells.items():
        qualifying = {}
        for site, values in sites.items():
            if len(values) >= min_cell_n:
                qualifying[site] = np.asarray(values)
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
    return MultiSiteDataset(kept, min_cell_n)


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


def _variance(values: np.ndarray, ddof: int) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan; _cell rejects it
        return float(np.var(values, ddof=ddof))


def _cell(
    measure: str, site: str, values: np.ndarray, between: float, ddof: int
) -> VarianceRatioCell:
    within = _variance(values, ddof)
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
    return VarianceRatioCell(
        measure=measure,
        site=site,
        within_var=within,
        between_var=between,
        q=q,
    )


def cell_q(
    dataset: MultiSiteDataset, measure: str, site: str, ddof: int = 1
) -> VarianceRatioCell:
    """Variance ratio for one cell.

    Parameters
    ----------
    dataset : MultiSiteDataset
    measure, site : str
        Cell coordinates; the cell must exist in the dataset.
    ddof : int
        Variance denominator correction, 1 (unbiased, default) or 0.

    Returns
    -------
    VarianceRatioCell
        ``within_var`` is the sample variance of the cell's values;
        ``between_var`` is the variance of the per-site means of this
        measure across all of its qualifying sites, each site weighted
        equally; ``q`` is their ratio.

    Raises
    ------
    DegenerateSampleError
        If the cell's values are all equal (within_var = 0, q undefined),
        or a variance or q overflows a float.
    """
    _check_ddof(ddof)
    values = dataset.values(measure, site)
    between = _variance(dataset.site_means(measure), ddof)
    return _cell(measure, site, values, between, ddof)


def _cell_table(
    dataset: MultiSiteDataset, measures: Iterable[str], ddof: int
) -> dict[str, list[VarianceRatioCell]]:
    # Every cell once, with one between-site variance per measure.  all_cells
    # and summarize call this directly, so stacklevel=3 names their caller.
    table: dict[str, list[VarianceRatioCell]] = {}
    for measure in measures:
        between = _variance(dataset.site_means(measure), ddof)
        cells = table[measure] = []
        for site in dataset.sites(measure):
            try:
                cells.append(_cell(measure, site, dataset.values(measure, site), between, ddof))
            except DegenerateSampleError as exc:
                warnings.warn(f"skipping degenerate cell: {exc}", stacklevel=3)
    return table


def all_cells(dataset: MultiSiteDataset, ddof: int = 1) -> list[VarianceRatioCell]:
    """Every computable cell ratio; degenerate cells are skipped with a warning."""
    _check_ddof(ddof)
    table = _cell_table(dataset, dataset.measures, ddof)
    return [cell for cells in table.values() for cell in cells]


def restrict(
    dataset: MultiSiteDataset, site_filter: Callable[[str], bool]
) -> MultiSiteDataset:
    """Dataset limited to sites accepted by the predicate.

    Measures left with fewer than two qualifying sites drop out.  The
    result may be empty; downstream summaries handle that with warnings
    rather than errors.
    """
    kept: dict[str, dict[str, np.ndarray]] = {}
    for measure in dataset.measures:
        sites = {
            site: dataset.values(measure, site)
            for site in dataset.sites(measure)
            if site_filter(site)
        }
        if len(sites) >= 2:
            kept[measure] = sites
    return MultiSiteDataset(kept, dataset.min_cell_n)


def _summary_row(group: str, qs: list[float]) -> GroupSummary:
    arr = np.asarray(qs)
    lo, hi = np.quantile(arr, [0.025, 0.975])
    with np.errstate(over="ignore"):
        mean = float(arr.mean())
    if not math.isfinite(mean):  # the sum overflowed; the mean is at most max(q)
        mean = float(np.sum(arr / arr.size))
    return GroupSummary(
        group=group,
        datapoints=len(qs),
        mean_q=mean,
        q_lo=float(lo),
        q_hi=float(hi),
    )


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
    ddof: int = 1,
) -> list[GroupSummary]:
    """Grouped quantile summary of the pooled per-cell variance ratios.

    Parameters
    ----------
    dataset : MultiSiteDataset
    groups : list of MeasureGroupSpec, optional
        Measure grouping; measures must not repeat across groups.  When
        omitted, every measure forms its own group.
    site_filter : callable, optional
        Predicate on site identifiers; when given, the whole analysis
        (between-site variances included) is recomputed on the
        restricted dataset.
    ddof : int
        Variance denominator correction for both variances.

    Returns
    -------
    list of GroupSummary
        One row per non-empty group, in input order; then one ``all
        <set>`` row per distinct set label, and an ``all`` row pooling
        every group when there are at least two.  Groups with no
        computable cells are dropped with a warning.
    """
    _check_ddof(ddof)
    if site_filter is not None:
        dataset = restrict(dataset, site_filter)
    measures = dataset.measures
    if groups is not None:
        _check_disjoint(groups)
        measures = [m for spec in groups for m in spec.measures if m in measures]
    return _pool(_cell_table(dataset, measures, ddof), groups)


def _pool(
    table: dict[str, list[VarianceRatioCell]], groups: list[MeasureGroupSpec] | None
) -> list[GroupSummary]:
    # summarize's rows from a table holding each dataset measure the groups name;
    # summarize calls this directly, so stacklevel=3 names its caller.
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
    optional ``set`` label::

        [anchoring]
        set = 1
        measures = anchoring1, anchoring2, anchoring3, anchoring4
    """
    parser = configparser.ConfigParser()
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


def write_summary_csv(rows: list[GroupSummary], dest: str | TextIO) -> None:
    """Summary rows as CSV: group,datapoints,mean_q,q025,q975."""
    with _opened(dest, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "datapoints", "mean_q", "q025", "q975"])
        for row in rows:
            writer.writerow(
                [row.group, row.datapoints, repr(row.mean_q), repr(row.q_lo), repr(row.q_hi)]
            )


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


def write_histogram_csv(
    q_values: Iterable[float], dest: str | TextIO, bin_width: float = 0.01
) -> None:
    """Histogram of q values in fixed-width bins: bin_lo,bin_hi,count."""
    if not (bin_width > 0.0 and math.isfinite(bin_width)):
        raise DomainError(f"bin_width must be positive, got {bin_width}")
    values = np.asarray(list(q_values), dtype=float)
    top = float(values.max()) / bin_width if values.size else 0.0
    if not top <= _MAX_BINS:
        raise DomainError(
            f"q up to {float(values.max())!r} needs more than {_MAX_BINS} histogram "
            f"bins of width {bin_width!r}"
        )
    with _opened(dest, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        if values.size == 0:
            return
        n_bins = max(1, math.ceil(top))
        edges = np.arange(n_bins + 1) * bin_width
        counts, _ = np.histogram(values, bins=edges)
        for i, count in enumerate(counts):
            writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(count)])
