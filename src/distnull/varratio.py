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


@dataclass(frozen=True)
class MultiSiteRecord:
    """One measurement of one measure at one site."""

    site: str
    measure: str
    value: float

    def __post_init__(self) -> None:
        if not self.site.strip():
            raise DomainError("site identifier must be non-empty")
        if not self.measure.strip():
            raise DomainError("measure identifier must be non-empty")
        if not math.isfinite(self.value):
            raise DomainError(f"value must be finite, got {self.value}")


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
        return np.array([cell.mean() for cell in sites.values()])

    def is_empty(self) -> bool:
        return not self._cells

    def _lookup(self, measure: str) -> dict[str, np.ndarray]:
        if measure not in self._cells:
            raise DomainError(f"no such measure {measure!r}")
        return self._cells[measure]


def _check_min_cell_n(min_cell_n: int) -> int:
    if min_cell_n < 2:
        raise DomainError(f"min_cell_n must be >= 2 (a variance needs it), got {min_cell_n}")
    return min_cell_n


def _check_ddof(ddof: int) -> int:
    if ddof not in (0, 1):
        raise DomainError(f"ddof must be 0 or 1, got {ddof!r}")
    return ddof


def _build(
    records: Iterable[MultiSiteRecord], min_cell_n: int, report: IngestReport
) -> MultiSiteDataset:
    raw: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        raw.setdefault(rec.measure, {}).setdefault(rec.site, []).append(rec.value)

    kept: dict[str, dict[str, np.ndarray]] = {}
    for measure, sites in raw.items():
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
    records = list(records)
    report.rows_read = len(records)
    return _build(records, min_cell_n, report), report


def load_csv(
    source: str | TextIO, min_cell_n: int = 2
) -> tuple[MultiSiteDataset, IngestReport]:
    """Read a ``site,measure,value`` CSV file into a dataset.

    Lines starting with ``#`` and blank lines are skipped.  Malformed
    rows (wrong field count, empty identifier, non-numeric value) are
    recorded in the report with their line numbers and do not abort the
    load; the header row must match exactly.
    """
    _check_min_cell_n(min_cell_n)
    report = IngestReport()
    records: list[MultiSiteRecord] = []
    seen_header = False
    with _open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = next(csv.reader([line]))
            if not seen_header:
                normalized = tuple(f.strip().lower() for f in fields)
                if normalized != CSV_HEADER:
                    raise DataFormatError(
                        f"line {lineno}: expected header {','.join(CSV_HEADER)!r}, "
                        f"got {stripped!r}"
                    )
                seen_header = True
                continue
            report.rows_read += 1
            if len(fields) != 3:
                report.bad_rows.append((lineno, f"expected 3 fields, got {len(fields)}"))
                continue
            site, measure, raw_value = (f.strip() for f in fields)
            try:
                record = MultiSiteRecord(site, measure, float(raw_value))
            except (ValueError, DomainError) as exc:
                report.bad_rows.append((lineno, str(exc)))
                continue
            records.append(record)
    if not seen_header:
        raise DataFormatError("no header row found")
    return _build(records, min_cell_n, report), report


@contextmanager
def _open_text(source: str | TextIO) -> Iterator[TextIO]:
    if hasattr(source, "read"):
        yield source
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh


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
    return float(np.var(values, ddof=ddof))


def _cell(
    measure: str, site: str, values: np.ndarray, between: float, ddof: int
) -> VarianceRatioCell:
    within = _variance(values, ddof)
    if within == 0.0:
        raise DegenerateSampleError(
            f"cell ({measure!r}, {site!r}) has zero within-site variance"
        )
    return VarianceRatioCell(
        measure=measure,
        site=site,
        within_var=within,
        between_var=between,
        q=between / within,
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
        If the cell's values are all equal (within_var = 0, q undefined).
    """
    _check_ddof(ddof)
    values = dataset.values(measure, site)
    between = _variance(dataset.site_means(measure), ddof)
    return _cell(measure, site, values, between, ddof)


def _measure_cells(
    dataset: MultiSiteDataset, measure: str, ddof: int
) -> list[VarianceRatioCell]:
    # One between-site variance serves every cell of the measure.  Only
    # all_cells and summarize call this, directly, so stacklevel=3 points
    # degenerate-cell warnings at their caller.
    between = _variance(dataset.site_means(measure), ddof)
    cells = []
    for site in dataset.sites(measure):
        try:
            cells.append(_cell(measure, site, dataset.values(measure, site), between, ddof))
        except DegenerateSampleError as exc:
            warnings.warn(f"skipping degenerate cell: {exc}", stacklevel=3)
    return cells


def all_cells(dataset: MultiSiteDataset, ddof: int = 1) -> list[VarianceRatioCell]:
    """Every computable cell ratio; degenerate cells are skipped with a warning."""
    _check_ddof(ddof)
    out = []
    for measure in dataset.measures:
        out.extend(_measure_cells(dataset, measure, ddof))
    return out


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
    return GroupSummary(
        group=group,
        datapoints=len(qs),
        mean_q=float(arr.mean()),
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
    if groups is None:
        groups = [MeasureGroupSpec(group=m, measures=(m,)) for m in dataset.measures]
    _check_disjoint(groups)

    available = set(dataset.measures)
    rows: list[GroupSummary] = []
    pooled_by_label: dict[str, list[float]] = {}
    pooled_all: list[float] = []
    n_nonempty = 0
    for spec in groups:
        missing = [m for m in spec.measures if m not in available]
        for measure in missing:
            warnings.warn(
                f"group {spec.group!r}: measure {measure!r} not in dataset",
                stacklevel=2,
            )
        qs = []
        for measure in spec.measures:
            if measure in available:
                qs.extend(cell.q for cell in _measure_cells(dataset, measure, ddof))
        if not qs:
            warnings.warn(f"group {spec.group!r} is empty; row omitted", stacklevel=2)
            continue
        n_nonempty += 1
        rows.append(_summary_row(spec.group, qs))
        if spec.set_label is not None:
            pooled_by_label.setdefault(spec.set_label, []).extend(qs)
        pooled_all.extend(qs)
    for label, qs in pooled_by_label.items():
        rows.append(_summary_row(f"all {label}", qs))
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
        with _open_text(source) as fh:
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


@contextmanager
def _open_out(dest: str | TextIO) -> Iterator[TextIO]:
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


def write_summary_csv(rows: list[GroupSummary], dest: str | TextIO) -> None:
    """Summary rows as CSV: group,datapoints,mean_q,q025,q975."""
    with _open_out(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "datapoints", "mean_q", "q025", "q975"])
        for row in rows:
            writer.writerow(
                [row.group, row.datapoints, repr(row.mean_q), repr(row.q_lo), repr(row.q_hi)]
            )


def write_cells_csv(cells: list[VarianceRatioCell], dest: str | TextIO) -> None:
    """Per-cell ratios as CSV: measure,site,within_var,between_var,q."""
    with _open_out(dest) as fh:
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
    with _open_out(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        if values.size == 0:
            return
        n_bins = max(1, int(math.ceil(float(values.max()) / bin_width)))
        edges = np.arange(n_bins + 1) * bin_width
        counts, _ = np.histogram(values, bins=edges)
        for i, count in enumerate(counts):
            writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(count)])
