"""Quarterly wage-quantile panel ingestion and inequality series construction.

A panel holds, for every quarter, a complete 3x3 grid of weekly wages keyed
by race (Asian, Black, White) and by point in the wage distribution (first
decile D1, third quartile Q3, ninth decile D9). Each quarter's nine wages
form one distribution; partitioning it by quantile point makes the within
term of the Theil decomposition the racial gap inside each wage group and
the between term the gap across wage groups.
"""

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .theil import DomainError, Partition, decompose

RACES = ("Asian", "Black", "White")
QUANTILES = ("D1", "Q3", "D9")
# canonical 9-cell order: quantile-major, race alphabetical
CELLS = tuple((q, r) for q in QUANTILES for r in RACES)
# partitions are immutable, so compute_series and build_distribution share this one
_QUANTILE_PARTITION = Partition([q for q, _ in CELLS])

_WAGE_HEADER = ("quarter", "race", "quantile", "wage")
_SHOCK_HEADER = ("quarter", "shock")
_GROWTH_HEADER = ("quarter", "race", "quantile", "growth_pct")
SERIES_HEADER = (
    "quarter",
    "total",
    "within_d1",
    "within_q3",
    "within_d9",
    "between",
    "within_share",
    "between_share",
)

__all__ = [
    "RACES",
    "QUANTILES",
    "CELLS",
    "PanelError",
    "QuarterlyPanel",
    "ShockSeries",
    "AlignedData",
    "InequalitySeries",
    "GrowthSeries",
    "parse_quarter",
    "format_quarter",
    "parse_wage_csv",
    "parse_shock_csv",
    "align",
    "build_distribution",
    "compute_series",
    "growth_rates",
    "standardize",
    "write_wage_csv",
    "write_shock_csv",
    "write_series_csv",
    "read_series_csv",
    "write_growth_csv",
    "read_growth_csv",
]


class PanelError(ValueError):
    """Raised for malformed or incomplete panel/shock input."""


def parse_quarter(label: str) -> int:
    """Turn a 'YYYYQn' label into a sortable integer index (year*4 + n-1)."""
    text = label.strip()
    if len(text) != 6 or text[4] not in "Qq":
        raise PanelError(f"malformed quarter label {label!r} (expected YYYYQn)")
    try:
        year = int(text[:4])
        q = int(text[5])
    except ValueError:
        raise PanelError(f"malformed quarter label {label!r} (expected YYYYQn)") from None
    if not 1 <= q <= 4:
        raise PanelError(f"quarter number out of range in {label!r}")
    return year * 4 + (q - 1)


def format_quarter(index: int) -> str:
    return f"{index // 4}Q{index % 4 + 1}"


@dataclass(frozen=True)
class QuarterlyPanel:
    """Validated wage panel: contiguous quarters, complete positive 3x3 grids.

    ``wages`` has shape (T, 9) with columns in canonical CELLS order.
    """

    quarters: tuple  # of 'YYYYQn' labels, strictly increasing, contiguous
    wages: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.quarters:
            raise PanelError("panel has no quarters")
        _check_run(self.quarters)
        if self.wages.shape != (self.n_quarters, 9):
            raise PanelError(f"wage grid shape {self.wages.shape} does not match {self.n_quarters} quarters")
        if not np.all(np.isfinite(self.wages)) or np.any(self.wages <= 0):
            raise PanelError("panel wages must be positive and finite")
        # monotone D1 <= Q3 <= D9 per race
        for r, race in enumerate(RACES):
            d1, q3, d9 = self.wages[:, r], self.wages[:, 3 + r], self.wages[:, 6 + r]
            if np.any(d1 > q3) or np.any(q3 > d9):
                t = int(np.argmax((d1 > q3) | (q3 > d9)))
                raise PanelError(f"quantile wages out of order for {race} in {self.quarters[t]}")

    @property
    def n_quarters(self) -> int:
        return len(self.quarters)

    def wage(self, quarter: str, race: str, quantile: str) -> float:
        t = self.quarters.index(quarter)
        return float(self.wages[t, CELLS.index((quantile, race))])

    def restrict(self, quarters) -> "QuarterlyPanel":
        """Contiguous sub-panel for the given contiguous quarter labels."""
        quarters = tuple(quarters)
        start = self.quarters.index(quarters[0]) if quarters else 0  # the constructor checks the run
        return QuarterlyPanel(quarters, self.wages[start : start + len(quarters)])


@dataclass(frozen=True)
class ShockSeries:
    """Exogenous shock values, one per quarter (negative = accommodative)."""

    quarters: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_run(self.quarters)
        if self.values.shape != (len(self.quarters),):
            raise PanelError("shock values do not match quarters")
        if not np.all(np.isfinite(self.values)):
            raise PanelError("shock values must be finite")

    def restrict(self, quarters) -> "ShockSeries":
        quarters = tuple(quarters)
        start = self.quarters.index(quarters[0]) if quarters else 0  # the constructor checks the run
        return ShockSeries(quarters, self.values[start : start + len(quarters)])


def _check_run(quarters) -> None:
    """Reject quarter labels that are not consecutive and increasing."""
    idx = [parse_quarter(q) for q in quarters]
    for a, b, qa in zip(idx, idx[1:], quarters):
        if b != a + 1:
            raise PanelError(f"gap or disorder in quarters after {qa}")


def _read_rows(source, header, error):
    """Yield (line number, stripped fields) for each data row of a CSV.

    ``source`` is a path or an open text file. The stripped header must equal
    ``header``, blank rows are skipped and every other row must have one field
    per header column; any failure raises ``error``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield from _read_rows(fh, header, error)
        return
    reader = csv.reader(source)
    first = next(reader, None)
    if first is None or tuple(h.strip() for h in first) != tuple(header):
        raise error(f"bad CSV header {first}; expected {','.join(header)}")
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise error(f"row {reader.line_num}: expected {len(header)} fields, got {len(row)}")
        yield reader.line_num, [f.strip() for f in row]


def _number(text, lineno, name) -> float:
    try:
        value = float(text)
    except ValueError:
        raise PanelError(f"row {lineno}: non-numeric {name} {text!r}") from None
    if not math.isfinite(value):
        raise PanelError(f"row {lineno}: {name} must be finite, got {text}")
    return value


def _quarter(label, lineno) -> int:
    try:
        return parse_quarter(label)
    except PanelError as exc:
        raise PanelError(f"row {lineno}: {exc}") from None


def _contiguous(qindices) -> list:
    """Sorted quarter indices; rejects an empty set and gaps."""
    qindices = sorted(qindices)
    if not qindices:
        raise PanelError("CSV contains no data rows")
    for a, b in zip(qindices, qindices[1:]):
        if b != a + 1:
            raise PanelError(f"gap in quarters between {format_quarter(a)} and {format_quarter(b)}")
    return qindices


def _read_by_quarter(source, header):
    """Quarter labels and (T, m) values of a CSV with one row per quarter."""
    rows = {}
    for lineno, (quarter, *fields) in _read_rows(source, header, PanelError):
        qidx = _quarter(quarter, lineno)
        if qidx in rows:
            raise PanelError(f"row {lineno}: duplicate quarter {quarter}")
        rows[qidx] = [_number(f, lineno, name) for f, name in zip(fields, header[1:])]
    qindices = _contiguous(rows)
    return tuple(format_quarter(i) for i in qindices), np.array([rows[i] for i in qindices])


def _read_cells(source, header, positive=False):
    """Quarter labels and (T, 9) grid of a quarter,race,quantile,value CSV.

    Rows may arrive in any order; every quarter needs all 9 cells once.
    """
    name = header[3]
    cells = {}
    for lineno, (quarter, race, quantile, text) in _read_rows(source, header, PanelError):
        qidx = _quarter(quarter, lineno)
        if race not in RACES:
            raise PanelError(f"row {lineno}: unknown race {race!r}")
        if quantile not in QUANTILES:
            raise PanelError(f"row {lineno}: unknown quantile {quantile!r}")
        value = _number(text, lineno, name)
        if positive and value <= 0:
            raise PanelError(f"row {lineno}: {name} must be positive, got {text}")
        key = (qidx, quantile, race)
        if key in cells:
            raise PanelError(f"row {lineno}: duplicate cell ({quarter}, {race}, {quantile})")
        cells[key] = value
    qindices = _contiguous({k[0] for k in cells})
    grid = np.empty((len(qindices), 9))
    for t, qidx in enumerate(qindices):
        for c, (quantile, race) in enumerate(CELLS):
            key = (qidx, quantile, race)
            if key not in cells:
                raise PanelError(f"missing {name} cell ({format_quarter(qidx)}, {race}, {quantile})")
            grid[t, c] = cells[key]
    return tuple(format_quarter(i) for i in qindices), grid


def parse_wage_csv(source) -> QuarterlyPanel:
    """Parse and validate a wage CSV (header: quarter,race,quantile,wage).

    ``source`` is a path or an open text file. Rows may arrive in any order.
    Raises PanelError with the offending row number for duplicates, missing
    cells, gaps, or non-positive wages.
    """
    return QuarterlyPanel(*_read_cells(source, _WAGE_HEADER, positive=True))


def parse_shock_csv(source) -> ShockSeries:
    """Parse a shock CSV (header: quarter,shock), one value per quarter."""
    quarters, values = _read_by_quarter(source, _SHOCK_HEADER)
    return ShockSeries(quarters, values[:, 0])


@dataclass(frozen=True)
class AlignedData:
    """Panel and shock series restricted to their common quarter range."""

    panel: QuarterlyPanel
    shocks: ShockSeries

    @property
    def quarters(self) -> tuple:
        return self.panel.quarters


def align(panel: QuarterlyPanel, shocks: ShockSeries, min_quarters: int = 20) -> AlignedData:
    """Restrict both inputs to their intersection of quarters.

    The default lag structure needs slack beyond the lags themselves, so an
    intersection shorter than ``min_quarters`` is rejected.
    """
    shock_quarters = set(shocks.quarters)
    common = [q for q in panel.quarters if q in shock_quarters]  # one run: both inputs are contiguous
    if len(common) < min_quarters:
        raise PanelError(
            f"panel and shock series share only {len(common)} quarters; need at least {min_quarters}"
        )
    return AlignedData(panel.restrict(common), shocks.restrict(common))


def build_distribution(panel: QuarterlyPanel, quarter: str):
    """One quarter's 9-wage distribution and its partition by quantile point.

    Canonical order is quantile-major (D1, Q3, D9) with races alphabetical
    inside each group, so the partition groups are the three quantile points.
    """
    if quarter not in panel.quarters:
        raise PanelError(f"quarter {quarter} not in panel")
    t = panel.quarters.index(quarter)
    return panel.wages[t].copy(), _QUANTILE_PARTITION


@dataclass(frozen=True)
class InequalitySeries:
    """Per-quarter Theil decomposition of the panel's 9-wage distributions.

    ``within`` has one column per quantile point (D1, Q3, D9) holding the
    weighted contribution of racial inequality inside that group. Quarters
    with a degenerate total of 0 report within_share 0, between_share 1.
    """

    quarters: tuple
    total: np.ndarray = field(repr=False)
    within: np.ndarray = field(repr=False)  # (T, 3) columns D1, Q3, D9
    between: np.ndarray = field(repr=False)
    within_share: np.ndarray = field(repr=False)
    between_share: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)  # True where total == 0


def compute_series(panel: QuarterlyPanel) -> InequalitySeries:
    """Decompose every quarter of the panel into within/between components."""
    res = decompose(panel.wages, _QUANTILE_PARTITION)
    within = np.column_stack([g.contribution for g in res.groups])  # groups in QUANTILES order
    degenerate = res.total == 0.0
    within_share = np.divide(within.sum(axis=1), res.total, out=np.zeros_like(res.total), where=~degenerate)
    between_share = np.divide(res.between, res.total, out=np.ones_like(res.total), where=~degenerate)
    return InequalitySeries(
        panel.quarters, res.total, within, res.between, within_share, between_share, degenerate
    )


@dataclass(frozen=True)
class GrowthSeries:
    """Wage growth per (race, quantile) cell.

    ``growth`` has shape (len(quarters), 9) in canonical CELLS order;
    quarters start once the lag window is available.
    """

    quarters: tuple
    growth: np.ndarray = field(repr=False)
    method: str = "yoy"


def growth_rates(panel: QuarterlyPanel, method: str = "yoy") -> GrowthSeries:
    """Per-cell wage growth rates.

    'yoy' (default) is the year-over-year percent change
    100*(w_t - w_{t-4})/w_{t-4}, first defined at the fifth quarter; it
    suppresses quarterly seasonality. 'log_qoq' is the quarter-over-quarter
    log difference in percent, first defined at the second quarter.
    """
    if method == "yoy":
        lag = 4
    elif method == "log_qoq":
        lag = 1
    else:
        raise ValueError(f"unknown growth method {method!r}")
    if panel.n_quarters <= lag:
        raise PanelError(f"panel spans {panel.n_quarters} quarters; need more than {lag}")
    w = panel.wages
    if method == "yoy":
        growth = 100.0 * (w[lag:] - w[:-lag]) / w[:-lag]
    else:
        growth = 100.0 * np.log(w[lag:] / w[:-lag])
    return GrowthSeries(panel.quarters[lag:], growth, method)


def standardize(series) -> np.ndarray:
    """Scale a series to mean 0 and sample (ddof=1) standard deviation 1."""
    arr = np.asarray(series, dtype=float)
    if arr.size < 2:
        raise DomainError("standardize needs at least 2 observations")
    sd = arr.std(ddof=1)
    if sd == 0.0:
        raise DomainError("cannot standardize a zero-variance series")
    return (arr - arr.mean()) / sd


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write_rows(path, header, rows) -> None:
    """Write a header and rows of fields to a CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_cells(path, header, quarters, grid) -> None:
    _write_rows(
        path,
        header,
        ((quarter, race, quantile, _fmt(v)) for quarter, row in zip(quarters, grid.tolist())
         for (quantile, race), v in zip(CELLS, row)),
    )


def write_wage_csv(panel: QuarterlyPanel, path) -> None:
    """Write a panel in the documented wage CSV input format."""
    _write_cells(path, _WAGE_HEADER, panel.quarters, panel.wages)


def write_shock_csv(shocks: ShockSeries, path) -> None:
    """Write a shock series in the documented shock CSV input format."""
    _write_rows(path, _SHOCK_HEADER, zip(shocks.quarters, map(_fmt, shocks.values.tolist())))


def write_series_csv(series: InequalitySeries, path) -> None:
    """Write the decomposition series in the documented output format."""
    columns = np.column_stack(
        [series.total, series.within, series.between, series.within_share, series.between_share]
    )
    _write_rows(
        path, SERIES_HEADER, ((q, *map(_fmt, row)) for q, row in zip(series.quarters, columns.tolist()))
    )


def read_series_csv(source) -> InequalitySeries:
    """Read a decomposition series written by write_series_csv."""
    quarters, vals = _read_by_quarter(source, SERIES_HEADER)
    total = vals[:, 0]
    return InequalitySeries(
        quarters=quarters,
        total=total,
        within=vals[:, 1:4],
        between=vals[:, 4],
        within_share=vals[:, 5],
        between_share=vals[:, 6],
        degenerate=total == 0.0,
    )


def write_growth_csv(series: GrowthSeries, path) -> None:
    """Write growth rates as quarter,race,quantile,growth_pct rows."""
    _write_cells(path, _GROWTH_HEADER, series.quarters, series.growth)


def read_growth_csv(source) -> GrowthSeries:
    """Read a growth CSV written by write_growth_csv."""
    return GrowthSeries(*_read_cells(source, _GROWTH_HEADER))
