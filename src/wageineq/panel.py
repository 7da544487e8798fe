"""Quarterly wage-quantile panel ingestion and inequality series construction.

A panel holds, for every quarter, a complete 3x3 grid of weekly wages keyed
by race (Asian, Black, White) and by point in the wage distribution (first
decile D1, third quartile Q3, ninth decile D9). Each quarter's nine wages
form one distribution; partitioning it by quantile point makes the within
term of the Theil decomposition the racial gap inside each wage group and
the between term the gap across wage groups.
"""

import contextlib
import csv
import io
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

_WRITE_ROWS = 4096  # rows formatted and written at once: bounds the text held
_NUMBER = "%.10g"  # the format of every number the CSV writers write

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
    """Turn a 'YYYYQn' label into a sortable integer index (year*4 + n-1).

    The year is four ASCII digits, so indices span 0000Q1 to 9999Q4.
    """
    text = label.strip()
    if len(text) != 6 or text[4] not in "Qq" or not (text.isascii() and text[:4].isdigit() and text[5].isdigit()):
        raise PanelError(f"malformed quarter label {label!r} (expected YYYYQn)")
    q = int(text[5])
    if not 1 <= q <= 4:
        raise PanelError(f"quarter number out of range in {label!r}")
    return int(text[:4]) * 4 + (q - 1)


def format_quarter(index: int) -> str:
    """The 'YYYYQn' label of a quarter index, the inverse of parse_quarter."""
    return f"{index // 4:04d}Q{index % 4 + 1}"


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
        if quarter not in self.quarters:
            raise PanelError(f"quarter {quarter!r} not in panel")
        if race not in RACES:
            raise PanelError(f"unknown race {race!r}")
        if quantile not in QUANTILES:
            raise PanelError(f"unknown quantile {quantile!r}")
        return float(self.wages[self.quarters.index(quarter), CELLS.index((quantile, race))])

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
    """Yield (line number, unstripped fields) for each data row of a CSV, one row at a time.

    ``source`` is a path or an open text file. A UTF-8 byte-order mark before
    the header is ignored, the stripped header must equal ``header``, blank
    rows are skipped and every other row must have one field per header
    column. Any failure, a ``csv.Error`` included, raises ``error`` naming the
    row. A row's line number is that of the line on which it ends.
    """
    opened = isinstance(source, (str, os.PathLike))
    with open(source, "r", encoding="utf-8", newline="") if opened else contextlib.nullcontext(source) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first:
                first[0] = first[0].removeprefix("\ufeff")
            if first is None or tuple(h.strip() for h in first) != tuple(header):
                raise error(f"bad CSV header {first}; expected {','.join(header)}")
            width = len(header)
            for row in reader:
                if len(row) == width:  # every header has two or more columns, so such a row is not blank
                    yield reader.line_num, row
                elif row and (len(row) > 1 or row[0].strip()):  # not blank
                    raise error(f"row {reader.line_num}: expected {width} fields, got {len(row)}")
        except csv.Error as exc:
            raise error(f"row {reader.line_num}: {exc}") from None


def _float(text) -> float:
    """float(text), but a ValueError for the '_' separators and non-ASCII digits that float() takes."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def _number(text, lineno, name) -> float:
    try:
        if not text.isascii() or "_" in text:  # float() also takes '_' separators and non-ASCII digits
            raise ValueError
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


def _cell(race, quantile, lineno) -> int:
    if race not in RACES:
        raise PanelError(f"row {lineno}: unknown race {race!r}")
    if quantile not in QUANTILES:
        raise PanelError(f"row {lineno}: unknown quantile {quantile!r}")
    return CELLS.index((quantile, race))


def _contiguous(qindices) -> np.ndarray:
    """Sorted distinct quarter indices; rejects an empty set and gaps.

    Marks the quarters present instead of sorting: parse_quarter bounds the
    span to 40,000 quarters, and a sort would page in more of numpy than
    small files need.
    """
    if not qindices.size:
        raise PanelError("CSV contains no data rows")
    first = int(qindices.min())
    present = np.zeros(int(qindices.max()) - first + 1, dtype=bool)
    present[qindices - first] = True
    if not present.all():
        t = int(np.argmin(present))  # the first quarter missing; present[0] is True
        b = t + int(np.argmax(present[t:]))
        raise PanelError(f"gap in quarters between {format_quarter(first + t - 1)} and {format_quarter(first + b)}")
    return np.arange(first, first + len(present))


def _read_by_quarter(source, header):
    """Quarter labels and (T, m) values of a CSV with one row per quarter."""
    rows = {}  # quarter index -> the row's values
    for lineno, (quarter, *fields) in _read_rows(source, header, PanelError):
        quarter = quarter.strip()
        qidx = _quarter(quarter, lineno)
        if qidx in rows:
            raise PanelError(f"row {lineno}: duplicate quarter {quarter}")
        rows[qidx] = [_number(f.strip(), lineno, name) for f, name in zip(fields, header[1:])]
    qindices = _contiguous(np.fromiter(rows, np.int64, len(rows))).tolist()
    return tuple(map(format_quarter, qindices)), np.array([rows[q] for q in qindices])


def _read_cells(source, header, positive=False):
    """Quarter labels and (T, 9) grid of a quarter,race,quantile,value CSV.

    Rows may arrive in any order; every quarter needs all 9 cells once.
    """
    name = header[3]
    quarter_index, cell_index = {}, {}  # raw labels seen -> quarter index, raw (race, quantile) seen -> cell
    values = {}  # 9 * quarter index + cell -> value
    for lineno, (quarter, race, quantile, text) in _read_rows(source, header, PanelError):
        qidx = quarter_index.get(quarter)
        if qidx is None:
            qidx = quarter_index[quarter] = _quarter(quarter.strip(), lineno)
        cell = cell_index.get((race, quantile))
        if cell is None:
            cell = cell_index[race, quantile] = _cell(race.strip(), quantile.strip(), lineno)
        text = text.strip()
        value = _number(text, lineno, name)
        if positive and value <= 0:
            raise PanelError(f"row {lineno}: {name} must be positive, got {text}")
        key = 9 * qidx + cell
        if key in values:
            raise PanelError(f"row {lineno}: duplicate cell ({quarter.strip()}, {race.strip()}, {quantile.strip()})")
        values[key] = value
    keys = np.fromiter(values, np.int64, len(values))
    qindices = _contiguous(keys // 9)
    grid = np.full((len(qindices), len(CELLS)), np.nan)  # values are finite, so NaN marks a missing cell
    grid.flat[keys - 9 * qindices[0]] = np.fromiter(values.values(), float, len(values))
    missing = np.flatnonzero(np.isnan(grid))
    if missing.size:
        t, c = divmod(int(missing[0]), len(CELLS))
        quantile, race = CELLS[c]
        raise PanelError(f"missing {name} cell ({format_quarter(int(qindices[t]))}, {race}, {quantile})")
    return tuple(map(format_quarter, qindices.tolist())), grid


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
    log difference in percent, first defined at the second quarter; it is
    finite for all positive wages. A 'yoy' rate beyond the float range
    raises PanelError naming its quarter and cell.
    """
    if method == "yoy":
        lag = 4
    elif method == "log_qoq":
        lag = 1
    else:
        raise ValueError(f"unknown growth method {method!r}")
    if panel.n_quarters <= lag:
        raise PanelError(f"panel spans {panel.n_quarters} quarters; need more than {lag}")
    w0, w1 = panel.wages[:-lag], panel.wages[lag:]
    with np.errstate(over="ignore", divide="ignore"):
        if method == "yoy":
            growth = 100.0 * (w1 - w0) / w0
            far = ~np.isfinite(growth)  # 100 (w1 - w0) overflows first, for wages above ~1e306
            growth[far] = 100.0 * ((w1[far] - w0[far]) / w0[far])
        else:
            ratio = w1 / w0
            growth = 100.0 * np.log(ratio)
            # where the ratio overflows or underflows, a difference of logs is still accurate
            far = ~(ratio >= np.finfo(float).tiny) | (ratio == np.inf)
            growth[far] = 100.0 * (np.log(w1[far]) - np.log(w0[far]))
    overflow = np.flatnonzero(~np.isfinite(growth))
    if overflow.size:
        t, c = divmod(int(overflow[0]), len(CELLS))
        quantile, race = CELLS[c]
        raise PanelError(
            f"{method} growth overflows at ({panel.quarters[lag + t]}, {race}, {quantile}): "
            f"wage {w0[t, c]:.10g} -> {w1[t, c]:.10g}"
        )
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


def _csv_fields(texts) -> list:
    """Text fields as csv.writer writes them in a row of two or more fields."""
    texts = list(map(str, texts))
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):  # nothing csv.writer would quote
        return texts
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    encoded = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))
        encoded.append(buf.getvalue()[:-2])  # drop the empty field's comma and the newline
    return encoded


def _write_grid(path, header, labels, keys, values) -> None:
    """Write a header, then one row per label and key: label, key fields, numbers.

    ``keys`` holds one tuple of text fields per key (``[()]`` for none) and
    ``values`` the rows' numbers in C order, as many per row as the header has
    columns left. Text is quoted as ``csv.writer`` quotes it. Each block of
    labels' numbers is formatted as one column of fields per header column.
    """
    per_row = len(header) - 1 - len(keys[0])
    heads = ["".join("," + f for f in _csv_fields(key)) for key in keys]  # each key's fields after the label
    texts = _csv_fields(labels)
    numbers = np.ravel(values)
    step, chunk = len(keys) * per_row, max(1, _WRITE_ROWS // len(keys))  # numbers and labels per block
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(texts), chunk):
            block = texts[i : i + chunk]
            fields = list(map(_NUMBER.__mod__, numbers[i * step : (i + len(block)) * step].tolist()))
            starts = [label + head for label in block for head in heads]
            rows = zip(starts, *(fields[j::per_row] for j in range(per_row)))
            fh.write("\n".join(map(",".join, rows)) + "\n")


_CELL_KEYS = tuple((race, quantile) for quantile, race in CELLS)  # the cell CSVs' race,quantile fields


def write_wage_csv(panel: QuarterlyPanel, path) -> None:
    """Write a panel in the documented wage CSV input format."""
    _write_grid(path, _WAGE_HEADER, panel.quarters, _CELL_KEYS, panel.wages)


def write_shock_csv(shocks: ShockSeries, path) -> None:
    """Write a shock series in the documented shock CSV input format."""
    _write_grid(path, _SHOCK_HEADER, shocks.quarters, [()], shocks.values)


def write_series_csv(series: InequalitySeries, path) -> None:
    """Write the decomposition series in the documented output format."""
    columns = np.column_stack(
        [series.total, series.within, series.between, series.within_share, series.between_share]
    )
    _write_grid(path, SERIES_HEADER, series.quarters, [()], columns)


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
    _write_grid(path, _GROWTH_HEADER, series.quarters, _CELL_KEYS, series.growth)


def read_growth_csv(source) -> GrowthSeries:
    """Read a growth CSV written by write_growth_csv."""
    return GrowthSeries(*_read_cells(source, _GROWTH_HEADER))
