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
_CELL_KEYS = tuple((race, quantile) for quantile, race in CELLS)  # the cell CSVs' race,quantile fields
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

    ``wages`` (T, 9), columns in canonical CELLS order, holds the T quarters
    from the parse_quarter index ``first``; ``quarters`` are their labels.
    """

    first: int
    wages: np.ndarray = field(repr=False)
    quarters: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "wages", _numeric(self.wages, "panel wages"))
        if self.wages.shape[1:] != (9,):
            raise PanelError(f"wage grid shape {self.wages.shape} is not (quarters, 9)")
        object.__setattr__(self, "quarters", _run_labels(self.first, len(self.wages)))
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
        return len(self.wages)

    def wage(self, quarter: str, race: str, quantile: str) -> float:
        distribution, _ = build_distribution(self, quarter)
        if race not in RACES:
            raise PanelError(f"unknown race {race!r}")
        if quantile not in QUANTILES:
            raise PanelError(f"unknown quantile {quantile!r}")
        return float(distribution[CELLS.index((quantile, race))])

    def restrict(self, first: int, n: int) -> "QuarterlyPanel":
        """Sub-panel of the n quarters from quarter index first."""
        return QuarterlyPanel(first, self.wages[_run_slice(self, first, n)])


@dataclass(frozen=True)
class ShockSeries:
    """Exogenous shock values, one per quarter from index ``first`` (negative = accommodative)."""

    first: int
    values: np.ndarray = field(repr=False)
    quarters: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _numeric(self.values, "shock values"))
        if self.values.ndim != 1:
            raise PanelError(f"shock values of shape {self.values.shape} are not one per quarter")
        object.__setattr__(self, "quarters", _run_labels(self.first, len(self.values)))
        if not np.all(np.isfinite(self.values)):
            raise PanelError("shock values must be finite")

    def restrict(self, first: int, n: int) -> "ShockSeries":
        return ShockSeries(first, self.values[_run_slice(self, first, n)])


def _numeric(values, what, error=PanelError) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)  # a float64 array is not copied
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be numeric: {exc}") from None


def _run_labels(first, n: int, error=PanelError) -> tuple:
    """Labels of the n quarters from index first, under the one rule for a run: one quarter or more, in 0000Q1..9999Q4."""
    if n < 1:
        raise error(f"a run of quarters needs one quarter or more, not {n}")
    if not isinstance(first, (int, np.integer)) or not 0 <= first <= 40000 - n:
        raise error(f"{n} quarters cannot start at quarter index {first!r}")
    return tuple(map(format_quarter, range(first, first + n)))


def _run_slice(run, first: int, n: int) -> slice:
    """Rows of a panel or shock series holding the n quarters from index first; errors name the first it lacks."""
    t, end = first - run.first, len(run.quarters)
    if n < 0:
        raise PanelError(f"cannot take {n} quarters")
    if t < 0 or t + n > end:
        raise PanelError(f"does not cover quarter {format_quarter(first if t < 0 else run.first + max(t, end))}")
    return slice(t, t + n)


def _source_lines(source, error) -> list:
    """The lines of a path, read as UTF-8 with their line endings, or of an open text file.

    Text that is not UTF-8, and a file opened in binary mode, raise ``error``.
    """
    opened = isinstance(source, (str, os.PathLike))
    try:
        with open(source, "r", encoding="utf-8", newline="") if opened else contextlib.nullcontext(source) as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}: {exc.reason}") from None
    if lines and not isinstance(lines[0], str):
        raise error(f"expected lines of text, got {type(lines[0]).__name__}: open the file in text mode")
    return lines


def _read_rows(lines, header, error):
    """Yield (line number, unstripped fields) for each data row of a CSV's lines, one row at a time.

    A UTF-8 byte-order mark before the header is ignored, the stripped header
    must equal ``header``, blank rows are skipped and every other row must
    have one field per header column. Any failure, a ``csv.Error`` included,
    raises ``error`` naming the row. A row's line number is that of the line
    on which it ends.
    """
    reader = csv.reader(lines)
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


def _number(text, lineno, name, positive=False, error=PanelError) -> float:
    """The finite float of a CSV field, a positive one if ``positive``, else ``error`` naming the row
    and column; unlike float(), rejects '_' separators and non-ASCII digits."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        raise error(f"row {lineno}: non-numeric {name} {text!r}") from None
    if not math.isfinite(value):
        raise error(f"row {lineno}: {name} must be finite, got {text}")
    if positive and value <= 0:
        raise error(f"row {lineno}: {name} must be positive, got {text}")
    return value


def _quarter(label, lineno) -> int:
    try:
        return parse_quarter(label)
    except PanelError as exc:
        raise PanelError(f"row {lineno}: {exc}") from None


def _read_grid(source, header, keys, positive=False):
    """First quarter index and (T, len(keys) * values per row) values of a CSV as _write_grid writes it.

    ``header`` and ``keys`` are _write_grid's: each quarter needs one row per
    key, in any order. A file in the writers' own layout is parsed in one
    numpy pass; any other is read row by row, which names the first faulty row.
    """
    lines = _source_lines(source, PanelError)
    plain = _plain_grid(lines, header, keys, positive)
    return plain if plain is not None else _grid_by_row(lines, header, keys, positive)


def _plain_grid(lines, header, keys, positive):
    """What _grid_by_row returns for a CSV's lines in the writers' layout, else None.

    The layout is the exact header, then unquoted rows quarter by quarter,
    one per key in ``keys`` order, with exact labels and finite values (positive
    ones if ``positive``), on lines no longer than csv's field limit. For any
    other lines, None leaves the reading, and the naming of a fault, to the
    row loop.
    """
    head = ",".join(header)
    if len(lines) < 2 or lines[0] not in {bom + head + end for bom in ("", "\ufeff") for end in ("\n", "\r\n")}:
        return None
    data = lines[1:]
    text = "".join(data)
    # csv rejects a field over its limit; numpy's fields drop a trailing NUL; loadtxt warns on no rows
    if max(map(len, data)) > csv.field_size_limit() or "\0" in text or not text.strip():
        return None
    # each label field is one character wider than its longest label, so that a longer label is cut to no label
    width = max((len(label) for key in keys for label in key), default=0) + 1
    per_row = len(header) - 1 - len(keys[0])
    dtype = [("quarter", "U7"), ("key", f"U{width}", (len(keys[0]),)), ("values", "f8", (per_row,))]
    try:
        rows = np.loadtxt(data, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
        first, n = parse_quarter(rows["quarter"][0]), len(rows) // len(keys)
        labels = _run_labels(first, n)
    except ValueError:  # a field count other than the header's, no number, or a PanelError: a bad first label or run
        return None
    values = rows["values"]
    if not (
        len(rows) == n * len(keys)
        and (rows["quarter"].reshape(n, len(keys)) == np.array(labels)[:, None]).all()
        and (rows["key"].reshape(n, *np.shape(keys)) == np.array(keys, dtype=str)).all()
        and np.isfinite(values).all()
        and (not positive or (values > 0).all())
    ):
        return None
    return first, np.array(values).reshape(n, -1)


def _grid_by_row(lines, header, keys, positive):
    """_read_grid on a CSV's lines, one row at a time; errors name the first faulty row.

    Each row's checks run in one order: quarter, each key label, duplicate, values;
    then the file's: no row, a quarter with no row (a gap), a missing cell.
    """
    width = len(keys[0])
    index = {key: k for k, key in enumerate(keys)}
    names = header[1 + width :]
    rows = {}  # len(keys) * quarter index + key index -> the row's values
    for lineno, row in _read_rows(lines, header, PanelError):
        row = list(map(str.strip, row))
        qidx = _quarter(row[0], lineno)
        k = index.get(tuple(row[1 : 1 + width]))
        if k is None:  # every combination of the columns' labels is a key, so a label is unknown
            for label, name, *labels in zip(row[1:], header[1:], *keys):
                if label not in labels:
                    raise PanelError(f"row {lineno}: unknown {name} {label!r}")
        at = len(keys) * qidx + k
        if at in rows:
            what = f"cell ({', '.join(row[: 1 + width])})" if width else f"quarter {row[0]}"
            raise PanelError(f"row {lineno}: duplicate {what}")
        rows[at] = [_number(text, lineno, name, positive) for text, name in zip(row[1 + width :], names)]
    if not rows:
        raise PanelError("CSV contains no data rows")
    at = np.fromiter(rows, np.int64, len(rows))
    first = int(at.min()) // len(keys)
    n = int(at.max()) // len(keys) - first + 1  # parse_quarter bounds the span to 40,000 quarters
    grid = np.full((n * len(keys), len(names)), np.nan)  # values are finite, so NaN marks a missing row
    grid[at - len(keys) * first] = list(rows.values())
    missing = np.isnan(grid[:, 0]).reshape(n, len(keys))
    gap = missing.all(axis=1)  # a quarter with no row; the first and the last quarter have one
    if gap.any():
        t = int(np.argmax(gap))
        b = t + int(np.argmin(gap[t:]))
        raise PanelError(f"gap in quarters between {format_quarter(first + t - 1)} and {format_quarter(first + b)}")
    if missing.any():
        t, k = divmod(int(np.argmax(missing)), len(keys))
        raise PanelError(f"missing {header[-1]} cell ({', '.join([format_quarter(first + t), *keys[k]])})")
    return first, grid.reshape(n, -1)


def parse_wage_csv(source) -> QuarterlyPanel:
    """Parse and validate a wage CSV (header: quarter,race,quantile,wage).

    ``source`` is a path or an open text file. Rows may arrive in any order.
    Raises PanelError. A fault in one row (a malformed label, a wrong field
    count, a duplicate cell, or a non-numeric, non-finite or non-positive
    wage) names the row's number; a missing cell names its quarter and cell,
    and a gap the quarters on either side of it.
    """
    return QuarterlyPanel(*_read_grid(source, _WAGE_HEADER, _CELL_KEYS, positive=True))


def parse_shock_csv(source) -> ShockSeries:
    """Parse a shock CSV (header: quarter,shock), one value per quarter."""
    first, values = _read_grid(source, _SHOCK_HEADER, [()])
    return ShockSeries(first, values[:, 0])


def align(panel: QuarterlyPanel, shocks: ShockSeries) -> tuple:
    """The pair (panel, shocks), each restricted to their intersection of quarters.

    Raises PanelError, naming both spans, only when they share no quarter;
    how many quarters a fit needs is the fit's own rule (varx.estimate).
    """
    first = max(panel.first, shocks.first)
    n = min(panel.first + panel.n_quarters, shocks.first + len(shocks.values)) - first
    if n < 1:
        spans = [f"{run.quarters[0]}..{run.quarters[-1]}" for run in (panel, shocks)]
        raise PanelError(f"panel {spans[0]} and shock series {spans[1]} share no quarter")
    return panel.restrict(first, n), shocks.restrict(first, n)


def build_distribution(panel: QuarterlyPanel, quarter: str):
    """One quarter's 9-wage distribution and its partition by quantile point.

    Canonical order is quantile-major (D1, Q3, D9) with races alphabetical
    inside each group, so the partition groups are the three quantile points.
    """
    t = parse_quarter(quarter) - panel.first
    if not 0 <= t < panel.n_quarters:
        raise PanelError(f"quarter {quarter!r} not in panel")
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


def compute_series(panel: QuarterlyPanel) -> InequalitySeries:
    """Decompose every quarter of the panel into within/between components."""
    res = decompose(panel.wages, _QUANTILE_PARTITION)
    within = np.column_stack([g.contribution for g in res.groups])  # groups in QUANTILES order
    degenerate = res.total == 0.0
    within_share = np.divide(within.sum(axis=1), res.total, out=np.zeros_like(res.total), where=~degenerate)
    between_share = np.divide(res.between, res.total, out=np.ones_like(res.total), where=~degenerate)
    return InequalitySeries(panel.quarters, res.total, within, res.between, within_share, between_share)


@dataclass(frozen=True)
class GrowthSeries:
    """Wage growth per (race, quantile) cell.

    ``growth`` has shape (len(quarters), 9) in canonical CELLS order;
    quarters start once the lag window is available.
    """

    quarters: tuple
    growth: np.ndarray = field(repr=False)


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
    return GrowthSeries(panel.quarters[lag:], growth)


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
    first, vals = _read_grid(source, SERIES_HEADER, [()])
    return InequalitySeries(
        quarters=_run_labels(first, len(vals)),
        total=vals[:, 0],
        within=vals[:, 1:4],
        between=vals[:, 4],
        within_share=vals[:, 5],
        between_share=vals[:, 6],
    )


def write_growth_csv(series: GrowthSeries, path) -> None:
    """Write growth rates as quarter,race,quantile,growth_pct rows."""
    _write_grid(path, _GROWTH_HEADER, series.quarters, _CELL_KEYS, series.growth)


def read_growth_csv(source) -> GrowthSeries:
    """Read a growth CSV written by write_growth_csv."""
    first, growth = _read_grid(source, _GROWTH_HEADER, _CELL_KEYS)
    return GrowthSeries(_run_labels(first, len(growth)), growth)
