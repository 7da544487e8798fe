"""Output checks for the benchmark, written independently of the package.

Every check reads the files a command wrote and returns a list of error
strings; an empty list means the output is correct. The expected values
are computed here from the input CSVs with plain numpy, so a defect in the
package's own parsers or Theil code cannot hide itself.

Outputs are written with ``%.10g``, i.e. 10 significant digits, so one
unit in the last printed digit is at most 1e-9 of the value. The relative
tolerances below sit just above that.
"""

import csv
from pathlib import Path

import numpy as np

QUANTILES = ("D1", "Q3", "D9")
RACES = ("Asian", "Black", "White")
# column order of a quarter's 9 wages: quantile-major, race alphabetical
CELLS = tuple((q, r) for q in QUANTILES for r in RACES)
SERIES_HEADER = [
    "quarter", "total", "within_d1", "within_q3", "within_d9",
    "between", "within_share", "between_share",
]
IRF_HEADER = ["horizon", "variable", "point", "lower", "upper"]
PRINTED_RTOL = 2e-9  # one flipped 10th significant digit plus float slop


class CheckError(Exception):
    """An output file is missing or malformed."""


def read_rows(path, header):
    """Rows of a CSV file after checking its header."""
    path = Path(path)
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != list(header):
        raise CheckError(f"{path.name}: bad header {rows[0] if rows else None}")
    return rows[1:]


def read_wages(path):
    """Quarter labels and a (T, 9) wage array in CELLS order."""
    cells = {}
    for quarter, race, quantile, wage in read_rows(path, ["quarter", "race", "quantile", "wage"]):
        cells.setdefault(quarter, {})[(quantile, race)] = float(wage)
    quarters = sorted(cells, key=lambda q: (int(q[:4]), int(q[5])))
    return quarters, np.array([[cells[q][c] for c in CELLS] for q in quarters])


def theil(y):
    """Theil index of each row of a positive array."""
    s = y / y.sum(axis=-1, keepdims=True)
    return np.sum(s * np.log(y.shape[-1] * s), axis=-1)


def expected_series(wages):
    """Total, per-quantile within contributions and between term per quarter.

    The between term uses the closed form sum_g w_g ln(w_g n / n_g) rather
    than the index of the smoothed distribution the package computes.
    """
    groups = wages.reshape(len(wages), 3, 3)  # (T, quantile, race)
    weight = groups.sum(axis=2) / wages.sum(axis=1, keepdims=True)
    within = weight * theil(groups)
    between = np.sum(weight * np.log(weight * 3.0), axis=1)
    return theil(wages), within, between


def _close(actual, expected, rtol=PRINTED_RTOL):
    scale = np.max(np.abs(expected)) if np.size(expected) else 0.0
    return np.allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def check_series(series_csv, quarters, wages):
    """Check series.csv against an independent decomposition of the wages."""
    errors = []
    try:
        rows = read_rows(series_csv, SERIES_HEADER)
        got_quarters = [r[0] for r in rows]
        vals = np.array([[float(v) for v in r[1:]] for r in rows])
    except (CheckError, ValueError) as exc:
        return [f"series: {exc}"]
    if got_quarters != list(quarters) or vals.shape != (len(quarters), 7):
        return [f"series: expected {len(quarters)} quarters {quarters[0]}..{quarters[-1]}"]
    total, within, between = expected_series(wages)
    for name, got, want in (
        ("total", vals[:, 0], total),
        ("within", vals[:, 1:4], within),
        ("between", vals[:, 4], between),
        ("within_share", vals[:, 5], within.sum(axis=1) / total),
        ("between_share", vals[:, 6], between / total),
    ):
        if not _close(got, want):
            t = int(np.argmax(np.abs(np.atleast_2d(got.T - want.T)).max(axis=0)))
            errors.append(f"series: {name} differs from the reference at {quarters[t]}")
    identity = np.abs(vals[:, 0] - vals[:, 1:5].sum(axis=1))
    if np.any(identity > 4 * PRINTED_RTOL * np.abs(vals[:, 0])):
        errors.append("series: total != within + between")
    if np.any(np.abs(vals[:, 5] + vals[:, 6] - 1.0) > 4 * PRINTED_RTOL):
        errors.append("series: shares do not sum to 1")
    return errors


def check_growth(growth_csv, quarters, wages):
    """Check growth.csv against 100 (w_t - w_{t-4}) / w_{t-4} per cell."""
    try:
        rows = read_rows(growth_csv, ["quarter", "race", "quantile", "growth_pct"])
        got = {(q, quantile, race): float(v) for q, race, quantile, v in rows}
    except (CheckError, ValueError) as exc:
        return [f"growth: {exc}"]
    want = 100.0 * (wages[4:] - wages[:-4]) / wages[:-4]
    keys = [(q, *c) for q in quarters[4:] for c in CELLS]
    if len(rows) != len(keys) or set(got) != set(keys):
        return [f"growth: expected rows for {len(quarters) - 4} quarters x 9 cells"]
    if not _close(np.array([got[k] for k in keys]), want.ravel()):
        return ["growth: rates differ from (w_t - w_{t-4}) / w_{t-4}"]
    return []


def check_irf(irf_csv, names, horizon, reference=None):
    """Check an IRF table's shape and band ordering, and a reference if given."""
    label = Path(irf_csv).name
    try:
        rows = read_rows(irf_csv, IRF_HEADER)
        keys = [(int(r[0]), r[1]) for r in rows]
        vals = np.array([[float(v) for v in r[2:]] for r in rows])
    except (CheckError, ValueError) as exc:
        return [f"{label}: {exc}"]
    if keys != [(h, n) for h in range(horizon + 1) for n in names]:
        return [f"{label}: expected horizons 0..{horizon} for {', '.join(names)}"]
    if not np.all(np.isfinite(vals)):
        return [f"{label}: non-finite value"]
    errors = []
    point, lower, upper = vals.T
    if np.any(lower > point) or np.any(point > upper):
        errors.append(f"{label}: band ordering lower <= point <= upper violated")
    if reference is not None:
        ref = np.array([[float(v) for v in r[2:]] for r in read_rows(reference, IRF_HEADER)])
        if ref.shape != vals.shape or not _close(vals, ref):
            errors.append(f"{label}: differs from the reference {Path(reference).parent.name}")
    return errors
