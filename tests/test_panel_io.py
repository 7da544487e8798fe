"""The CSV reader and the column writers against row-at-a-time references."""

import csv
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.fixtures import synthetic_shock_series, synthetic_wage_panel


# ---------------------------------------------------------------------------
# Test-only references: the reader and writers without the plain pass or column formatting.


def scalar_rows(source, header, error):
    """Yield (line number, stripped fields) for each data row of a CSV."""
    reader = csv.reader(source)
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != tuple(header):
            raise error(f"bad CSV header {first}; expected {','.join(header)}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise error(f"row {reader.line_num}: expected {len(header)} fields, got {len(row)}")
            yield reader.line_num, [f.strip() for f in row]
    except csv.Error as exc:
        raise error(f"row {reader.line_num}: {exc}") from None


def scalar_contiguous(qindices) -> list:
    qindices = sorted(qindices)
    if not qindices:
        raise pn.PanelError("CSV contains no data rows")
    for a, b in zip(qindices, qindices[1:]):
        if b != a + 1:
            raise pn.PanelError(f"gap in quarters between {pn.format_quarter(a)} and {pn.format_quarter(b)}")
    return qindices


def scalar_read_by_quarter(source, header):
    rows = {}
    for lineno, (quarter, *fields) in scalar_rows(source, header, pn.PanelError):
        qidx = pn._quarter(quarter, lineno)
        if qidx in rows:
            raise pn.PanelError(f"row {lineno}: duplicate quarter {quarter}")
        rows[qidx] = [pn._number(f, lineno, name) for f, name in zip(fields, header[1:])]
    qindices = scalar_contiguous(rows)
    return qindices[0], np.array([rows[i] for i in qindices])


def scalar_read_cells(source, header, positive=False):
    name = header[3]
    cells = {}
    for lineno, (quarter, race, quantile, text) in scalar_rows(source, header, pn.PanelError):
        qidx = pn._quarter(quarter, lineno)
        if race not in pn.RACES:
            raise pn.PanelError(f"row {lineno}: unknown race {race!r}")
        if quantile not in pn.QUANTILES:
            raise pn.PanelError(f"row {lineno}: unknown quantile {quantile!r}")
        key = (qidx, quantile, race)
        if key in cells:
            raise pn.PanelError(f"row {lineno}: duplicate cell ({quarter}, {race}, {quantile})")
        value = pn._number(text, lineno, name)
        if positive and value <= 0:
            raise pn.PanelError(f"row {lineno}: {name} must be positive, got {text}")
        cells[key] = value
    qindices = scalar_contiguous({k[0] for k in cells})
    grid = np.empty((len(qindices), 9))
    for t, qidx in enumerate(qindices):
        for c, (quantile, race) in enumerate(pn.CELLS):
            key = (qidx, quantile, race)
            if key not in cells:
                raise pn.PanelError(f"missing {name} cell ({pn.format_quarter(qidx)}, {race}, {quantile})")
            grid[t, c] = cells[key]
    return qindices[0], grid


def scalar_write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def scalar_write_cells(path, header, quarters, grid):
    scalar_write_rows(
        path,
        header,
        ((quarter, race, quantile, f"{v:.10g}") for quarter, row in zip(quarters, grid.tolist())
         for (quantile, race), v in zip(pn.CELLS, row)),
    )


def scalar_write_series(series, path):
    columns = np.column_stack(
        [series.total, series.within, series.between, series.within_share, series.between_share]
    )
    scalar_write_rows(
        path, pn.SERIES_HEADER, ((q, *(f"{v:.10g}" for v in row)) for q, row in zip(series.quarters, columns.tolist()))
    )


def scalar_write_irf(irf, path):
    scalar_write_rows(
        path,
        ("horizon", "variable", "point", "lower", "upper"),
        ((h, name, *(f"{v:.10g}" for v in (irf.point[h, i], irf.lower[h, i], irf.upper[h, i])))
         for h in range(irf.horizon + 1) for i, name in enumerate(irf.names)),
    )


# ---------------------------------------------------------------------------
# Random CSV inputs: in the writers' row order or shuffled, and either plain (as the writers write)
# or padded, quoted, with blank rows and lower-case labels; one corruption.

# the corruptions after "gap" target the plain pass's guards
CELL_FAULTS = (None, "label", "race", "quantile", "non_numeric", "non_finite", "non_positive",
               "duplicate", "dropped", "extra_field", "short_field", "gap",
               "over_limit", "cut_label", "comment", "whitespace_row", "bare_cr", "quarter_number",
               "replaced", "no_rows")
QUARTER_FAULTS = (None, "label", "non_numeric", "non_finite", "duplicate", "dropped",
                  "extra_field", "short_field", "gap",
                  "over_limit", "cut_label", "comment", "whitespace_row", "bare_cr", "quarter_number",
                  "replaced", "no_rows")
VALUE_FAULTS = {
    "non_numeric": ("abc", "", "1.2.3", "0x10", "1_0", "1_5", "\u0661", "\u0661\u0665", "1\uff10"),
    "non_finite": ("inf", "nan", "-inf", "1e999", "1e400"),
    "non_positive": ("0", "-1.5", "-0"),
}


def field_text(draw, text):
    """A field as it may appear in a file: padded, quoted, or quoted over two lines."""
    style = draw(st.sampled_from(("plain", "plain", "padded", "quoted", "multiline")))
    if style == "padded":
        return draw(st.sampled_from(("", " ", "\t", "\x1c"))) + text + draw(st.sampled_from(("", " ", "  ", "\x1f")))
    if style == "quoted":
        return '"' + text.replace('"', '""') + '"'
    if style == "multiline":
        return '"' + text.replace('"', '""') + '\n"'
    return text


@st.composite
def csv_case(draw, cells):
    """(header, text, plain, shuffled, fault) for a wage-style (cells=True) or one-row-per-quarter CSV.

    ``shuffled`` is whether the rows, before the corruption, are out of the writers' order.
    """
    plain = draw(st.booleans())
    n_quarters = draw(st.integers(1, 5))
    start = draw(st.integers(1990 * 4, 1992 * 4))
    quarters = [start + t for t in range(n_quarters)]
    if cells:
        header = pn._WAGE_HEADER
        rows = [[q, race, quantile, f"{draw(st.floats(1.0, 5000.0)):.6g}"]
                for q in quarters for quantile, race in pn.CELLS]
    else:
        header = draw(st.sampled_from((pn._SHOCK_HEADER, pn.SERIES_HEADER)))
        rows = [[q, *(repr(draw(st.floats(-10.0, 10.0))) for _ in header[1:])] for q in quarters]
    rows = [[pn.format_quarter(q).replace("Q", "Q" if plain else draw(st.sampled_from("Qq"))), *rest]
            for q, *rest in rows]
    order = draw(st.permutations(range(len(rows)))) if draw(st.booleans()) else range(len(rows))
    shuffled = list(order) != sorted(order)
    rows = [rows[i] for i in order]
    fault = draw(st.sampled_from(CELL_FAULTS if cells else QUARTER_FAULTS))
    at = draw(st.integers(0, len(rows) - 1))
    if fault == "label":
        rows[at][0] = draw(st.sampled_from(("BADQ3", "2000Q5", "2000Q0", "20001", "", "19X0Q1")))
    elif fault == "race":
        rows[at][1] = "Hispanic"
    elif fault == "quantile":
        rows[at][2] = "D5"
    elif fault in VALUE_FAULTS:
        rows[at][-1] = draw(st.sampled_from(VALUE_FAULTS[fault]))
    elif fault == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
    elif fault == "dropped":
        for _ in range(draw(st.integers(1, min(3, len(rows))))):
            del rows[draw(st.integers(0, len(rows) - 1))]
    elif fault == "extra_field":
        rows[at].append("9")
    elif fault == "short_field":
        rows[at].pop()
    elif fault == "gap" and n_quarters < 3:
        fault = None
    elif fault == "gap":
        gone = {pn.format_quarter(q) for q in draw(st.sets(st.sampled_from(quarters[1:-1]), min_size=1))}
        rows = [r for r in rows if r[0].upper() not in gone]
    elif fault == "over_limit":  # a value that parses as a number once past csv's field limit
        rows[at][-1] = "0" * csv.field_size_limit() + rows[at][-1]
    elif fault == "cut_label":  # one character past the longest label, as 2000Q1x, Asianx or D1x
        rows[at][draw(st.integers(0, 2 if cells else 0))] += "x"
    elif fault == "comment":
        rows[at][0] = "#" + rows[at][0]
    elif fault == "bare_cr":
        rows[at][-1] = rows[at][-1][:1] + "\r" + rows[at][-1][1:]
    elif fault == "quarter_number":
        rows[at][0] = rows[at][0][:5] + draw(st.sampled_from("05"))
    elif fault == "replaced" and len(rows) == 1:
        fault = None
    elif fault == "replaced":  # a duplicate that leaves a cell or quarter missing
        rows[at] = list(rows[(at + draw(st.integers(1, len(rows) - 1))) % len(rows)])
    elif fault == "no_rows":
        rows = []
    lines = [",".join(row if plain else (field_text(draw, f) for f in row)) for row in rows]
    for _ in range(0 if plain else draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    if fault == "whitespace_row":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from((" ", "\t", " \t "))))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = ",".join(header) + eol + eol.join(lines) + draw(st.sampled_from(("", eol)))
    return header, text, plain, shuffled, fault


def outcome(read, text, newline, *args):
    """The reader's result, or the type and message of what it raised."""
    try:
        return read(io.StringIO(text, newline=newline), *args)
    except pn.PanelError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()  # bit for bit: -0.0 is not 0.0


class TestBlockColumnarReader:
    """The reader, by its plain pass or row by row, equals the reference, error for error."""

    @settings(max_examples=300, deadline=None)
    @given(case=csv_case(cells=True), newline=st.sampled_from(("\n", "")), positive=st.booleans())
    def test_cells_match_scalar_reference(self, case, newline, positive):
        header, text, *_ = case
        header = header if positive else pn._GROWTH_HEADER
        text = text.replace("wage", header[3], 1)
        want = outcome(scalar_read_cells, text, newline, header, positive)
        got = outcome(pn._read_grid, text, newline, header, pn._CELL_KEYS, positive)
        assert_same_outcome(got, want)

    @settings(max_examples=300, deadline=None)
    @given(case=csv_case(cells=False), newline=st.sampled_from(("\n", "")))
    def test_by_quarter_matches_scalar_reference(self, case, newline):
        header, text, *_ = case
        want = outcome(scalar_read_by_quarter, text, newline, header)
        got = outcome(pn._read_grid, text, newline, header, [()])
        assert_same_outcome(got, want)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), cells=st.booleans(), newline=st.sampled_from(("\n", "")), positive=st.booleans())
    def test_plain_pass_is_the_row_loop_or_declines(self, data, cells, newline, positive):
        header, text, plain, shuffled, fault = data.draw(csv_case(cells))
        keys, positive = (pn._CELL_KEYS, positive) if cells else ([()], False)
        if cells and not positive:
            header = pn._GROWTH_HEADER
            text = text.replace("wage", header[3], 1)
        got = pn._plain_grid(list(io.StringIO(text, newline=newline)), header, keys, positive)
        if plain and (fault is None or (fault == "non_positive" and not positive)):
            # every file in the writers' layout takes the numpy pass, and a shuffled one the row loop
            assert (got is None) == shuffled
        if got is not None:
            by_row = outcome(lambda fh, *args: pn._grid_by_row(list(fh), *args), text, newline, header, keys, positive)
            assert_same_outcome(got, by_row)

    def test_plain_pass_takes_what_the_writers_write(self, tmp_path):
        panel = synthetic_wage_panel(40, "1979Q1")
        pn.write_wage_csv(panel, tmp_path / "wages.csv")
        pn.write_growth_csv(pn.growth_rates(panel, "log_qoq"), tmp_path / "growth.csv")
        shocks = synthetic_shock_series(panel.quarters)
        pn.write_shock_csv(shocks, tmp_path / "shocks.csv")
        pn.write_series_csv(pn.compute_series(panel), tmp_path / "series.csv")
        # csv.writer rows with f"{v:.10g}" values: the benchmark's input format
        scalar_write_cells(tmp_path / "rows.csv", pn._WAGE_HEADER, panel.quarters, panel.wages)
        shock_rows = ((q, f"{v:.10g}") for q, v in zip(shocks.quarters, shocks.values))
        scalar_write_rows(tmp_path / "shock_rows.csv", pn._SHOCK_HEADER, shock_rows)
        for name, header, keys, positive in (
            ("wages.csv", pn._WAGE_HEADER, pn._CELL_KEYS, True),
            ("growth.csv", pn._GROWTH_HEADER, pn._CELL_KEYS, False),
            ("shocks.csv", pn._SHOCK_HEADER, [()], False),
            ("series.csv", pn.SERIES_HEADER, [()], False),
            ("rows.csv", pn._WAGE_HEADER, pn._CELL_KEYS, True),
            ("shock_rows.csv", pn._SHOCK_HEADER, [()], False),
        ):
            lines = pn._source_lines(tmp_path / name, pn.PanelError)
            got = pn._plain_grid(lines, header, keys, positive)
            assert got is not None, name
            owner = got[1] if got[1].base is None else got[1].base
            assert got[1].flags.c_contiguous and owner.nbytes == got[1].nbytes, name  # not a view of the parsed rows
            assert_same_outcome(got, pn._grid_by_row(lines, header, keys, positive))

    def cells_text(self, quarters, value="1.5"):
        return "quarter,race,quantile,wage\n" + "".join(
            f"{q},{race},{quantile},{value}\n" for q in quarters for quantile, race in pn.CELLS
        )

    @pytest.mark.parametrize("n_quarters", [1, 8, 9, 10, 4096])
    def test_whole_fixture_matches_scalar_reference(self, n_quarters, tmp_path):
        panel = synthetic_wage_panel(n_quarters, "1000Q1")
        scalar_write_cells(tmp_path / "wages.csv", pn._WAGE_HEADER, panel.quarters, panel.wages)
        got = pn._read_grid(tmp_path / "wages.csv", pn._WAGE_HEADER, pn._CELL_KEYS, True)
        with open(tmp_path / "wages.csv", encoding="utf-8", newline="") as fh:
            assert_same_outcome(got, scalar_read_cells(fh, pn._WAGE_HEADER, True))

    @pytest.mark.parametrize("row", [10, 11, 12])  # last row of quarter 1, first and second of quarter 2
    def test_duplicate_of_an_earlier_block(self, row):
        lines = self.cells_text(["2000Q1", "2000Q2"]).splitlines(keepends=True)
        lines[row - 1] = "2000Q1,Asian,D1,2.5\n"
        with pytest.raises(pn.PanelError, match=rf"^row {row}: duplicate cell \(2000Q1, Asian, D1\)$"):
            pn.parse_wage_csv(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_duplicate_named_before_its_value(self, value):
        lines = self.cells_text(["2000Q1", "2000Q2"]).splitlines(keepends=True)
        lines[11] = f"2000Q1,Asian,D1,{value}\n"
        with pytest.raises(pn.PanelError, match=r"^row 12: duplicate cell \(2000Q1, Asian, D1\)$"):
            pn.parse_wage_csv(io.StringIO("".join(lines)))
        with pytest.raises(pn.PanelError, match=r"^row 3: duplicate quarter 2000Q1$"):
            pn.parse_shock_csv(io.StringIO(f"quarter,shock\n2000Q1,1.5\n2000Q1,{value}x\n"))

    def test_first_gap_named(self):
        text = self.cells_text(["2000Q4", "2000Q1", "2001Q3", "2002Q1"])
        with pytest.raises(pn.PanelError, match="^gap in quarters between 2000Q1 and 2000Q4$"):
            pn.parse_wage_csv(io.StringIO(text))

    def test_gap_named_before_an_earlier_missing_cell(self):
        """The row loop reports a quarter with no row before any missing cell, even one in an earlier quarter."""
        rows = self.cells_text(["2000Q1", "2000Q2", "2000Q4"]).replace("2000Q1,White,Q3,1.5\n", "")
        padded = re.sub(r"^(?!quarter)(.*),(.*),(.*),(.*)$", r" \1 , \2 ,\3 , \4", rows, flags=re.M)
        assert padded.count("\n ") == 26  # every data row is padded, so only the row loop reads it
        with pytest.raises(pn.PanelError, match="^gap in quarters between 2000Q2 and 2000Q4$"):
            pn.parse_wage_csv(io.StringIO(padded))

    def test_first_missing_cell_named(self):
        text = self.cells_text(["2000Q1", "2000Q2"])
        for gone in ("2000Q2,Asian,D9", "2000Q1,White,Q3", "2000Q2,Black,D1"):
            text = text.replace(gone + ",1.5\n", "")
        with pytest.raises(pn.PanelError, match=r"^missing wage cell \(2000Q1, White, Q3\)$"):
            pn.parse_wage_csv(io.StringIO(text))

    def test_first_fault_wins_over_a_later_field_count(self):
        lines = self.cells_text(["2000Q1"]).splitlines(keepends=True)
        lines[3] = "2000Q1,Asian,D5,1.5\n"
        lines[5] = "2000Q1,Asian,D1,1.5,9\n"
        with pytest.raises(pn.PanelError, match=r"^row 4: unknown quantile 'D5'$"):
            pn.parse_wage_csv(io.StringIO("".join(lines)))

    def test_first_fault_wins_over_a_later_csv_error(self):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,Black,D1", "2000Q1,Hispanic,D1")
        text = text.replace("2000Q1,White,D9,1.5\n", "2000Q1,White,D9,1\r5\n")
        with pytest.raises(pn.PanelError, match=r"^row 3: unknown race 'Hispanic'$"):
            pn.parse_wage_csv(io.StringIO(text))
        with pytest.raises(pn.PanelError, match="^row 10: new-line character seen in unquoted field"):
            pn.parse_wage_csv(io.StringIO(text.replace("Hispanic", "Black")))

    @pytest.mark.parametrize("line", [1, 2, 7])
    def test_csv_error_names_its_row(self, line):
        long = "1" * 131_073  # one more character than csv.field_size_limit() allows by default
        wage_lines = self.cells_text(["2000Q1"]).splitlines(keepends=True)
        shock_lines = ["quarter,shock\n"] + [f"{pn.format_quarter(8000 + t)},1.5\n" for t in range(6)]
        for read, lines in ((pn.parse_wage_csv, wage_lines), (pn.parse_shock_csv, shock_lines)):
            lines[line - 1] = lines[line - 1].replace("1.5", long).replace("wage", long).replace("shock", long)
            with pytest.raises(pn.PanelError, match=rf"^row {line}: field larger than field limit \(131072\)$"):
                read(io.StringIO("".join(lines)))

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1\uff10"])
    def test_values_must_be_ascii_numbers(self, value):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,White,D9,1.5", f"2000Q1,White,D9,{value}")
        with pytest.raises(pn.PanelError, match=rf"^row 10: non-numeric wage '{value}'$"):
            pn.parse_wage_csv(io.StringIO(text))
        text = f"quarter,shock\n2000Q1,1.5\n2000Q2,{value}\n"
        with pytest.raises(pn.PanelError, match=rf"^row 3: non-numeric shock '{value}'$"):
            pn.parse_shock_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0" * 131_072 + "1.5", r"field larger than field limit \(131072\)"),  # a number, past csv's limit
            ("inf", "wage must be finite, got inf"),
            ("nan", "wage must be finite, got nan"),
            ("1e400", "wage must be finite, got 1e400"),
            ("0", "wage must be positive, got 0"),
        ],
        ids=["over_limit", "inf", "nan", "1e400", "zero"],
    )
    def test_plain_rows_the_plain_pass_declines(self, value, message):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,White,D9,1.5", f"2000Q1,White,D9,{value}")
        with pytest.raises(pn.PanelError, match=f"^row 10: {message}$"):
            pn.parse_wage_csv(io.StringIO(text))

    def test_blank_data_lines_are_no_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on input with no data
            with pytest.raises(pn.PanelError, match="^CSV contains no data rows$"):
                pn.parse_wage_csv(io.StringIO("quarter,race,quantile,wage\n\n\r\n"))

    def test_non_ascii_space_around_a_value_is_stripped(self):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,White,D9,1.5", "2000Q1,White,D9,\u00a02.5\u3000")
        assert pn.parse_wage_csv(io.StringIO(text)).wage("2000Q1", "White", "D9") == 2.5
        assert pn.parse_shock_csv(io.StringIO("quarter,shock\n2000Q1,\u00a0-1.5\n")).values.tolist() == [-1.5]

    def test_rows_after_a_field_spanning_lines_keep_their_numbers(self):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,Black,D1,1.5", '2000Q1,Black,D1,"1.5\n\n"')
        text = text.replace("2000Q1,White,D9,1.5", "2000Q1,White,D9,x")
        with pytest.raises(pn.PanelError, match=r"^row 12: non-numeric wage 'x'$"):
            pn.parse_wage_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "value, spaced, second",
        [
            pytest.param("1.5", False, list(range(9, 16)), id="1.5"),
            pytest.param('"1.5"', False, list(range(9, 16)), id='"1.5"'),
            pytest.param("1.5", True, [10, 11, 13, 14, 15, 17, 18], id="spaced"),
        ],
    )
    def test_every_row_with_its_line_number(self, value, spaced, second):
        text = self.cells_text(["2000Q1", "2000Q2"], value)
        if spaced:  # a blank line after data row 2, row 10's value over two lines, a blank line after row 12
            lines = text.splitlines(keepends=True)
            lines[2] += "\n"
            lines[10] = lines[10].replace("1.5\n", '"1.5\n"\n')
            lines[12] += "  \n"
            text = "".join(lines)
        rows = list(pn._read_rows(io.StringIO(text), pn._WAGE_HEADER, pn.PanelError))
        want = list(scalar_rows(io.StringIO(text), pn._WAGE_HEADER, pn.PanelError))
        assert len(rows) == 18
        assert [n for n, _ in rows] == [n for n, _ in want]
        assert [n for n, _ in rows][7:14] == second
        assert [[f.strip() for f in fields] for _, fields in rows] == [fields for _, fields in want]
        assert [fields[3] for _, fields in rows][:7] == ["1.5"] * 7

    @pytest.mark.parametrize("new", ["2000Q2,White,D9,1.5\0", "2000Q2,Wh\0ite,D9,1.5", "20\0Q2,White,D9,1.5"])
    def test_nul_matches_scalar_reference(self, new):
        # csv.reader rejects a NUL before Python 3.11 and passes it on after
        text = self.cells_text(["2000Q1", "2000Q2"]).replace("2000Q2,White,D9,1.5", new)
        want = outcome(scalar_read_cells, text, "", pn._WAGE_HEADER, True)
        assert isinstance(want[0], type)
        assert outcome(pn._read_grid, text, "", pn._WAGE_HEADER, pn._CELL_KEYS, True) == want

    @pytest.mark.parametrize(
        "row, alias",
        [
            ("2000Q2,Asian,D1", "2000X2,Asian,D1"),
            ("2000Q2,Asian,D1", "2000Q2x,Asian,D1"),  # as wide as the quarter field, so not cut
            ("2000Q2,Asian,D1", "1999Q6,Asian,D1"),  # quarter index 4 * 1999 + 5
            ("2000Q1,Asian,D1", "199:Q1,Asian,D1"),  # ':' follows '9', so 199: reads as year 2000
            ("2000Q1,White,D1", "2000Q1,Hispanic,Q3"),  # cell 3 * 1 - 1, as if Hispanic came before Asian
            ("2000Q1,Asian,D9", "2000Q2,Asian,D5"),  # cell 9 - 3, as if D5 came before D1
            ("2000Q1,White,D1", "2000Q1,White\0,D1"),  # numpy drops a trailing NUL
        ],
    )
    def test_labels_that_alias_a_cell_are_errors(self, row, alias):
        # each alias gives a plain pass without one of its label checks a full grid
        text = self.cells_text(["2000Q1", "2000Q2"]).replace(row + ",", alias + ",")
        want = outcome(scalar_read_cells, text, "", pn._WAGE_HEADER, True)
        assert isinstance(want[0], type)
        assert outcome(pn._read_grid, text, "", pn._WAGE_HEADER, pn._CELL_KEYS, True) == want

    def test_quarter_past_9999Q4_is_an_error(self):
        # 10000Q1 is the label format_quarter gives the index after 9999Q4, and fits the quarter field
        message = r"malformed quarter label '10000Q1' \(expected YYYYQn\)$"
        with pytest.raises(pn.PanelError, match=f"^row 11: {message}"):
            pn.parse_wage_csv(io.StringIO(self.cells_text(["9999Q4", "10000Q1"])))
        with pytest.raises(pn.PanelError, match=f"^row 3: {message}"):
            pn.parse_shock_csv(io.StringIO("quarter,shock\n9999Q4,1.5\n10000Q1,2.5\n"))

    def test_byte_order_mark(self, tmp_path):
        text = "\ufeff" + self.cells_text(["2000Q1", "2000Q2"])
        path = tmp_path / "wages.csv"
        path.write_text(text, encoding="utf-8")
        for source in (str(path), path):
            assert pn.parse_wage_csv(source).quarters == ("2000Q1", "2000Q2")
        with open(path, encoding="utf-8", newline="") as fh:
            assert pn.parse_wage_csv(fh).quarters == ("2000Q1", "2000Q2")
        assert pn.parse_wage_csv(io.StringIO(text)).quarters == ("2000Q1", "2000Q2")
        assert pn.parse_shock_csv(io.StringIO("\ufeffquarter,shock\n2000Q1,0.5\n")).quarters == ("2000Q1",)

    def test_byte_order_mark_only_before_the_header(self):
        with pytest.raises(pn.PanelError, match=r"row 2: malformed quarter label '\\ufeff2000Q1'"):
            pn.parse_shock_csv(io.StringIO("quarter,shock\n\ufeff2000Q1,0.5\n"))


# every reader of a CSV, with its header and its error type
READERS = pytest.mark.parametrize(
    "read, header, error",
    [
        (pn.parse_wage_csv, pn._WAGE_HEADER, pn.PanelError),
        (pn.read_growth_csv, pn._GROWTH_HEADER, pn.PanelError),
        (pn.parse_shock_csv, pn._SHOCK_HEADER, pn.PanelError),
        (pn.read_series_csv, pn.SERIES_HEADER, pn.PanelError),
        (vx.read_irf_csv, ("horizon", "variable", "point", "lower", "upper"), vx.VarxError),
    ],
    ids=["wage", "growth", "shock", "series", "irf"],
)


class TestNotUtf8:
    @READERS
    def test_reader_raises_its_own_error(self, read, header, error, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(",".join(header).encode() + b"\n2000Q1,\xff\n")
        with pytest.raises(error, match=r"^not UTF-8 text: byte 0xff: invalid start byte$"):
            read(path)
        with open(path, encoding="utf-8", newline="") as fh, pytest.raises(error, match="^not UTF-8 text: "):
            read(fh)

    @READERS
    def test_binary_file_raises_its_own_error(self, read, header, error, tmp_path):
        text = ",".join(header).encode() + b"\n2000Q1,1.5\n"
        message = r"^expected lines of text, got bytes: open the file in text mode$"
        with pytest.raises(error, match=message):
            read(io.BytesIO(text))
        path = tmp_path / "rows.csv"
        path.write_bytes(text)
        with open(path, "rb") as fh, pytest.raises(error, match=message):
            read(fh)


class TestPanelWage:
    def test_known_cell(self):
        panel = synthetic_wage_panel(4)
        assert panel.wage(panel.quarters[2], "Black", "Q3") == panel.wages[2, pn.CELLS.index(("Q3", "Black"))]

    @pytest.mark.parametrize(
        "args, message",
        [
            (("1800Q1", "Black", "Q3"), "quarter '1800Q1' not in panel"),
            ((None, "Hispanic", "Q3"), "unknown race 'Hispanic'"),
            ((None, "Black", "D5"), "unknown quantile 'D5'"),
        ],
    )
    def test_unknown_label_named(self, args, message):
        panel = synthetic_wage_panel(4)
        quarter, race, quantile = args
        with pytest.raises(pn.PanelError, match=f"^{message}$"):
            panel.wage(quarter or panel.quarters[0], race, quantile)


class TestFirstQuarterRoundTrip:
    """A panel or shock series written and read back keeps its first quarter index, labels and values."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), T=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_wage_csv(self, tmp_path_factory, data, T, seed):
        first = data.draw(st.integers(0, 40000 - T))
        # integer wages, sorted D1 <= Q3 <= D9 per race, are written exactly at %.10g
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.integers(1, 10**9, size=(T, 3, 3)), axis=1).reshape(T, 9).astype(float)
        panel = pn.QuarterlyPanel(first, grid)
        path = tmp_path_factory.mktemp("wages") / "wages.csv"
        pn.write_wage_csv(panel, path)
        back = pn.parse_wage_csv(path)
        assert back.first == first
        assert back.quarters == tuple(pn.format_quarter(first + t) for t in range(T))
        assert np.array_equal(back.wages, grid)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), T=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_shock_csv(self, tmp_path_factory, data, T, seed):
        first = data.draw(st.integers(0, 40000 - T))
        values = np.random.default_rng(seed).integers(-(10**9), 10**9, T) / 1000  # exact at %.10g
        path = tmp_path_factory.mktemp("shocks") / "shocks.csv"
        pn.write_shock_csv(pn.ShockSeries(first, values), path)
        back = pn.parse_shock_csv(path)
        assert back.first == first
        assert back.quarters == tuple(pn.format_quarter(first + t) for t in range(T))
        assert np.array_equal(back.values, values)


class TestIrfReader:
    HEADER = "horizon,variable,point,lower,upper\n"

    def test_negative_horizon_rejected(self):
        text = self.HEADER + "0,total,1,0,2\n-1,total,9,9,9\n1,total,1,0,2\n"
        with pytest.raises(vx.VarxError, match="^row 3: negative horizon -1$"):
            vx.read_irf_csv(io.StringIO(text))

    @pytest.mark.parametrize("horizon", ["1_0", "+1", "\u0661", "1\uff10", "-", ""])
    def test_horizon_must_be_ascii_digits(self, horizon):
        text = self.HEADER + "0,total,1,0,2\n" + f"{horizon},total,9,9,9\n"
        with pytest.raises(vx.VarxError, match=f"^row 3: non-numeric horizon {re.escape(repr(horizon))}$"):
            vx.read_irf_csv(io.StringIO(text))

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1\uff10"])
    @pytest.mark.parametrize("column", [2, 3, 4])
    def test_values_must_be_ascii_numbers(self, value, column):
        fields = ["1", "total", "1", "0", "2"]
        fields[column] = value
        text = self.HEADER + "0,total,1,0,2\n" + ",".join(fields) + "\n"
        name = ("point", "lower", "upper")[column - 2]
        with pytest.raises(vx.VarxError, match=f"^row 3: non-numeric {name} {re.escape(repr(value))}$"):
            vx.read_irf_csv(io.StringIO(text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("column", [2, 3, 4])
    def test_values_must_be_finite(self, value, column):
        fields = ["1", "total", "1", "0", "2"]
        fields[column] = value
        text = self.HEADER + "0,total,1,0,2\n" + ",".join(fields) + "\n"
        name = ("point", "lower", "upper")[column - 2]
        with pytest.raises(vx.VarxError, match=f"^row 3: {name} must be finite, got {value}$"):
            vx.read_irf_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "row, message",
        [("-1,total,x,0,2", "negative horizon -1"), ("0,total,x,0,2", "duplicate entry for horizon 0, variable total")],
    )
    def test_horizon_then_duplicates_then_values(self, row, message):
        with pytest.raises(vx.VarxError, match=f"^row 3: {message}$"):
            vx.read_irf_csv(io.StringIO(self.HEADER + "0,total,1,0,2\n" + row + "\n"))

    @pytest.mark.parametrize("line", [1, 3])
    def test_csv_error_names_its_row(self, line):
        lines = [self.HEADER, "0,total,1,0,2\n", "1,total,1,0,2\n"]
        lines[line - 1] = lines[line - 1].replace("total", "t" * 131_073).replace("variable", "v" * 131_073)
        with pytest.raises(vx.VarxError, match=rf"^row {line}: field larger than field limit \(131072\)$"):
            vx.read_irf_csv(io.StringIO("".join(lines)))

    def test_name_with_comma_round_trips(self, tmp_path):
        point = np.array([[0.5, -1.25], [0.125, 2.0]])
        irf = vx.ImpulseResponse(("a,b", "total"), point, point - 1.0, point + 1.0)
        path = tmp_path / "irf.csv"
        vx.write_irf_csv(irf, path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == '0,"a,b",0.5,-0.5,1.5'
        back = vx.read_irf_csv(path)
        assert back.names == irf.names
        for got, want in ((back.point, irf.point), (back.lower, irf.lower), (back.upper, irf.upper)):
            assert np.array_equal(got, want)


class TestWriters:
    """The column writers write what csv.writer and f"{x:.10g}" wrote, byte for byte."""

    @pytest.fixture(scope="class")
    def panel(self):
        return synthetic_wage_panel(4000, "1000Q1")

    def assert_same_bytes(self, tmp_path, write, reference, *args):
        write(*args, tmp_path / "new.csv")
        reference(*args, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_wage_csv(self, panel, tmp_path):
        self.assert_same_bytes(
            tmp_path, pn.write_wage_csv,
            lambda p, path: scalar_write_cells(path, pn._WAGE_HEADER, p.quarters, p.wages), panel,
        )

    @pytest.mark.parametrize("method", ["yoy", "log_qoq"])
    def test_growth_csv(self, panel, method, tmp_path):
        self.assert_same_bytes(
            tmp_path, pn.write_growth_csv,
            lambda g, path: scalar_write_cells(path, pn._GROWTH_HEADER, g.quarters, g.growth),
            pn.growth_rates(panel, method),
        )

    def test_series_csv(self, panel, tmp_path):
        self.assert_same_bytes(tmp_path, pn.write_series_csv, scalar_write_series, pn.compute_series(panel))

    def test_shock_csv(self, panel, tmp_path):
        self.assert_same_bytes(
            tmp_path, pn.write_shock_csv,
            lambda s, path: scalar_write_rows(
                path, ("quarter", "shock"), ((q, f"{v:.10g}") for q, v in zip(s.quarters, s.values.tolist()))
            ),
            synthetic_shock_series(panel.quarters),
        )

    TEXT = st.text(
        st.sampled_from(',"%{}\r\n\t a') | st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
    )

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(TEXT, min_size=1, max_size=5, unique=True),
        names=st.lists(TEXT, min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def test_any_text_and_float(self, tmp_path_factory, labels, names, data):
        tmp_path = tmp_path_factory.mktemp("w")
        floats = st.floats(allow_nan=True, allow_infinity=True)
        grid = np.array(data.draw(st.lists(floats, min_size=9 * len(labels), max_size=9 * len(labels))))
        growth = pn.GrowthSeries(tuple(labels), grid.reshape(len(labels), 9))
        self.assert_same_bytes(
            tmp_path, pn.write_growth_csv,
            lambda g, path: scalar_write_cells(path, pn._GROWTH_HEADER, g.quarters, g.growth), growth,
        )
        bands = np.array(data.draw(st.lists(floats, min_size=6 * len(names), max_size=6 * len(names))))
        bands = bands.reshape(3, 2, len(names))
        irf = vx.ImpulseResponse(tuple(names), *bands)
        self.assert_same_bytes(tmp_path, vx.write_irf_csv, scalar_write_irf, irf)
