"""The block-columnar CSV reader and the column writers against row-at-a-time references."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.fixtures import synthetic_shock_series, synthetic_wage_panel


# ---------------------------------------------------------------------------
# Test-only references: the reader and writers as they were, one row at a time.


def scalar_rows(source, header, error):
    """Yield (line number, stripped fields) for each data row of a CSV."""
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
    return tuple(pn.format_quarter(i) for i in qindices), np.array([rows[i] for i in qindices])


def scalar_read_cells(source, header, positive=False):
    name = header[3]
    cells = {}
    for lineno, (quarter, race, quantile, text) in scalar_rows(source, header, pn.PanelError):
        qidx = pn._quarter(quarter, lineno)
        if race not in pn.RACES:
            raise pn.PanelError(f"row {lineno}: unknown race {race!r}")
        if quantile not in pn.QUANTILES:
            raise pn.PanelError(f"row {lineno}: unknown quantile {quantile!r}")
        value = pn._number(text, lineno, name)
        if positive and value <= 0:
            raise pn.PanelError(f"row {lineno}: {name} must be positive, got {text}")
        key = (qidx, quantile, race)
        if key in cells:
            raise pn.PanelError(f"row {lineno}: duplicate cell ({quarter}, {race}, {quantile})")
        cells[key] = value
    qindices = scalar_contiguous({k[0] for k in cells})
    grid = np.empty((len(qindices), 9))
    for t, qidx in enumerate(qindices):
        for c, (quantile, race) in enumerate(pn.CELLS):
            key = (qidx, quantile, race)
            if key not in cells:
                raise pn.PanelError(f"missing {name} cell ({pn.format_quarter(qidx)}, {race}, {quantile})")
            grid[t, c] = cells[key]
    return tuple(pn.format_quarter(i) for i in qindices), grid


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
# Random CSV inputs: shuffled, padded, blank rows, lower-case labels, one corruption.

CELL_FAULTS = (None, "label", "race", "quantile", "non_numeric", "non_finite", "non_positive",
               "duplicate", "dropped", "extra_field", "short_field", "gap")
QUARTER_FAULTS = (None, "label", "non_numeric", "non_finite", "duplicate", "dropped",
                  "extra_field", "short_field", "gap")
VALUE_FAULTS = {
    "non_numeric": ("abc", "", "1.2.3", "0x10", "1_0", "\u0661", "1\uff10"),
    "non_finite": ("inf", "nan", "-inf", "1e999"),
    "non_positive": ("0", "-1.5", "-0"),
}


def field_text(draw, text):
    """A field as it may appear in a file: padded, quoted, or quoted over two lines."""
    style = draw(st.sampled_from(("plain", "plain", "padded", "quoted", "multiline")))
    if style == "padded":
        return draw(st.sampled_from(("", " ", "\t"))) + text + draw(st.sampled_from(("", " ", "  ")))
    if style == "quoted":
        return '"' + text.replace('"', '""') + '"'
    if style == "multiline":
        return '"' + text.replace('"', '""') + '\n"'
    return text


@st.composite
def csv_case(draw, cells):
    """(header, text, block rows) for a wage-style (cells=True) or one-row-per-quarter CSV."""
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
    rows = [[pn.format_quarter(q).replace("Q", draw(st.sampled_from("Qq"))), *rest] for q, *rest in rows]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
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
    elif fault == "gap" and n_quarters >= 3:
        gone = {pn.format_quarter(q) for q in draw(st.sets(st.sampled_from(quarters[1:-1]), min_size=1))}
        rows = [r for r in rows if r[0].upper() not in gone]
    lines = [",".join(field_text(draw, f) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = ",".join(header) + eol + eol.join(lines) + draw(st.sampled_from(("", eol)))
    return header, text, draw(st.integers(1, 12))


def outcome(read, text, newline, *args):
    """The reader's result, or the type and message of what it raised."""
    try:
        return read(io.StringIO(text, newline=newline), *args)
    except (pn.PanelError, csv.Error, AssertionError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1])


class TestBlockColumnarReader:
    """The block reader equals the row-at-a-time reference, error for error."""

    @settings(max_examples=300, deadline=None)
    @given(case=csv_case(cells=True), newline=st.sampled_from(("\n", "")), positive=st.booleans())
    def test_cells_match_scalar_reference(self, case, newline, positive):
        header, text, block_rows = case
        header = header if positive else pn._GROWTH_HEADER
        text = text.replace("wage", header[3], 1)
        want = outcome(scalar_read_cells, text, newline, header, positive)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pn, "_BLOCK_ROWS", block_rows)
            got = outcome(pn._read_cells, text, newline, header, positive)
        assert_same_outcome(got, want)

    @settings(max_examples=300, deadline=None)
    @given(case=csv_case(cells=False), newline=st.sampled_from(("\n", "")))
    def test_by_quarter_matches_scalar_reference(self, case, newline):
        header, text, block_rows = case
        want = outcome(scalar_read_by_quarter, text, newline, header)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pn, "_BLOCK_ROWS", block_rows)
            got = outcome(pn._read_by_quarter, text, newline, header)
        assert_same_outcome(got, want)

    def cells_text(self, quarters, value="1.5"):
        return "quarter,race,quantile,wage\n" + "".join(
            f"{q},{race},{quantile},{value}\n" for q in quarters for quantile, race in pn.CELLS
        )

    @pytest.mark.parametrize("block_rows", [1, 8, 9, 10, 4096])
    def test_whole_fixture_matches_scalar_reference(self, block_rows, monkeypatch, tmp_path):
        panel = synthetic_wage_panel(40, "1990Q1")
        scalar_write_cells(tmp_path / "wages.csv", pn._WAGE_HEADER, panel.quarters, panel.wages)
        monkeypatch.setattr(pn, "_BLOCK_ROWS", block_rows)
        got = pn._read_cells(tmp_path / "wages.csv", pn._WAGE_HEADER, True)
        with open(tmp_path / "wages.csv", encoding="utf-8", newline="") as fh:
            assert_same_outcome(got, scalar_read_cells(fh, pn._WAGE_HEADER, True))

    @pytest.mark.parametrize("row", [10, 11, 12])  # last row of block 1, first and second of block 2
    def test_duplicate_of_an_earlier_block(self, row, monkeypatch):
        monkeypatch.setattr(pn, "_BLOCK_ROWS", 9)
        lines = self.cells_text(["2000Q1", "2000Q2"]).splitlines(keepends=True)
        lines[row - 1] = "2000Q1,Asian,D1,2.5\n"
        with pytest.raises(pn.PanelError, match=rf"^row {row}: duplicate cell \(2000Q1, Asian, D1\)$"):
            pn.parse_wage_csv(io.StringIO("".join(lines)))

    def test_first_gap_named(self, monkeypatch):
        monkeypatch.setattr(pn, "_BLOCK_ROWS", 4)
        text = self.cells_text(["2000Q4", "2000Q1", "2001Q3", "2002Q1"])
        with pytest.raises(pn.PanelError, match="^gap in quarters between 2000Q1 and 2000Q4$"):
            pn.parse_wage_csv(io.StringIO(text))

    def test_first_missing_cell_named(self, monkeypatch):
        monkeypatch.setattr(pn, "_BLOCK_ROWS", 4)
        text = self.cells_text(["2000Q1", "2000Q2"])
        for gone in ("2000Q2,Asian,D9", "2000Q1,White,Q3", "2000Q2,Black,D1"):
            text = text.replace(gone + ",1.5\n", "")
        with pytest.raises(pn.PanelError, match=r"^missing wage cell \(2000Q1, White, Q3\)$"):
            pn.parse_wage_csv(io.StringIO(text))

    def test_first_fault_wins_over_a_later_field_count(self, monkeypatch):
        monkeypatch.setattr(pn, "_BLOCK_ROWS", 9)
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
        with pytest.raises(csv.Error, match="new-line character"):
            pn.parse_wage_csv(io.StringIO(text.replace("Hispanic", "Black")))

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1\uff10"])
    def test_values_must_be_ascii_numbers(self, value):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,White,D9,1.5", f"2000Q1,White,D9,{value}")
        with pytest.raises(pn.PanelError, match=rf"^row 10: non-numeric wage '{value}'$"):
            pn.parse_wage_csv(io.StringIO(text))
        text = f"quarter,shock\n2000Q1,1.5\n2000Q2,{value}\n"
        with pytest.raises(pn.PanelError, match=rf"^row 3: non-numeric shock '{value}'$"):
            pn.parse_shock_csv(io.StringIO(text))

    def test_non_ascii_space_around_a_value_is_stripped(self):
        text = self.cells_text(["2000Q1"]).replace("2000Q1,White,D9,1.5", "2000Q1,White,D9,\u00a02.5\u3000")
        assert pn.parse_wage_csv(io.StringIO(text)).wage("2000Q1", "White", "D9") == 2.5
        assert pn.parse_shock_csv(io.StringIO("quarter,shock\n2000Q1,\u00a0-1.5\n")).values.tolist() == [-1.5]

    def test_rows_after_a_field_spanning_lines_keep_their_numbers(self, monkeypatch):
        monkeypatch.setattr(pn, "_BLOCK_ROWS", 4)
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
    def test_blocks_are_bounded(self, value, spaced, second, monkeypatch):
        monkeypatch.setattr(pn, "_BLOCK_ROWS", 7)
        text = self.cells_text(["2000Q1", "2000Q2"], value)
        if spaced:  # a blank line after data row 2, row 10's value over two lines, a blank line after row 12
            lines = text.splitlines(keepends=True)
            lines[2] += "\n"
            lines[10] = lines[10].replace("1.5\n", '"1.5\n"\n')
            lines[12] += "  \n"
            text = "".join(lines)
        blocks = list(pn._read_rows(io.StringIO(text), pn._WAGE_HEADER, pn.PanelError))
        assert [len(linenos) for linenos, _ in blocks] == [7, 7, 4]
        assert [list(linenos) for linenos, _ in blocks][1] == second
        want = [n for n, _ in scalar_rows(io.StringIO(text), pn._WAGE_HEADER, pn.PanelError)]
        assert [n for linenos, _ in blocks for n in linenos] == want
        assert all(len(column) == len(linenos) for linenos, columns in blocks for column in columns)
        assert blocks[0][1][3] == ["1.5"] * 7

    @pytest.mark.parametrize("new", ["2000Q2,White,D9,1.5\0", "2000Q2,Wh\0ite,D9,1.5", "20\0Q2,White,D9,1.5"])
    def test_nul_matches_scalar_reference(self, new):
        # csv.reader rejects a NUL before Python 3.11 and passes it on after
        text = self.cells_text(["2000Q1", "2000Q2"]).replace("2000Q2,White,D9,1.5", new)
        want = outcome(scalar_read_cells, text, "", pn._WAGE_HEADER, True)
        assert isinstance(want[0], type)
        assert outcome(pn._read_cells, text, "", pn._WAGE_HEADER, True) == want

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


class TestIrfReader:
    HEADER = "horizon,variable,point,lower,upper\n"

    def test_negative_horizon_rejected(self):
        text = self.HEADER + "0,total,1,0,2\n-1,total,9,9,9\n1,total,1,0,2\n"
        with pytest.raises(vx.VarxError, match="^row 3: negative horizon -1$"):
            vx.read_irf_csv(io.StringIO(text))

    @pytest.mark.parametrize("horizon", ["1_0", "+1", "\u0661", "1\uff10", "-", ""])
    def test_horizon_must_be_ascii_digits(self, horizon):
        text = self.HEADER + "0,total,1,0,2\n" + f"{horizon},total,9,9,9\n"
        with pytest.raises(vx.VarxError, match="^row 3: non-numeric value$"):
            vx.read_irf_csv(io.StringIO(text))

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "1\uff10"])
    @pytest.mark.parametrize("column", [2, 3, 4])
    def test_values_must_be_ascii_numbers(self, value, column):
        fields = ["1", "total", "1", "0", "2"]
        fields[column] = value
        text = self.HEADER + "0,total,1,0,2\n" + ",".join(fields) + "\n"
        with pytest.raises(vx.VarxError, match="^row 3: non-numeric value$"):
            vx.read_irf_csv(io.StringIO(text))

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
