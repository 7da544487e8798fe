"""Tests for panel ingestion, alignment, and series construction."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.fixtures import (
    constant_panel,
    graded_growth_panel,
    make_quarters,
    synthetic_shock_series,
    synthetic_wage_panel,
)
from wageineq.theil import DomainError, decompose


def wage_csv_text(quarters, wage_fn):
    """Build wage CSV text; wage_fn(quarter, race, quantile) -> value."""
    lines = ["quarter,race,quantile,wage"]
    for quarter in quarters:
        for quantile, race in pn.CELLS:
            lines.append(f"{quarter},{race},{quantile},{wage_fn(quarter, race, quantile)}")
    return "\n".join(lines) + "\n"


FLAT = wage_csv_text(["2005Q1", "2005Q2"], lambda q, r, u: {"D1": 500, "Q3": 900, "D9": 1500}[u])


class TestQuarterLabels:
    def test_round_trip(self):
        for label in ("2000Q1", "2019Q4", "1987Q3", "0999Q1", "0000Q1", "9999Q4"):
            assert pn.format_quarter(pn.parse_quarter(label)) == label
        assert synthetic_wage_panel(8, "0999Q1").quarters[:2] == ("0999Q1", "0999Q2")

    @pytest.mark.parametrize(
        "bad",
        ["2000-Q1", "2000Q5", "Q12000", "20001", "2000q", "x",
         "1_99Q1", "199 Q1", "+999Q1", "-999Q1", "\u0661\u0669\u0669\u0669Q1", "2000Q\uff11", "999Q1"],
    )
    def test_malformed(self, bad):
        with pytest.raises(pn.PanelError, match="quarter"):
            pn.parse_quarter(bad)


class TestParseWageCsv:
    def test_well_formed_two_quarters(self):
        panel = pn.parse_wage_csv(io.StringIO(FLAT))
        assert panel.n_quarters == 2
        assert panel.quarters == ("2005Q1", "2005Q2")
        assert panel.wage("2005Q1", "Black", "Q3") == 900

    def test_rows_may_be_unordered(self):
        lines = FLAT.strip().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        panel = pn.parse_wage_csv(io.StringIO("\n".join(shuffled)))
        assert np.array_equal(panel.wages, pn.parse_wage_csv(io.StringIO(FLAT)).wages)

    def test_missing_cell_names_it(self):
        broken = "\n".join(
            l for l in FLAT.splitlines() if not l.startswith("2005Q2,Asian,Q3")
        )
        with pytest.raises(pn.PanelError, match=r"2005Q2.*Asian.*Q3"):
            pn.parse_wage_csv(io.StringIO(broken))

    def test_zero_wage_rejected(self):
        with pytest.raises(pn.PanelError, match="positive"):
            pn.parse_wage_csv(io.StringIO(FLAT.replace("2005Q1,Asian,D1,500", "2005Q1,Asian,D1,0")))

    def test_duplicate_cell_rejected(self):
        with pytest.raises(pn.PanelError, match="duplicate"):
            pn.parse_wage_csv(io.StringIO(FLAT + "2005Q1,Asian,D1,500\n"))

    def test_gap_in_quarters_rejected(self):
        text = wage_csv_text(["2005Q1", "2005Q3"], lambda q, r, u: 100)
        with pytest.raises(pn.PanelError, match="gap"):
            pn.parse_wage_csv(io.StringIO(text))

    def test_non_numeric_wage_reports_row(self):
        with pytest.raises(pn.PanelError, match=r"row \d+"):
            pn.parse_wage_csv(io.StringIO(FLAT.replace("2005Q1,Asian,D1,500", "2005Q1,Asian,D1,abc")))

    def test_unknown_race_rejected(self):
        with pytest.raises(pn.PanelError, match="race"):
            pn.parse_wage_csv(io.StringIO(FLAT + "2005Q1,Martian,D1,500\n"))

    def test_bad_header(self):
        with pytest.raises(pn.PanelError, match="header"):
            pn.parse_wage_csv(io.StringIO("a,b,c,d\n"))

    def test_accepts_bytes_and_crlf(self):
        data = FLAT.replace("\n", "\r\n").encode("utf-8")
        assert pn.parse_wage_csv(io.StringIO(data.decode("utf-8"))).n_quarters == 2

    def test_quantile_order_enforced(self):
        text = wage_csv_text(["2005Q1"], lambda q, r, u: {"D1": 900, "Q3": 500, "D9": 1500}[u])
        with pytest.raises(pn.PanelError, match="out of order"):
            pn.parse_wage_csv(io.StringIO(text))


class TestParseShockCsv:
    def test_three_rows(self):
        s = pn.parse_shock_csv(io.StringIO("quarter,shock\n2005Q1,0.1\n2005Q2,-0.2\n2005Q3,0\n"))
        assert s.quarters == ("2005Q1", "2005Q2", "2005Q3")
        assert np.allclose(s.values, [0.1, -0.2, 0.0])

    def test_duplicate_quarter(self):
        with pytest.raises(pn.PanelError, match="duplicate"):
            pn.parse_shock_csv(io.StringIO("quarter,shock\n2005Q1,0.1\n2005Q1,0.2\n"))

    def test_non_numeric_value_reports_row(self):
        with pytest.raises(pn.PanelError, match="row 3"):
            pn.parse_shock_csv(io.StringIO("quarter,shock\n2005Q1,0.1\n2005Q2,bad\n"))


class TestAlign:
    def test_full_overlap(self):
        quarters = make_quarters("2000Q1", 81)  # 2000Q1..2020Q1
        panel = synthetic_wage_panel(81)
        shocks = synthetic_shock_series(quarters)
        joined, _ = pn.align(panel, shocks)
        assert len(joined.quarters) == 81

    def test_disjoint_ranges_error(self):
        panel = synthetic_wage_panel(30, start="2000Q1")
        shocks = synthetic_shock_series(make_quarters("2015Q1", 30))
        with pytest.raises(pn.PanelError, match="^panel 2000Q1..2007Q2 and shock series 2015Q1..2022Q2 share no quarter$"):
            pn.align(panel, shocks)

    def test_panel_subset_of_shocks(self):
        panel = synthetic_wage_panel(30, start="2001Q1")
        shocks = synthetic_shock_series(make_quarters("2000Q1", 60))
        joined, _ = pn.align(panel, shocks)
        assert joined.quarters == panel.quarters

    @pytest.mark.parametrize("panel_first, shock_first, spans", [
        (8000, 8010, "panel 2000Q1..2001Q1 and shock series 2002Q3..2003Q3"),  # disjoint
        (8000, 8005, "panel 2000Q1..2001Q1 and shock series 2001Q2..2002Q2"),  # adjacent
        (8005, 8000, "panel 2001Q2..2002Q2 and shock series 2000Q1..2001Q1"),  # adjacent, shocks first
    ])
    def test_runs_sharing_no_quarter(self, panel_first, shock_first, spans):
        panel = pn.QuarterlyPanel(panel_first, np.full((5, 9), 700.0))
        with pytest.raises(pn.PanelError, match=f"^{spans} share no quarter$"):
            pn.align(panel, pn.ShockSeries(shock_first, np.zeros(5)))

    @staticmethod
    def fit_total(panel, shocks):
        """align, then fit the total index under the default spec, as ``irf --target total`` does."""
        panel, shocks = pn.align(panel, shocks)
        data = vx.TimeSeriesData(panel.first, pn.compute_series(panel).total, shocks.values, ("total",))
        return vx.estimate(vx.build_design(data, vx.VarxSpec()))

    def test_short_intersection_error(self):
        """align keeps a 2-quarter overlap whole; the fit, not align, rejects it."""
        panel = synthetic_wage_panel(30, start="2000Q1")
        shocks = synthetic_shock_series(make_quarters("2007Q1", 30))
        joined_panel, joined_shocks = pn.align(panel, shocks)
        assert joined_panel.quarters == joined_shocks.quarters == ("2007Q1", "2007Q2")
        message = "^sample 2007Q1..2007Q2: effective sample of 0 rows is below the floor of 17 for 7 regressors$"
        with pytest.raises(vx.VarxError, match=message):
            self.fit_total(panel, shocks)

    def test_overlap_one_short_of_minimum(self):
        """The default total fit needs T_eff >= 7 + 10 rows, so 21 quarters: 20 fall one short, 21 fit."""
        panel = synthetic_wage_panel(30, start="2000Q1")
        shocks = synthetic_shock_series(make_quarters("2002Q3", 30))  # overlap 2002Q3..2007Q2
        assert len(pn.align(panel, shocks)[0].quarters) == 20
        message = "^sample 2002Q3..2007Q2: effective sample of 16 rows is below the floor of 17 for 7 regressors$"
        with pytest.raises(vx.VarxError, match=message):
            self.fit_total(panel, shocks)
        shocks = synthetic_shock_series(make_quarters("2002Q2", 30))  # overlap 2002Q2..2007Q2
        assert self.fit_total(panel, shocks).residuals.shape == (17, 1)

    def test_a_single_shared_quarter_is_kept(self):
        panel = pn.QuarterlyPanel(8000, np.full((5, 9), 700.0))
        joined_panel, joined_shocks = pn.align(panel, pn.ShockSeries(8004, [0.5, 0.25]))
        assert joined_panel.quarters == joined_shocks.quarters == ("2001Q1",)
        assert joined_shocks.values.tolist() == [0.5]

    def test_shocks_start_inside_panel(self):
        panel = synthetic_wage_panel(40, start="2000Q1")
        shocks = synthetic_shock_series(make_quarters("2003Q2", 60))
        joined_panel, joined_shocks = pn.align(panel, shocks)
        assert joined_panel.quarters == joined_shocks.quarters == make_quarters("2003Q2", 27)
        assert np.array_equal(joined_panel.wages, panel.wages[13:])
        assert np.array_equal(joined_shocks.values, shocks.values[:27])

    def test_partial_overlap_at_panel_start(self):
        panel = synthetic_wage_panel(40, start="2005Q1")
        shocks = synthetic_shock_series(make_quarters("2000Q1", 45))  # ends 2011Q1
        joined_panel, joined_shocks = pn.align(panel, shocks)
        assert joined_panel.quarters == joined_shocks.quarters == make_quarters("2005Q1", 25)
        assert np.array_equal(joined_panel.wages, panel.wages[:25])
        assert np.array_equal(joined_shocks.values, shocks.values[20:])

    def test_shocks_after_panel_end(self):
        panel = synthetic_wage_panel(30, start="2000Q1")
        shocks = synthetic_shock_series(make_quarters("2010Q1", 30))
        with pytest.raises(pn.PanelError, match="^panel 2000Q1..2007Q2 and shock series 2010Q1..2017Q2 share no quarter$"):
            pn.align(panel, shocks)

    def test_restrict_to_inner_run(self):
        panel = synthetic_wage_panel(12)
        sub = panel.restrict(panel.first + 3, 4)
        assert sub.quarters == panel.quarters[3:7]
        assert np.array_equal(sub.wages, panel.wages[3:7])
        shocks = synthetic_shock_series(panel.quarters)
        assert np.array_equal(shocks.restrict(panel.first + 5, 7).values, shocks.values[5:])

    def test_restrict_rejects_runs_it_cannot_hold(self):
        panel = synthetic_wage_panel(12)
        shocks = synthetic_shock_series(panel.quarters)
        for run in (panel, shocks):
            with pytest.raises(pn.PanelError, match="^does not cover quarter 2003Q1$"):
                run.restrict(panel.first + 10, 4)  # runs past the end
            with pytest.raises(pn.PanelError, match="^does not cover quarter 1999Q4$"):
                run.restrict(panel.first - 1, 2)  # starts before the run
            assert run.restrict(panel.first, 12).quarters == panel.quarters

    @pytest.mark.parametrize("offset, n, missing", [
        (-3, 2, "1999Q2"),  # wholly before the run
        (14, 1, "2003Q3"),  # wholly past its end
    ])
    def test_restrict_names_the_first_quarter_it_lacks(self, offset, n, missing):
        panel = synthetic_wage_panel(12)  # 2000Q1..2002Q4
        for run in (panel, synthetic_shock_series(panel.quarters)):
            with pytest.raises(pn.PanelError, match=f"^does not cover quarter {missing}$"):
                run.restrict(panel.first + offset, n)

    def test_restrict_rejects_a_negative_count(self):
        panel = synthetic_wage_panel(12)
        for run in (panel, synthetic_shock_series(panel.quarters)):
            with pytest.raises(pn.PanelError, match="^cannot take -1 quarters$"):
                run.restrict(panel.first + 3, -1)


class TestFirstQuarterIndex:
    """Panels and shock series hold their first quarter index; labels are derived from it."""

    @staticmethod
    def label_align(panel, shocks):
        """align by intersecting quarter labels: the reference for the index arithmetic."""
        shock_quarters = set(shocks.quarters)
        common = [t for t, q in enumerate(panel.quarters) if q in shock_quarters]
        if not common:
            return (
                f"panel {panel.quarters[0]}..{panel.quarters[-1]} and shock series "
                f"{shocks.quarters[0]}..{shocks.quarters[-1]} share no quarter"
            )
        offset = shocks.quarters.index(panel.quarters[common[0]])
        return (
            tuple(panel.quarters[t] for t in common),
            panel.wages[common],
            shocks.values[offset : offset + len(common)],
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n_panel=st.integers(1, 30),
        n_shocks=st.integers(1, 30),
        offset=st.integers(-35, 35),
    )
    def test_align_matches_label_intersection(self, n_panel, n_shocks, offset):
        panel = synthetic_wage_panel(n_panel, "2000Q1")
        shocks = pn.ShockSeries(panel.first + offset, np.arange(n_shocks, dtype=float))
        want = self.label_align(panel, shocks)
        if isinstance(want, str):
            with pytest.raises(pn.PanelError, match=f"^{re.escape(want)}$"):
                pn.align(panel, shocks)
            return
        joined_panel, joined_shocks = pn.align(panel, shocks)
        assert joined_panel.quarters == joined_shocks.quarters == want[0]
        assert np.array_equal(joined_panel.wages, want[1])
        assert np.array_equal(joined_shocks.values, want[2])

    def test_run_past_9999q4(self):
        last = pn.parse_quarter("9999Q4")
        assert pn.QuarterlyPanel(last, np.full((1, 9), 700.0)).quarters == ("9999Q4",)
        with pytest.raises(pn.PanelError, match="2 quarters cannot start at quarter index 39999"):
            pn.QuarterlyPanel(last, np.full((2, 9), 700.0))
        with pytest.raises(pn.PanelError, match="quarter index -1"):
            pn.ShockSeries(-1, np.zeros(2))

    @pytest.mark.parametrize("first", [0, 8000, 39999, 40000, -1])
    def test_an_empty_run_is_rejected(self, first):
        message = "^a run of quarters needs one quarter or more, not 0$"
        with pytest.raises(pn.PanelError, match=message):
            pn.ShockSeries(first, [])
        panel = synthetic_wage_panel(4)
        for run in (panel, synthetic_shock_series(panel.quarters)):
            with pytest.raises(pn.PanelError, match=message):
                run.restrict(panel.first + 1, 0)

    @pytest.mark.parametrize("first", [2000.0, "2000Q1", None])
    def test_first_must_be_an_integer(self, first):
        with pytest.raises(pn.PanelError, match="cannot start at quarter index"):
            pn.QuarterlyPanel(first, np.full((2, 9), 700.0))

    @pytest.mark.parametrize("label", ["2005Q1", "2005q1", " 2005Q1", "2005Q1 "])
    def test_row_lookup_takes_any_label_parse_quarter_takes(self, label):
        panel = synthetic_wage_panel(24, "2000Q1")
        dist, _ = pn.build_distribution(panel, label)
        assert np.array_equal(dist, panel.wages[20])
        assert panel.wage(label, "Black", "Q3") == panel.wages[20, pn.CELLS.index(("Q3", "Black"))]

    def test_labels_are_canonical_whatever_the_start_label(self):
        panel = synthetic_wage_panel(4, "2000q1")
        assert panel.quarters == ("2000Q1", "2000Q2", "2000Q3", "2000Q4")
        assert np.array_equal(pn.build_distribution(panel, "2000Q1")[0], panel.wages[0])

    @pytest.mark.parametrize("label", ["1999Q4", "2006Q1"])
    def test_row_lookup_outside_the_panel(self, label):
        panel = synthetic_wage_panel(24, "2000Q1")
        with pytest.raises(pn.PanelError, match=f"^quarter '{label}' not in panel$"):
            pn.build_distribution(panel, label)

    def test_sequences_are_taken_as_float_arrays(self):
        shocks = pn.ShockSeries(pn.parse_quarter("2000Q1"), [0.1, 0.2])
        assert shocks.values.dtype == float and shocks.values.tolist() == [0.1, 0.2]
        panel = pn.QuarterlyPanel(0, [[1.0] * 9] * 3)
        assert panel.wages.dtype == float and panel.wages.shape == (3, 9)
        wages = np.full((2, 9), 700.0)
        assert pn.QuarterlyPanel(0, wages).wages is wages  # no copy

    def test_non_numeric_input(self):
        with pytest.raises(pn.PanelError, match="^panel wages must be numeric: could not convert string to float"):
            pn.QuarterlyPanel(0, np.full((2, 9), "x"))
        with pytest.raises(pn.PanelError, match="^shock values must be numeric: float\\(\\) argument"):
            pn.ShockSeries(0, [{}, {}])

    @pytest.mark.parametrize("shape", [(3, 8), (3, 9, 1), (9,), (0, 9)])
    def test_rejects_a_wage_grid_not_quarters_by_nine(self, shape):
        message = rf"^wage grid shape {re.escape(str(shape))} is not \(quarters, 9\)$"
        if shape == (0, 9):
            message = "^a run of quarters needs one quarter or more, not 0$"
        with pytest.raises(pn.PanelError, match=message):
            pn.QuarterlyPanel(0, np.full(shape, 700.0))

    @pytest.mark.parametrize("wage", [0.0, -700.0, np.nan, np.inf])
    def test_rejects_a_wage_not_positive_and_finite(self, wage):
        wages = np.full((3, 9), 700.0)
        wages[1, 4] = wage
        with pytest.raises(pn.PanelError, match="^panel wages must be positive and finite$"):
            pn.QuarterlyPanel(0, wages)

    def test_rejects_shock_values_not_one_per_quarter(self):
        with pytest.raises(pn.PanelError, match=r"^shock values of shape \(2, 2\) are not one per quarter$"):
            pn.ShockSeries(0, np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_shock(self, value):
        with pytest.raises(pn.PanelError, match="^shock values must be finite$"):
            pn.ShockSeries(0, [0.1, value, 0.2])

    def test_shock_series_needs_contiguous_labels(self):
        quarters = make_quarters("2000Q1", 4)
        assert synthetic_shock_series(quarters).quarters == quarters
        with pytest.raises(pn.PanelError, match=r"^quarters 2000Q1\.\.2000Q4 are not one contiguous run$"):
            synthetic_shock_series(("2000Q1", "2000Q3", "2000Q4"))

    def test_quarters_is_derived(self):
        panel = synthetic_wage_panel(4)
        with pytest.raises(AttributeError):
            panel.quarters = ("1990Q1",) * 4
        with pytest.raises(TypeError):
            pn.QuarterlyPanel(panel.first, panel.wages, quarters=panel.quarters)


class TestQuarterLabelRows:
    """A bad quarter label names the row it is on, in every reader."""

    SHOCK = "quarter,shock\n2005Q1,0.1\n{q},0.2\n"
    SERIES = ",".join(pn.SERIES_HEADER) + "\n" + "".join(
        f"{q},0.2,0.01,0.01,0.01,0.17,0.15,0.85\n" for q in ("2005Q1", "{q}")
    )
    GROWTH = "quarter,race,quantile,growth_pct\n2005Q1,Asian,D1,1.0\n{q},Asian,Q3,1.0\n"
    WAGE = "quarter,race,quantile,wage\n2005Q1,Asian,D1,500\n{q},Asian,Q3,900\n"

    @pytest.mark.parametrize(
        "reader, text",
        [
            (pn.parse_wage_csv, WAGE),
            (pn.parse_shock_csv, SHOCK),
            (pn.read_series_csv, SERIES),
            (pn.read_growth_csv, GROWTH),
        ],
        ids=["wage", "shock", "series", "growth"],
    )
    @pytest.mark.parametrize(
        "label, message",
        [
            ("BADQ3", r"row 3: malformed quarter label 'BADQ3' \(expected YYYYQn\)"),
            ("2000Q5", r"row 3: quarter number out of range in '2000Q5'"),
        ],
    )
    def test_row_named(self, reader, text, label, message):
        with pytest.raises(pn.PanelError, match=message):
            reader(io.StringIO(text.format(q=label)))


class TestBuildDistribution:
    def test_equal_wages_zero_index(self):
        panel = constant_panel(2)
        dist, part = pn.build_distribution(panel, "2000Q1")
        assert decompose(dist, part).total == 0.0

    def test_dispersion_only_in_d1(self):
        def wage(q, r, u):
            if u == "D1":
                return {"Asian": 100, "Black": 100, "White": 200}[r]
            return {"Q3": 400, "D9": 800}[u]

        panel = pn.parse_wage_csv(io.StringIO(wage_csv_text(["2000Q1"], wage)))
        series = pn.compute_series(panel)
        assert series.within[0, 0] > 0
        assert series.within[0, 1] == 0.0
        assert series.within[0, 2] == 0.0

    def test_partition_groups_are_quantiles(self):
        panel = synthetic_wage_panel(4)
        _, part = pn.build_distribution(panel, "2000Q1")
        assert part.groups == ("D1", "Q3", "D9")
        assert all(len(part.indices(g)) == 3 for g in part.groups)

    def test_absent_quarter(self):
        panel = synthetic_wage_panel(4)
        with pytest.raises(pn.PanelError, match="not in panel"):
            pn.build_distribution(panel, "1990Q1")


class TestComputeSeries:
    def test_decomposition_identity_every_quarter(self):
        series = pn.compute_series(synthetic_wage_panel(40))
        resid = np.abs(series.total - series.within.sum(axis=1) - series.between)
        assert np.all(resid / np.maximum(series.total, 1e-30) < 1e-10)
        assert np.allclose(series.within_share + series.between_share, 1.0, atol=1e-12)

    def test_all_equal_panel_degenerate_convention(self):
        series = pn.compute_series(constant_panel(6))
        assert np.all(series.total == 0.0)
        assert np.all(series.within_share == 0.0)
        assert np.all(series.between_share == 1.0)

    def test_equal_races_within_zero(self):
        text = wage_csv_text(
            ["2000Q1", "2000Q2"], lambda q, r, u: {"D1": 300, "Q3": 700, "D9": 1400}[u]
        )
        series = pn.compute_series(pn.parse_wage_csv(io.StringIO(text)))
        assert np.all(series.within == 0.0)
        assert np.all(series.within_share == 0.0)

    def test_realistic_fixture_within_share_band(self):
        # generator is calibrated to the documented ~12% racial contribution
        series = pn.compute_series(synthetic_wage_panel())
        assert 0.08 < series.within_share.mean() < 0.16

    def test_deterministic_bit_for_bit(self):
        def wage(q, r, u):
            return {"D1": 400, "Q3": 800, "D9": 1600}[u] + 7 * len(r) + 3 * int(q[5])

        text = wage_csv_text(make_quarters("2000Q1", 8), wage)
        a = pn.compute_series(pn.parse_wage_csv(io.StringIO(text)))
        b = pn.compute_series(pn.parse_wage_csv(io.StringIO(text)))
        assert np.array_equal(a.total, b.total)
        assert np.array_equal(a.within, b.within)

    def test_decomposes_whole_panel_in_one_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            pn, "decompose", lambda wages, part: calls.append(wages.shape) or decompose(wages, part)
        )
        pn.compute_series(synthetic_wage_panel(12))
        assert calls == [(12, 9)]


class TestGrowthRates:
    def test_constant_wages_zero_growth(self):
        growth = pn.growth_rates(constant_panel(10))
        assert np.all(growth.growth == 0.0)

    def test_doubling_every_four_quarters(self):
        wages = np.outer(2.0 ** (np.arange(9) / 4.0), np.ones(9)) * [
            300, 300, 300, 700, 700, 700, 1400, 1400, 1400,
        ]
        growth = pn.growth_rates(pn.QuarterlyPanel(pn.parse_quarter("2000Q1"), wages))
        assert np.allclose(growth.growth, 100.0)

    def test_graded_growth_matches_generator(self):
        growth = pn.growth_rates(graded_growth_panel(16))
        for c, (quantile, _) in enumerate(pn.CELLS):
            expect = {"D1": 1.0, "Q3": 3.0, "D9": 5.0}[quantile]
            assert np.allclose(growth.growth[:, c], expect, atol=1e-9)

    def test_first_quarter_is_fifth(self):
        panel = synthetic_wage_panel(10)
        growth = pn.growth_rates(panel)
        assert growth.quarters[0] == panel.quarters[4]

    def test_span_too_short(self):
        with pytest.raises(pn.PanelError, match="quarters"):
            pn.growth_rates(constant_panel(4))

    def test_commutes_with_rescaling(self):
        panel = synthetic_wage_panel(12)
        scaled = pn.QuarterlyPanel(panel.first, panel.wages * 3.5)
        a = pn.growth_rates(panel)
        b = pn.growth_rates(scaled)
        assert np.allclose(a.growth, b.growth, atol=1e-10)

    def test_log_qoq_variant(self):
        panel = synthetic_wage_panel(8)
        growth = pn.growth_rates(panel, method="log_qoq")
        assert growth.quarters[0] == panel.quarters[1]
        expect = 100.0 * np.log(panel.wages[1] / panel.wages[0])
        assert np.allclose(growth.growth[0], expect)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="growth method"):
            pn.growth_rates(synthetic_wage_panel(8), method="mom")


class TestStandardize:
    def test_simple(self):
        assert np.allclose(pn.standardize([1, 2, 3]), [-1, 0, 1])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 7.0, size=40)
        once = pn.standardize(x)
        assert np.allclose(pn.standardize(once), once, atol=1e-12)
        assert abs(once.mean()) < 1e-12
        assert once.std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DomainError, match="zero-variance"):
            pn.standardize([5, 5, 5])

    @pytest.mark.parametrize("series", [[5.0], []])
    def test_needs_two_observations(self, series):
        with pytest.raises(DomainError, match="^standardize needs at least 2 observations$"):
            pn.standardize(series)


class TestCsvRoundTrips:
    def test_series_round_trip(self, tmp_path):
        series = pn.compute_series(synthetic_wage_panel(24))
        path = tmp_path / "series.csv"
        pn.write_series_csv(series, path)
        back = pn.read_series_csv(str(path))
        assert back.quarters == series.quarters
        assert np.allclose(back.total, series.total, rtol=1e-9)
        assert np.allclose(back.within, series.within, rtol=1e-9)

    def test_growth_round_trip(self, tmp_path):
        growth = pn.growth_rates(synthetic_wage_panel(12))
        path = tmp_path / "growth.csv"
        pn.write_growth_csv(growth, path)
        back = pn.read_growth_csv(str(path))
        assert back.quarters == growth.quarters
        assert np.allclose(back.growth, growth.growth, rtol=1e-9)

    def test_wage_panel_round_trip(self, tmp_path):
        panel = synthetic_wage_panel(12)
        path = tmp_path / "wages.csv"
        pn.write_wage_csv(panel, path)
        back = pn.parse_wage_csv(str(path))
        assert back.quarters == panel.quarters
        assert np.allclose(back.wages, panel.wages, rtol=1e-9)

    def test_shock_round_trip(self, tmp_path):
        shocks = synthetic_shock_series(make_quarters("2000Q1", 12))
        path = tmp_path / "shocks.csv"
        pn.write_shock_csv(shocks, path)
        back = pn.parse_shock_csv(str(path))
        assert back.quarters == shocks.quarters
        assert np.allclose(back.values, shocks.values, rtol=1e-9)


class TestReaders:
    """The readers take a path or an open text file and reject malformed rows."""

    GROWTH_HEADER = "quarter,race,quantile,growth_pct\n"

    def test_paths_with_commas_are_paths(self, tmp_path):
        from wageineq import varx as vx

        folder = tmp_path / "a,b"
        folder.mkdir()
        panel = synthetic_wage_panel(12)
        pn.write_wage_csv(panel, folder / "wages.csv")
        pn.write_shock_csv(synthetic_shock_series(panel.quarters), folder / "shocks.csv")
        pn.write_series_csv(pn.compute_series(panel), folder / "series.csv")
        pn.write_growth_csv(pn.growth_rates(panel), folder / "growth.csv")
        irf = vx.ImpulseResponse(("total",), np.zeros((3, 1)), -np.ones((3, 1)), np.ones((3, 1)))
        vx.write_irf_csv(irf, folder / "irf.csv")
        for read in (str, lambda p: p):  # str paths and Path objects
            assert pn.parse_wage_csv(read(folder / "wages.csv")).quarters == panel.quarters
            assert pn.parse_shock_csv(read(folder / "shocks.csv")).quarters == panel.quarters
            assert pn.read_series_csv(read(folder / "series.csv")).quarters == panel.quarters
            assert len(pn.read_growth_csv(read(folder / "growth.csv")).quarters) == 8
            assert vx.read_irf_csv(read(folder / "irf.csv")).names == ("total",)

    def test_open_file(self, tmp_path):
        path = tmp_path / "shocks.csv"
        path.write_text("quarter,shock\n2005Q1,0.1\n\n2005Q2,0.2\n")
        with open(path, encoding="utf-8", newline="") as fh:
            assert pn.parse_shock_csv(fh).quarters == ("2005Q1", "2005Q2")

    def test_field_count_checked(self):
        with pytest.raises(pn.PanelError, match="row 3: expected 2 fields, got 3"):
            pn.parse_shock_csv(io.StringIO("quarter,shock\n2005Q1,0.1\n2005Q2,0.2,9\n"))

    def growth_text(self, quarters):
        return self.GROWTH_HEADER + "".join(
            f"{q},{race},{quantile},1.5\n" for q in quarters for quantile, race in pn.CELLS
        )

    def test_growth_rejects_empty_file(self):
        with pytest.raises(pn.PanelError, match="no data rows"):
            pn.read_growth_csv(io.StringIO(self.GROWTH_HEADER))

    def test_growth_rejects_duplicate_cell(self):
        text = self.growth_text(["2005Q1"]) + "2005Q1,Black,D9,2.0\n"
        with pytest.raises(pn.PanelError, match=r"row 11: duplicate cell \(2005Q1, Black, D9\)"):
            pn.read_growth_csv(io.StringIO(text))

    def test_growth_rejects_quarter_gap(self):
        with pytest.raises(pn.PanelError, match="gap in quarters between 2005Q1 and 2005Q3"):
            pn.read_growth_csv(io.StringIO(self.growth_text(["2005Q1", "2005Q3"])))

    def test_growth_rejects_missing_cell(self):
        text = self.growth_text(["2005Q1"]).replace("2005Q1,White,Q3,1.5\n", "")
        with pytest.raises(pn.PanelError, match=r"missing growth_pct cell \(2005Q1, White, Q3\)"):
            pn.read_growth_csv(io.StringIO(text))

    def series_text(self, quarters):
        return ",".join(pn.SERIES_HEADER) + "\n" + "".join(
            f"{q},0.2,0.01,0.01,0.01,0.17,0.15,0.85\n" for q in quarters
        )

    def test_series_rejects_duplicate_quarter(self):
        with pytest.raises(pn.PanelError, match="row 3: duplicate quarter 2005Q1"):
            pn.read_series_csv(io.StringIO(self.series_text(["2005Q1", "2005Q1"])))

    def test_series_rejects_non_contiguous_quarters(self):
        with pytest.raises(pn.PanelError, match="gap in quarters between 2005Q1 and 2006Q1"):
            pn.read_series_csv(io.StringIO(self.series_text(["2005Q1", "2006Q1"])))

    def test_text_is_not_taken_for_a_file(self):
        with pytest.raises(FileNotFoundError):
            pn.parse_shock_csv("quarter,shock\n2005Q1,0.1\n")
