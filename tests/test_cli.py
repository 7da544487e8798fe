"""Tests for the command-line pipeline and its output contracts."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import wageineq
from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.cli import COMPONENT_NAMES, main, run_demo, run_irf
from wageineq.fixtures import (
    constant_panel,
    make_quarters,
    synthetic_shock_series,
    synthetic_wage_panel,
)
from wageineq.theil import DomainError


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def inputs(tmp_path):
    panel = synthetic_wage_panel(40)
    wages = tmp_path / "wages.csv"
    shocks = tmp_path / "shocks.csv"
    pn.write_wage_csv(panel, wages)
    pn.write_shock_csv(synthetic_shock_series(panel.quarters), shocks)
    return wages, shocks


def assert_wage_error_names_the_file(runner, tmp_path, command, content, message):
    """``command`` fails on a wage CSV holding the bytes ``content`` in one line naming the file and ``message``."""
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    result = runner.invoke(main, [command, "--wages", str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == f"Error: wage CSV {bad}: {message}\n"
    assert not (tmp_path / "out").exists()


def assert_field_limit_error_names_the_file(runner, tmp_path, command):
    """``command`` fails on a wage CSV with an over-long field in one line naming the file."""
    content = b"quarter,race,quantile,wage\n2000Q1,Asian,D1," + b"1" * 131_073 + b"\n"
    assert_wage_error_names_the_file(runner, tmp_path, command, content, "row 2: field larger than field limit (131072)")


def assert_not_utf8_error_names_the_file(runner, tmp_path, command):
    content = b"quarter,race,quantile,wage\n2000Q1,Asian,D1,1\xff\n"
    assert_wage_error_names_the_file(runner, tmp_path, command, content, "not UTF-8 text: byte 0xff: invalid start byte")


class TestDecompose:
    def test_summary_and_output(self, runner, inputs, tmp_path):
        wages, _ = inputs
        out = tmp_path / "out"
        result = runner.invoke(main, ["decompose", "--wages", str(wages), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "mean within share" in result.output
        series = pn.read_series_csv(str(out / "series.csv"))
        assert np.allclose(series.within_share + series.between_share, 1.0, atol=1e-12)

    def test_all_equal_fixture_zero_total(self, runner, tmp_path):
        wages = tmp_path / "flat.csv"
        pn.write_wage_csv(constant_panel(8), wages)
        out = tmp_path / "out"
        result = runner.invoke(main, ["decompose", "--wages", str(wages), "--out", str(out)])
        assert result.exit_code == 0
        series = pn.read_series_csv(str(out / "series.csv"))
        assert np.all(series.total == 0.0)

    def test_ingestion_error_nonzero_exit(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("quarter,race,quantile,wage\n2000Q1,Asian,D1,-5\n")
        result = runner.invoke(main, ["decompose", "--wages", str(bad), "--out", str(tmp_path)])
        assert result.exit_code != 0
        assert "positive" in result.output

    def test_csv_error_is_reported_on_one_line(self, runner, tmp_path):
        assert_field_limit_error_names_the_file(runner, tmp_path, "decompose")

    def test_text_that_is_not_utf8_is_reported_on_one_line(self, runner, tmp_path):
        assert_not_utf8_error_names_the_file(runner, tmp_path, "decompose")

    def test_missing_wages_flag(self, runner):
        result = runner.invoke(main, ["decompose"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("args, option", [
        (["decompose"], "--wages"),
        (["growth"], "--wages"),
        (["irf", "--shocks", "shocks.csv"], "--wages"),
        (["irf", "--wages", "wages.csv"], "--shocks"),
    ], ids=["decompose", "growth", "irf_wages", "irf_shocks"])
    def test_missing_input_is_a_usage_error(self, runner, tmp_path, args, option):
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output.endswith(f"\nError: Missing option '{option}'.\n"), result.output
        assert not (tmp_path / "out").exists()

    def test_missing_wage_file_makes_no_output_directory(self, runner, tmp_path):
        result = runner.invoke(main, ["decompose", "--wages", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output.startswith("Error: [Errno 2] No such file or directory"), result.output
        assert not (tmp_path / "out").exists()


class TestGrowth:
    def test_csv_error_is_reported_on_one_line(self, runner, tmp_path):
        assert_field_limit_error_names_the_file(runner, tmp_path, "growth")

    def test_text_that_is_not_utf8_is_reported_on_one_line(self, runner, tmp_path):
        assert_not_utf8_error_names_the_file(runner, tmp_path, "growth")

    def test_writes_growth_csv(self, runner, inputs, tmp_path):
        wages, _ = inputs
        out = tmp_path / "out"
        result = runner.invoke(main, ["growth", "--wages", str(wages), "--out", str(out)])
        assert result.exit_code == 0
        growth = pn.read_growth_csv(str(out / "growth.csv"))
        assert growth.growth.shape[1] == 9

    @staticmethod
    def run_growth(runner, tmp_path, levels, method):
        """growth on a panel whose nine cells all take ``levels`` in turn."""
        wages, out = tmp_path / "wages.csv", tmp_path / "out"
        grid = np.repeat(np.array(levels, dtype=float)[:, None], 9, axis=1)
        pn.write_wage_csv(pn.QuarterlyPanel(pn.parse_quarter("2000Q1"), grid), wages)
        return runner.invoke(main, ["growth", "--wages", str(wages), "--out", str(out), "--method", method]), out

    def test_log_growth_beyond_the_ratio_range(self, runner, tmp_path):
        # 1e300 / 1e-300 overflows and 1e-300 / 1e300 underflows, but 100 ln(1e600) is about 138155
        result, out = self.run_growth(runner, tmp_path, [1e-300, 1e300, 1e-300, 1e300, 1e300], "log_qoq")
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        growth = pn.read_growth_csv(out / "growth.csv").growth
        step = float("%.10g" % (100 * 600 * np.log(10.0)))  # as written
        assert np.array_equal(growth, np.array([step, -step, step, 0.0])[:, None] * np.ones(9))

    def test_yoy_overflow_names_quarter_and_cell(self, runner, tmp_path):
        result, out = self.run_growth(runner, tmp_path, [1e-300] + [1e300] * 5, "yoy")
        assert result.exit_code == 1
        assert result.output == "Error: yoy growth overflows at (2001Q1, Asian, D1): wage 1e-300 -> 1e+300\n"
        assert not (out / "growth.csv").exists()

    def test_yoy_growth_of_huge_wages(self, runner, tmp_path):
        # 100 * (1.7e307 - 1e307) overflows, but the 70% rate does not
        result, out = self.run_growth(runner, tmp_path, [1e307] * 4 + [1.7e307] * 2, "yoy")
        assert result.exit_code == 0, result.output
        growth = pn.read_growth_csv(out / "growth.csv").growth
        np.testing.assert_allclose(growth, [[70.0] * 9, [70.0] * 9], rtol=1e-10)

    def test_short_span_fails(self, runner, tmp_path):
        wages = tmp_path / "short.csv"
        pn.write_wage_csv(constant_panel(4), wages)
        result = runner.invoke(main, ["growth", "--wages", str(wages), "--out", str(tmp_path)])
        assert result.exit_code != 0


class TestIrf:
    ARGS = ["--reps", "100", "--seed", "42"]

    def test_writes_irfs_and_manifest(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)] + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["irf_total.csv", "irf_components.csv"]
        assert manifest["spec"]["seed"] == 42
        assert manifest["spec"] == dataclasses.asdict(vx.VarxSpec(bootstrap_reps=100, seed=42))
        assert len(manifest["wage_csv"]["sha256"]) == 64
        for fname in manifest["files"]:
            irf = vx.read_irf_csv(str(out / fname))
            assert np.all(irf.lower <= irf.point)
            assert np.all(irf.point <= irf.upper)
        total = vx.read_irf_csv(str(out / "irf_total.csv"))
        assert total.names == ("total",)
        comps = vx.read_irf_csv(str(out / "irf_components.csv"))
        assert comps.names == ("within_d1", "within_q3", "within_d9", "between")

    def test_numpy_scalars_in_the_spec_write_the_same_manifest(self, inputs, tmp_path):
        wages, shocks = inputs
        specs = {
            "numpy": vx.VarxSpec(
                bootstrap_reps=np.int64(100), seed=np.int64(3), shock_size=np.float32(-0.25),
                contemporaneous_shock=np.bool_(True),
            ),
            "python": vx.VarxSpec(bootstrap_reps=100, seed=3, shock_size=-0.25, contemporaneous_shock=True),
        }
        for name, spec in specs.items():
            run_irf(wages, shocks, tmp_path / name, spec, targets=("total",))
        assert (tmp_path / "numpy" / "manifest.json").read_bytes() == (tmp_path / "python" / "manifest.json").read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--per-component"], ["--start", "2002Q1", "--end", "2008Q4"]])
    def test_every_output_file_resamples_the_same_rows(self, runner, inputs, tmp_path, monkeypatch, extra):
        wages, shocks = inputs
        calls, drawn, kernel = [], [], vx._stream_integers

        def spy(*args):
            calls.append(args)
            drawn.append(kernel(*args))
            return drawn[-1]

        monkeypatch.setattr(vx, "_stream_integers", spy)
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out")]
            + self.ARGS + extra,
        )
        assert result.exit_code == 0, result.output
        files = json.loads((tmp_path / "out" / "manifest.json").read_text())["files"]
        assert len(files) > 1 and len(calls) == len(files)
        T_eff = calls[0][2]
        assert calls == [(42, 100, T_eff, T_eff)] * len(files)
        for rows in drawn:
            for r, row in enumerate(rows):
                assert np.array_equal(row, np.random.default_rng((42, r)).integers(0, T_eff, T_eff))

    def test_negative_seed_is_reported_on_one_line(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out"),
             "--reps", "100", "--seed", "-1"],
        )
        assert result.exit_code == 1
        assert result.output == "Error: seed must be a non-negative integer, not -1\n"

    @pytest.mark.parametrize("size", ["nan", "inf", "-inf"])
    def test_non_finite_shock_size_is_reported_on_one_line(self, runner, inputs, tmp_path, size):
        wages, shocks = inputs
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out"),
             "--reps", "100", "--shock-size", size],
        )
        assert result.exit_code == 1
        assert result.output == f"Error: shock_size must be a finite number, not {float(size)!r}\n"
        assert not (tmp_path / "out").exists()

    def test_model_without_a_shock_term_is_rejected_before_reading(self, runner, tmp_path):
        missing = str(tmp_path / "nope.csv")
        result = runner.invoke(
            main,
            ["irf", "--wages", missing, "--shocks", missing, "--out", str(tmp_path / "out"),
             "--exo-lags", "0", "--no-contemporaneous"],
        )
        assert result.exit_code == 1
        assert result.output == "Error: exogenous_lags 0 with contemporaneous_shock False leaves the model no shock term\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("size", ["0", "-0.0"])
    def test_zero_shock_size_is_rejected_before_reading(self, runner, tmp_path, size):
        missing = str(tmp_path / "nope.csv")
        result = runner.invoke(
            main,
            ["irf", "--wages", missing, "--shocks", missing, "--out", str(tmp_path / "out"), "--shock-size", size],
        )
        assert result.exit_code == 1
        assert result.output == "Error: shock_size 0 moves nothing; every response would be zero\n"
        assert not (tmp_path / "out").exists()

    def test_zero_shock_size_from_the_config_is_rejected(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "shocks": str(shocks), "shock_size": 0}))
        result = runner.invoke(main, ["irf", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert result.output == "Error: shock_size 0 moves nothing; every response would be zero\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("targets, message", [
        (("bogus",), "unknown target 'bogus'; expected total or components"),
        ((), "no target to run; expected total, components or both"),
    ], ids=["unknown", "empty"])
    def test_targets_are_checked_before_reading(self, tmp_path, targets, message):
        missing = tmp_path / "nope.csv"
        with pytest.raises(vx.VarxError, match=f"^{message}$"):
            run_irf(missing, missing, tmp_path / "out", vx.VarxSpec(bootstrap_reps=100), targets=targets)
        assert not (tmp_path / "out").exists()

    def test_horizon_too_large_to_allocate_is_one_error_line(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out),
             "--reps", "100", "--target", "total", "--horizon", str(10**15)],
        )
        assert result.exit_code == 1
        assert result.output == f"Error: horizon {10**15} is too large: its response table cannot be allocated\n"
        assert not out.exists()

    def test_reps_too_large_to_allocate_is_one_error_line(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out),
             "--reps", str(10**15), "--target", "total"],
        )
        assert result.exit_code == 1
        assert result.output == f"Error: bootstrap_reps {10**15} is too large: its draws cannot be allocated\n"
        assert not out.exists()

    def test_failed_run_makes_no_output_directory(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out), "--start", "2030Q1"]
        )
        assert result.exit_code == 1
        assert result.output == "Error: subsample start 2030Q1 is after end 2009Q4\n"
        assert not out.exists()

    def test_manifest_reports_dropped_replications(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)] + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["bootstrap_dropped"] == {"irf_total.csv": 0, "irf_components.csv": 0}

    def test_dropped_replications_warn_on_stderr(self, runner, inputs, tmp_path, monkeypatch):
        wages, shocks = inputs
        out = tmp_path / "out"
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)] + self.ARGS
        clean = runner.invoke(main, args)
        assert clean.exit_code == 0, clean.output
        assert "dropped" not in clean.stderr
        manifest = json.loads((out / "manifest.json").read_text())

        bands = vx.bootstrap_bands

        def dropping(model, design):
            irf = bands(model, design)
            return dataclasses.replace(irf, dropped=3) if design.data.k > 1 else irf

        monkeypatch.setattr(vx, "bootstrap_bands", dropping)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout == clean.stdout
        warnings = [line for line in result.stderr.splitlines() if "dropped" in line]
        assert warnings == ["warning: bootstrap replications dropped as rank deficient for irf_components.csv (3 of 100)"]
        assert result.stderr.replace(warnings[0] + "\n", "") == clean.stderr
        manifest["bootstrap_dropped"]["irf_components.csv"] = 3
        assert json.loads((out / "manifest.json").read_text()) == manifest

    def test_manifest_reports_spectral_radius(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)] + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        radius = manifest["companion_spectral_radius"]
        assert set(radius) == set(manifest["files"]) == {"irf_total.csv", "irf_components.csv"}
        assert all(isinstance(r, float) and r > 0.0 for r in radius.values())

    def test_manifest_radius_has_the_csv_precision(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out), "--target", "total"]
            + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        radius = json.loads((out / "manifest.json").read_text())["companion_spectral_radius"]["irf_total.csv"]
        panel, shock_series = pn.align(pn.parse_wage_csv(wages), pn.parse_shock_csv(shocks))
        series = pn.compute_series(panel)
        data = vx.TimeSeriesData(panel.first, pn.standardize(series.total), shock_series.values, ("total",))
        spec = vx.VarxSpec(bootstrap_reps=100, seed=42)
        exact = vx.companion_spectral_radius(vx.estimate(vx.build_design(data, spec)))
        assert radius == float("%.10g" % exact)
        assert len(repr(radius).replace(".", "").lstrip("0")) <= 10

    @staticmethod
    def spread_panel_args(tmp_path, spread):
        """irf's arguments for a 2000Q1..2009Q4 panel where races are equal and quantile points sit exp(spread) apart."""
        grid = 500.0 * np.exp(np.repeat(spread[:, None] * np.arange(3), 3, axis=1))
        wages, shocks, out = tmp_path / "wages.csv", tmp_path / "shocks.csv", tmp_path / "out"
        panel = pn.QuarterlyPanel(pn.parse_quarter("2000Q1"), grid)
        pn.write_wage_csv(panel, wages)
        pn.write_shock_csv(synthetic_shock_series(panel.quarters), shocks)
        return ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)], out

    def run_spread_panel(self, runner, tmp_path, spread):
        """irf --target total on a panel where races are equal, so every within term is constant."""
        args, out = self.spread_panel_args(tmp_path, spread)
        result = runner.invoke(main, args + ["--reps", "100", "--target", "total"])
        assert result.exit_code == 0, result.output
        assert result.stdout == f"wrote {out / 'irf_total.csv'}\nwrote {out / 'manifest.json'}\n"
        return json.loads((out / "manifest.json").read_text())["companion_spectral_radius"], result.stderr

    def test_stable_fit_does_not_warn(self, runner, tmp_path):
        spread = 0.1 + 0.01 * np.random.default_rng(5).normal(size=40)
        radius, stderr = self.run_spread_panel(runner, tmp_path, spread)
        assert radius["irf_total.csv"] < 1.0
        assert stderr == ""

    def test_explosive_fit_warns_on_stderr(self, runner, tmp_path):
        # the spread grows 4% a quarter, so the index grows about 8% a quarter
        radius, stderr = self.run_spread_panel(runner, tmp_path, 0.02 * 1.04 ** np.arange(40))
        assert radius["irf_total.csv"] >= 1.0
        assert stderr.count("warning") == 1
        assert "companion spectral radius >= 1" in stderr and "irf_total.csv" in stderr

    def test_constant_component_stops_the_run_before_any_fit(self, runner, tmp_path, monkeypatch):
        # every series a run fits is standardized before the first system is built, so the default targets
        # stop on the first constant within term without bootstrapping irf_total.csv first
        args, out = self.spread_panel_args(tmp_path, 0.1 + 0.01 * np.random.default_rng(5).normal(size=40))
        fits = []
        bands = vx.bootstrap_bands
        monkeypatch.setattr(vx, "bootstrap_bands", lambda *a: fits.append(a[1].data.names) or bands(*a))
        result = runner.invoke(main, args + ["--reps", "100"])
        assert result.exit_code == 1
        assert result.output == "Error: cannot standardize a zero-variance series ('within_d1' over 2000Q1..2009Q4)\n"
        assert not out.exists()
        assert fits == []

    def test_repeated_targets_run_once(self, runner, inputs, tmp_path, monkeypatch):
        wages, shocks = inputs
        out = tmp_path / "out"
        fits = []
        bands = vx.bootstrap_bands
        monkeypatch.setattr(vx, "bootstrap_bands", lambda *args: fits.append(args[1].data.names) or bands(*args))
        targets = ["--target", "total", "--target", "total", "--target", "components", "--target", "components"]
        result = runner.invoke(
            main, ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)] + targets + self.ARGS
        )
        assert result.exit_code == 0, result.output
        assert fits == [("total",), ("within_d1", "within_q3", "within_d9", "between")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["targets"] == ["total", "components"]
        assert manifest["files"] == ["irf_total.csv", "irf_components.csv"]

    @pytest.mark.parametrize(
        "extra,sample,regressors",
        [
            # 40 quarters less max(p, q) = 4; const + p k lags + 5 shock columns
            ([], 36, {"irf_total.csv": 7, "irf_components.csv": 10}),
            (["--endo-lags", "5", "--exo-lags", "2", "--no-contemporaneous"], 35,
             {"irf_total.csv": 8, "irf_components.csv": 23}),
            # one system per series, each with the control: const + 2 lags + 5 shock columns
            (["--per-component", "--control", "indpro.csv"], 36,
             dict.fromkeys(["irf_total.csv"] + [f"irf_{name}.csv" for name in COMPONENT_NAMES], 8)),
        ],
    )
    def test_manifest_records_each_fit_sample_and_regressors(self, runner, inputs, tmp_path, extra, sample, regressors):
        wages, shocks = inputs
        control = tmp_path / "indpro.csv"
        pn.write_shock_csv(synthetic_shock_series(pn.parse_wage_csv(wages).quarters, seed=7), control)
        extra = [str(control) if arg == control.name else arg for arg in extra]
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(
                main, ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)] + self.ARGS + extra
            )
            assert result.exit_code == 0, result.output
            blobs.append((out / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]
        manifest = json.loads(blobs[0])
        assert manifest["files"] == list(regressors)
        for key in ("bootstrap_dropped", "companion_spectral_radius", "effective_sample", "regressors"):
            assert sorted(manifest[key]) == sorted(manifest["files"])  # the file is written with sorted keys
        assert manifest["effective_sample"] == dict.fromkeys(manifest["files"], sample)
        assert manifest["regressors"] == regressors

    def test_same_seed_byte_identical(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(
                main,
                ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)]
                + self.ARGS,
            )
            assert result.exit_code == 0, result.output
            blobs.append(
                tuple((out / f).read_bytes() for f in ("irf_total.csv", "irf_components.csv"))
            )
        assert blobs[0] == blobs[1]

    def test_subsample_flags(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out),
                "--start", "2001Q1", "--end", "2009Q4", "--target", "total",
            ]
            + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["start"] == "2001Q1"
        assert manifest["files"] == ["irf_total.csv"]

    def test_control_series_joins_system(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        panel = pn.parse_wage_csv(str(wages))
        ip = tmp_path / "indprod.csv"
        pn.write_shock_csv(synthetic_shock_series(panel.quarters, seed=5), ip)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out),
                "--control", str(ip), "--target", "total",
            ]
            + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        irf = vx.read_irf_csv(str(out / "irf_total.csv"))
        assert irf.names == ("total", "indprod")

    def test_per_component_mode(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out),
                "--target", "components", "--per-component",
            ]
            + self.ARGS,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == [
            "irf_within_d1.csv",
            "irf_within_q3.csv",
            "irf_within_d9.csv",
            "irf_between.csv",
        ]

    def test_alignment_failure_nonzero_exit(self, runner, inputs, tmp_path):
        wages, _ = inputs
        far = tmp_path / "far.csv"
        pn.write_shock_csv(synthetic_shock_series(make_quarters("1980Q1", 30)), far)
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(far), "--out", str(tmp_path / "o")]
            + self.ARGS,
        )
        assert result.exit_code != 0

    def test_input_errors_name_the_file(self, runner, inputs, tmp_path):
        wages, shocks = inputs

        def run(wage_path, shock_path):
            args = ["irf", "--wages", str(wage_path), "--shocks", str(shock_path), "--out", str(tmp_path / "o")]
            result = runner.invoke(main, args + self.ARGS)
            assert result.exit_code == 1 and not (tmp_path / "o").exists()
            return result.output

        # swapped files fail at the wage file, which is read first
        assert run(shocks, wages) == (
            f"Error: wage CSV {shocks}: bad CSV header ['quarter', 'shock']; expected quarter,race,quantile,wage\n"
        )
        assert run(wages, wages) == (
            f"Error: shock CSV {wages}: bad CSV header ['quarter', 'race', 'quantile', 'wage']; expected quarter,shock\n"
        )
        shocks.write_text("quarter,shock\n2000Q1,0.5\n2000Q2,abc\n")
        assert run(wages, shocks) == f"Error: shock CSV {shocks}: row 3: non-numeric shock 'abc'\n"

    @pytest.mark.parametrize("which", ["wage CSV", "shock CSV", "control series"])
    def test_text_that_is_not_utf8_names_the_file(self, runner, inputs, tmp_path, which):
        wages, shocks = inputs
        bad = tmp_path / "bad.csv"
        bad.write_bytes((wages if which == "wage CSV" else shocks).read_bytes() + b"2010Q1,\xff\n")
        args = ["irf", "--wages", str(bad if which == "wage CSV" else wages),
                "--shocks", str(bad if which == "shock CSV" else shocks), "--out", str(tmp_path / "o")]
        if which == "control series":
            args += ["--control", str(bad)]
        result = runner.invoke(main, args + self.ARGS)
        assert result.exit_code == 1 and not (tmp_path / "o").exists()
        assert result.output == f"Error: {which} {bad}: not UTF-8 text: byte 0xff: invalid start byte\n"

    def test_config_file_with_flag_override(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "wages": str(wages),
                    "shocks": str(shocks),
                    "out": str(out),
                    "reps": 100,
                    "seed": 7,
                    "targets": ["total"],
                }
            )
        )
        result = runner.invoke(main, ["irf", "--config", str(cfg), "--seed", "99"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["seed"] == 99  # flag wins
        assert manifest["spec"]["bootstrap_reps"] == 100  # from config
        assert manifest["targets"] == ["total"]


class TestDemo:
    def test_all_stages_pass(self, tmp_path):
        results = run_demo(tmp_path / "demo", reps=100, seed=0)
        assert all(ok for _, ok, _ in results), results
        assert [name for name, _, _ in results] == ["fixtures", "decompose", "irf", "growth"]

    def test_corrupted_fixture_fails_with_stage_name(self, tmp_path, runner):
        out = tmp_path / "demo"
        run_demo(out, reps=100, seed=0)
        # corrupt the wage file and rerun decompose against it
        wages = out / "wages.csv"
        wages.write_text(wages.read_text().replace("\n2000Q3", "\nBADQ3", 1))
        result = runner.invoke(main, ["decompose", "--wages", str(wages), "--out", str(out)])
        assert result.exit_code != 0

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_a_file"])
    def test_out_naming_a_file_is_reported(self, runner, tmp_path, under):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "demo" if under else tmp_path / "taken"
        result = runner.invoke(main, ["demo", "--out", str(out), "--reps", "100"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: [Errno ") and result.output.count("\n") == 1, result.output
        assert str(out) in result.output

    def test_failing_stage_is_reported_and_the_rest_run(self, runner, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("wageineq.cli.run_growth", broken)
        result = runner.invoke(main, ["demo", "--out", str(tmp_path / "d"), "--reps", "100"])
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["PASS  fixtures", "PASS  decompose", "PASS  irf", "FAIL  growth"]
        assert lines[-1] == "FAIL  growth: RuntimeError: disk on fire"

    def test_cli_exit_zero(self, runner, tmp_path):
        result = runner.invoke(main, ["demo", "--out", str(tmp_path / "d"), "--reps", "100"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4
        # the bundled fixture fits explosively, and demo says so as irf does
        assert result.stdout.count("PASS") == 4 and "warning" not in result.stdout
        explosive = "warning: companion spectral radius >= 1 (explosive fit) for irf_total.csv, irf_components.csv\n"
        assert result.stderr == explosive


def assert_clean_failure(result, *fragments):
    """Non-zero exit through click's own error path, naming each fragment."""
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    for fragment in fragments:
        assert fragment in result.output, result.output


class TestConfigFile:
    def test_every_command_reads_config(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "out": str(tmp_path / "g"), "method": "log_qoq"}))
        result = runner.invoke(main, ["growth", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "log_qoq" in result.output
        cfg.write_text(
            json.dumps(
                {
                    "wages": str(wages), "shocks": str(shocks), "out": str(tmp_path / "i"),
                    "reps": 100, "endo_lags": 2, "no_contemporaneous": True,
                    "standardize": False, "per_component": True, "targets": ["components"],
                    "band_method": "percentile", "start": "2001Q1", "horizon": 4,
                }
            )
        )
        result = runner.invoke(main, ["irf", "--config", str(cfg), "--horizon", "3"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "i" / "manifest.json").read_text())
        assert manifest["spec"]["endogenous_lags"] == 2
        assert manifest["spec"]["contemporaneous_shock"] is False
        assert manifest["spec"]["band_method"] == "percentile"
        assert manifest["spec"]["horizon"] == 3  # the flag beats the config
        assert manifest["standardize"] is False
        assert manifest["per_component"] is True
        assert manifest["start"] == "2001Q1"
        assert len(manifest["files"]) == 4

    def test_malformed_json(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"reps": 100,')
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert_clean_failure(result, "run.json", "not a readable JSON file")

    def test_json_array(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        result = runner.invoke(main, ["decompose", "--config", str(cfg)])
        assert_clean_failure(result, "run.json", "must hold a JSON object")

    def test_unknown_key(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "shocks": str(shocks), "rep": 100}))
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert_clean_failure(result, "run.json", "unknown key 'rep'")
        assert not (tmp_path / "out").exists()

    def test_key_of_another_command(self, runner, inputs, tmp_path):
        wages, _ = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "reps": 100}))
        result = runner.invoke(main, ["decompose", "--config", str(cfg)])
        assert_clean_failure(result, "unknown key 'reps'")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"reps": 100.7}, "'reps' set to 100.7; expected an integer"),
            ({"reps": True}, "'reps' set to true; expected an integer"),
            ({"shock_size": True}, "'shock_size' set to true; expected a number"),
            ({"targets": "components"}, ''''targets' set to "components"; expected a JSON list'''),
            ({"controls": "x.csv"}, ''''controls' set to "x.csv"; expected a JSON list'''),
            ({"reps": None}, "'reps' set to null; expected an integer"),
            ({"start": None}, "'start' set to null; expected a string"),
            ({"start": ["2001Q1"]}, ''''start' set to ["2001Q1"]; expected a string'''),
            ({"targets": [1]}, ''''targets' set to [1]; expected a JSON list, each item one of "total", "components"'''),
            ({"reps": "100"}, ''''reps' set to "100"; expected an integer'''),
            ({"standardize": "no"}, ''''standardize' set to "no"; expected true or false'''),
            ({"band_method": "bogus"}, ''''band_method' set to "bogus"; expected one of "sd", "percentile"'''),
        ],
        ids=["float_for_int", "bool_for_int", "bool_for_float", "string_for_targets", "string_for_controls",
             "null_for_int", "null_for_string", "list_for_string", "item_outside_choices", "string_for_int",
             "string_for_flag", "string_outside_choices"],
    )
    def test_value_click_would_coerce(self, runner, inputs, tmp_path, entry, message):
        wages, shocks = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "shocks": str(shocks), "out": str(tmp_path / "o"), **entry}))
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert_clean_failure(result, "run.json", message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["decompose", "irf", "growth"])
    def test_every_option_checks_its_json_type(self, runner, inputs, tmp_path, monkeypatch, command):
        """A wrong-typed value for any option fails naming the file and the key, and writes nothing."""
        wages, shocks = inputs
        monkeypatch.chdir(tmp_path)  # where a wrong-typed --out would be made
        cfg = tmp_path / "run.json"
        cfg.write_text("{}")
        before = sorted(tmp_path.iterdir())
        params = [p for p in main.commands[command].params if p.name != "config"]
        names = {p.name for p in params}
        for p in params:
            # a value click would take and coerce: the text of a number or a flag, or a number for text
            wrong = {"integer": "1", "float": "1", "boolean": "true"}.get(p.type.name, 1)
            entry = {"wages": str(wages), "shocks": str(shocks), "out": "o", p.name: [wrong] if p.multiple else wrong}
            cfg.write_text(json.dumps({key: value for key, value in entry.items() if key in names}))
            result = runner.invoke(main, [command, "--config", str(cfg)])
            assert result.exit_code == 2, (p.name, result.output)
            assert_clean_failure(result, "run.json", f"has key {p.name!r} set to {json.dumps(entry[p.name])}; expected")
            assert sorted(tmp_path.iterdir()) == before, p.name
        assert len(params) == {"decompose": 2, "irf": 17, "growth": 3}[command]

    def test_integer_for_number_option(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "shocks": str(shocks), "out": str(tmp_path / "o"),
                                   "reps": 100, "targets": ["total"], "shock_size": 1}))
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["spec"]["shock_size"] == 1.0

    def test_json_lists_for_repeatable_options(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        control = tmp_path / "indpro.csv"
        pn.write_shock_csv(synthetic_shock_series(pn.parse_wage_csv(wages).quarters, seed=3), control)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "shocks": str(shocks), "out": str(tmp_path / "o"),
                                   "reps": 100, "targets": ["total"], "controls": [str(control)]}))
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["files"] == ["irf_total.csv"]
        assert manifest["controls"]["indpro"]["path"] == str(control)
        assert manifest["regressors"] == {"irf_total.csv": 8}

    def test_required_inputs_still_named(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"reps": 100}))
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output.endswith("\nError: Missing option '--wages'.\n"), result.output

    def test_wages_from_the_config_with_shocks_as_a_flag(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wages": str(wages), "reps": 100, "targets": ["total"]}))
        result = runner.invoke(main, ["irf", "--config", str(cfg), "--shocks", str(shocks), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert (manifest["wage_csv"]["path"], manifest["shock_csv"]["path"]) == (str(wages), str(shocks))


class TestControlNames:
    def run_with_controls(self, runner, inputs, tmp_path, *names):
        wages, shocks = inputs
        quarters = pn.parse_wage_csv(wages).quarters
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "o")]
        for i, name in enumerate(names):
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            pn.write_shock_csv(synthetic_shock_series(quarters, seed=i), path)
            args += ["--control", str(path)]
        return runner.invoke(main, args + TestIrf.ARGS)

    def test_control_named_like_a_component(self, runner, inputs, tmp_path):
        result = self.run_with_controls(runner, inputs, tmp_path, "between.csv")
        assert_clean_failure(result, "between.csv", "'between'")
        assert "RankError" not in result.output and "lag1" not in result.output

    def test_control_named_total(self, runner, inputs, tmp_path):
        result = self.run_with_controls(runner, inputs, tmp_path, "total.csv")
        assert_clean_failure(result, "total.csv", "'total'")

    def test_controls_sharing_a_stem(self, runner, inputs, tmp_path):
        result = self.run_with_controls(runner, inputs, tmp_path, "a/indpro.csv", "b/indpro.csv")
        assert_clean_failure(
            result, str(tmp_path / "a" / "indpro.csv"), str(tmp_path / "b" / "indpro.csv")
        )
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_distinct_stems_run(self, runner, inputs, tmp_path):
        result = self.run_with_controls(runner, inputs, tmp_path, "a/indpro.csv", "b/employment.csv")
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sorted(manifest["controls"]) == ["employment", "indpro"]


class TestControlCoverage:
    """A control must cover the estimation sample (here 2000Q1..2009Q4); the error names the first quarter it misses."""

    @staticmethod
    def run_with_control(runner, inputs, tmp_path, start, n):
        wages, shocks = inputs
        path = tmp_path / "indpro.csv"
        pn.write_shock_csv(synthetic_shock_series(make_quarters(start, n), seed=3), path)
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "o"),
                "--control", str(path)]
        return runner.invoke(main, args + TestIrf.ARGS), path

    def test_control_starting_a_quarter_late(self, runner, inputs, tmp_path):
        result, path = self.run_with_control(runner, inputs, tmp_path, "2000Q2", 40)
        assert result.exit_code == 1
        assert result.output == f"Error: control series {path}: does not cover quarter 2000Q1\n"

    def test_control_ending_a_quarter_early(self, runner, inputs, tmp_path):
        result, path = self.run_with_control(runner, inputs, tmp_path, "1999Q1", 43)
        assert result.exit_code == 1
        assert result.output == f"Error: control series {path}: does not cover quarter 2009Q4\n"

    def test_malformed_control_row_names_the_file(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        path = tmp_path / "indpro.csv"
        path.write_text("quarter,shock\n2000Q1,0.5\n2000Q2,abc\n")
        result = runner.invoke(main, ["irf", "--wages", str(wages), "--shocks", str(shocks),
                                      "--out", str(tmp_path / "o"), "--control", str(path)] + TestIrf.ARGS)
        assert result.exit_code == 1
        assert result.output == f"Error: control series {path}: row 3: non-numeric shock 'abc'\n"
        assert not (tmp_path / "o").exists()

    def test_constant_control_names_variable_and_span(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        flat = tmp_path / "flat.csv"
        pn.write_shock_csv(pn.ShockSeries(pn.parse_quarter("2000Q1"), np.full(40, 0.5)), flat)
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "o"),
                "--control", str(flat)]
        result = runner.invoke(main, args + TestIrf.ARGS)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "Error: cannot standardize a zero-variance series ('flat' over 2000Q1..2009Q4)\n"
        )
        with pytest.raises(DomainError, match=r"^cannot standardize a zero-variance series \('flat' over 2000Q1\.\.2009Q4\)$"):
            run_irf(wages, shocks, tmp_path / "o", vx.VarxSpec(bootstrap_reps=100), controls=(flat,))


class TestEstimationSample:
    """--start/--end cut the aligned run once; a control need only cover that estimation sample."""

    SAMPLE = ["--start", "2001Q1", "--end", "2008Q4"]

    @staticmethod
    def write_control(path, start, n):
        pn.write_shock_csv(synthetic_shock_series(make_quarters(start, n), seed=3), path)
        return path

    def run(self, runner, inputs, out, control, *extra):
        wages, shocks = inputs
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out), "--control", str(control)]
        return runner.invoke(main, args + list(extra) + TestIrf.ARGS)

    def test_control_covering_exactly_the_sample_runs(self, runner, inputs, tmp_path):
        control = self.write_control(tmp_path / "indpro.csv", "2001Q1", 32)
        result = self.run(runner, inputs, tmp_path / "o", control, *self.SAMPLE)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["effective_sample"] == {"irf_total.csv": 28, "irf_components.csv": 28}

    @pytest.mark.parametrize("start, n, missing", [("2001Q2", 31, "2001Q1"), ("2001Q1", 31, "2008Q4")],
                             ids=["starting_a_quarter_late", "ending_a_quarter_early"])
    def test_control_missing_a_sample_quarter(self, runner, inputs, tmp_path, start, n, missing):
        control = self.write_control(tmp_path / "indpro.csv", start, n)
        result = self.run(runner, inputs, tmp_path / "o", control, *self.SAMPLE)
        assert result.exit_code == 1
        assert result.output == f"Error: control series {control}: does not cover quarter {missing}\n"

    def test_bad_sample_is_reported_before_the_controls_are_read(self, runner, inputs, tmp_path):
        control = tmp_path / "indpro.csv"
        control.write_text("not,a,shock,csv\n")
        result = self.run(runner, inputs, tmp_path / "o", control, "--start", "2005Q1", "--end", "2004Q4")
        assert result.exit_code == 1
        assert result.output == "Error: subsample start 2005Q1 is after end 2004Q4\n"

    def test_fits_match_a_run_on_inputs_cut_to_the_sample(self, runner, tmp_path):
        panel = synthetic_wage_panel()  # 2000Q1..2020Q1
        shocks = synthetic_shock_series(panel.quarters)
        control = synthetic_shock_series(make_quarters("2003Q1", 68), seed=3)  # 2003Q1..2019Q4
        first, n = pn.parse_quarter("2005Q1"), 56  # 2005Q1..2018Q4
        outputs = {}
        for label, cut, flags in [("flags", False, ["--start", "2005Q1", "--end", "2018Q4"]), ("cut", True, [])]:
            d = tmp_path / label
            d.mkdir()
            pn.write_wage_csv(panel.restrict(first, n) if cut else panel, d / "wages.csv")
            for run, fname in ((shocks, "shocks.csv"), (control, "indpro.csv")):
                pn.write_shock_csv(run.restrict(first, n) if cut else run, d / fname)
            inputs = (d / "wages.csv", d / "shocks.csv")
            result = self.run(runner, inputs, d / "o", d / "indpro.csv", "--per-component", *flags)
            assert result.exit_code == 0, result.output
            files = json.loads((d / "o" / "manifest.json").read_text())["files"]
            outputs[label] = {fname: (d / "o" / fname).read_bytes() for fname in files}
        assert len(outputs["flags"]) == 5
        assert outputs["flags"] == outputs["cut"]

    def test_short_overlap_meets_only_the_fit_floor(self, runner, tmp_path):
        """An 18-quarter overlap is aligned whole; each fit's T_eff >= m + 10 floor decides if it runs."""
        panel = synthetic_wage_panel()  # 2000Q1..2020Q1
        wages, shocks = tmp_path / "wages.csv", tmp_path / "shocks.csv"
        pn.write_wage_csv(panel, wages)
        pn.write_shock_csv(synthetic_shock_series(panel.quarters).restrict(panel.first, 18), shocks)  # to 2004Q2
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks)]
        total_only = ["--out", str(tmp_path / "total"), "--target", "total", "--exo-lags", "0", "--reps", "100"]
        result = runner.invoke(main, args + total_only)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "total" / "manifest.json").read_text())
        assert (manifest["effective_sample"], manifest["regressors"]) == ({"irf_total.csv": 17}, {"irf_total.csv": 3})
        result = runner.invoke(main, args + ["--out", str(tmp_path / "default")])
        assert result.exit_code == 1
        assert result.output == "Error: sample 2000Q1..2004Q2: effective sample of 14 rows is below the floor of 17 for 7 regressors\n"
        assert not (tmp_path / "default").exists()


SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs ``python -m wageineq.cli ARGS`` in this process and prints what it
# imported, the BLAS thread setting it saw and the state it left the garbage
# collector in. Site hooks may import tempfile or json at start-up, so they
# are dropped first and only the command's own imports count; json, which
# prints the report, is imported only once the modules are listed.
RUN_CLI = """
import gc, os, runpy, sys
sys.modules.pop("tempfile", None)
sys.modules.pop("json", None)
sys.argv = ["wageineq", *sys.argv[1:]]
try:
    runpy.run_module("wageineq.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
mods = [m for m in ("numpy", "numpy.random", "tempfile", "hashlib", "json", "wageineq.varx") if m in sys.modules]
import json
print(json.dumps({"code": code, "threads": os.environ.get("OPENBLAS_NUM_THREADS"), "modules": mods,
                  "gc_enabled": gc.isenabled(), "gc_frozen": gc.get_freeze_count()}))
"""


def run_python(code, *args, **env):
    """Run code in a fresh interpreter with src on the path; return its last stdout line."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestStartup:
    """Each command imports only what it uses and runs BLAS on one thread."""

    def test_package_import_leaves_numpy_unloaded(self):
        assert run_python("import sys, wageineq; print('numpy' in sys.modules)") == "False"

    def test_public_names_resolve(self):
        for name in wageineq.__all__:
            assert getattr(wageineq, name).__module__.startswith("wageineq.")
        assert set(wageineq.__all__) | {"__version__"} <= set(dir(wageineq))
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            wageineq.nonexistent

    def test_irf_imports_only_what_it_uses(self, inputs, tmp_path):
        wages, shocks = inputs
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out"), "--reps", "100"]
        report = json.loads(run_python(RUN_CLI, *args))
        assert report["code"] == 0
        assert "numpy" in report["modules"] and not {"numpy.random", "tempfile"} & set(report["modules"])
        assert {"wageineq.varx", "json"} <= set(report["modules"])

    def test_program_runs_with_the_collector_off_and_the_imports_frozen(self, inputs, tmp_path):
        wages, shocks = inputs
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out"), "--reps", "100"]
        report = json.loads(run_python(RUN_CLI, *args))
        assert report["code"] == 0
        assert report["gc_enabled"] is False and report["gc_frozen"] > 0

    def test_import_leaves_the_collector_alone(self):
        code = "import gc, json, wageineq.cli; print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
        assert json.loads(run_python(code)) == [True, 0]

    def test_cli_runner_leaves_the_collector_alone(self, runner, inputs, tmp_path):
        wages, shocks = inputs
        before = gc.isenabled(), gc.get_freeze_count()
        result = runner.invoke(
            main, ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out"), *TestIrf.ARGS]
        )
        assert result.exit_code == 0, result.output
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("command", ["decompose", "growth"])
    def test_panel_commands_leave_varx_and_hashlib_unloaded(self, inputs, tmp_path, command):
        """Nor json, which only a config file and the irf manifest need."""
        wages, _ = inputs
        report = json.loads(run_python(RUN_CLI, command, "--wages", str(wages), "--out", str(tmp_path / "out")))
        assert report["code"] == 0
        assert "numpy" in report["modules"] and not {"wageineq.varx", "hashlib", "json"} & set(report["modules"])

    def test_cli_pins_blas_to_one_thread(self):
        assert json.loads(run_python(RUN_CLI, "--help"))["threads"] == "1"

    def test_callers_thread_setting_is_kept(self):
        assert json.loads(run_python(RUN_CLI, "--help", OPENBLAS_NUM_THREADS="3"))["threads"] == "3"
