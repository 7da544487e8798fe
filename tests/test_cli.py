"""Tests for the command-line pipeline and its output contracts."""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.cli import main, run_demo
from wageineq.fixtures import (
    constant_panel,
    make_quarters,
    synthetic_shock_series,
    synthetic_wage_panel,
)


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

    def test_missing_wages_flag(self, runner):
        result = runner.invoke(main, ["decompose"])
        assert result.exit_code != 0


class TestGrowth:
    def test_writes_growth_csv(self, runner, inputs, tmp_path):
        wages, _ = inputs
        out = tmp_path / "out"
        result = runner.invoke(main, ["growth", "--wages", str(wages), "--out", str(out)])
        assert result.exit_code == 0
        growth = pn.read_growth_csv(str(out / "growth.csv"))
        assert growth.growth.shape[1] == 9

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

    @pytest.mark.parametrize("extra", [[], ["--per-component"], ["--start", "2002Q1", "--end", "2008Q4"]])
    def test_resampled_rows_are_drawn_once_per_run(self, runner, inputs, tmp_path, monkeypatch, extra):
        wages, shocks = inputs
        vx._resample_rows.cache_clear()
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seeds.append(seed) or default_rng(seed))
        result = runner.invoke(
            main,
            ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(tmp_path / "out")]
            + self.ARGS + extra,
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())["files"]) > 1
        assert seeds == [(42, r) for r in range(100)]

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

    @staticmethod
    def run_spread_panel(runner, tmp_path, spread):
        """irf on a panel where races are equal and quantile points sit exp(spread) apart."""
        quarters = make_quarters("2000Q1", len(spread))
        grid = 500.0 * np.exp(np.repeat(spread[:, None] * np.arange(3), 3, axis=1))
        wages, shocks, out = tmp_path / "wages.csv", tmp_path / "shocks.csv", tmp_path / "out"
        pn.write_wage_csv(pn.QuarterlyPanel(quarters, grid), wages)
        pn.write_shock_csv(synthetic_shock_series(quarters), shocks)
        args = ["irf", "--wages", str(wages), "--shocks", str(shocks), "--out", str(out)]
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

    def test_cli_exit_zero(self, runner, tmp_path):
        result = runner.invoke(main, ["demo", "--out", str(tmp_path / "d"), "--reps", "100"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4


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

    def test_required_inputs_still_named(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"reps": 100}))
        result = runner.invoke(main, ["irf", "--config", str(cfg)])
        assert_clean_failure(result, "--wages and --shocks (or config entries) are required")


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
