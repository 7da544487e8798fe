"""Batch pipeline: ingestion, decomposition, and impulse-response analysis.

Subcommands:
  decompose  wage CSV -> per-quarter within/between series CSV + summary
  irf        wage + shock CSVs -> impulse-response CSVs with bootstrap bands
  growth     wage CSV -> per-cell wage growth CSV
  demo       generate synthetic fixtures and run the whole pipeline

Options can come from a JSON config file (--config) keyed by parameter
name; it becomes the command's default map, so command-line flags win over
config values. Every irf run writes a manifest sufficient to
reproduce it: all settings, the seed, and input file digests.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import panel as pn
from . import varx as vx
from .fixtures import synthetic_shock_series, synthetic_wage_panel
from .theil import DomainError

COMPONENT_NAMES = ("within_d1", "within_q3", "within_d9", "between")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _apply_config(ctx, param, path):
    """Make a JSON config file the command's defaults, so explicit flags still win."""
    if path is None:
        return
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise click.BadParameter(f"{path} is not a readable JSON file: {exc}", ctx, param) from None
    if not isinstance(cfg, dict):
        raise click.BadParameter(f"{path} must hold a JSON object", ctx, param)
    keys = sorted(p.name for p in ctx.command.params if p is not param)
    for key in cfg:
        if key not in keys:
            raise click.BadParameter(
                f"{path} has unknown key {key!r}; expected one of {', '.join(keys)}", ctx, param
            )
    ctx.default_map = cfg


def _series_matrix(series: pn.InequalitySeries) -> dict:
    return {
        "total": series.total,
        "within_d1": series.within[:, 0],
        "within_q3": series.within[:, 1],
        "within_d9": series.within[:, 2],
        "between": series.between,
    }


def run_decompose(wage_csv, out_dir) -> dict:
    """Decompose a wage CSV; write series.csv and return the summary block."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = pn.compute_series(pn.parse_wage_csv(wage_csv))
    pn.write_series_csv(series, out_dir / "series.csv")
    return {
        "first_quarter": series.quarters[0],
        "last_quarter": series.quarters[-1],
        "mean_within_share": float(series.within_share.mean()),
        "mean_between_share": float(series.between_share.mean()),
        "files": ["series.csv"],
    }


def run_growth(wage_csv, out_dir, method: str = "yoy") -> dict:
    """Write per-cell growth rates for a wage CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    growth = pn.growth_rates(pn.parse_wage_csv(wage_csv), method=method)
    pn.write_growth_csv(growth, out_dir / "growth.csv")
    return {"quarters": len(growth.quarters), "method": method, "files": ["growth.csv"]}


def run_irf(
    wage_csv,
    shock_csv,
    out_dir,
    spec: vx.VarxSpec,
    targets=("total", "components"),
    standardize: bool = True,
    start=None,
    end=None,
    controls=(),
    per_component: bool = False,
) -> dict:
    """Estimate and write impulse responses for each requested target set.

    'total' runs the overall index alone (plus any controls as extra
    endogenous variables); 'components' runs the three within terms and
    the between term, jointly by default or one univariate system per
    component with per_component.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aligned = pn.align(pn.parse_wage_csv(wage_csv), pn.parse_shock_csv(shock_csv))
    series = pn.compute_series(aligned.panel)
    columns = _series_matrix(series)

    control_cols = {}
    control_paths = {}
    for path in controls:
        name = Path(path).stem
        if name in columns:
            raise pn.PanelError(f"control series {path} is named like the series {name!r}; rename the file")
        if name in control_paths:
            raise pn.PanelError(f"control series {control_paths[name]} and {path} share the name {name!r}")
        control_paths[name] = path
        ctrl = pn.parse_shock_csv(path)
        missing = sorted(set(aligned.quarters) - set(ctrl.quarters))
        if missing:
            raise pn.PanelError(
                f"control series {path} does not cover quarter {missing[0]}"
            )
        control_cols[name] = ctrl.restrict(aligned.quarters).values

    def make_data(var_names):
        X = np.column_stack([columns.get(n, control_cols.get(n)) for n in var_names])
        data = vx.TimeSeriesData(aligned.quarters, X, aligned.shocks.values, tuple(var_names))
        if start is not None or end is not None:
            data = vx.subsample(
                data, start or data.quarters[0], end or data.quarters[-1]
            )
        if standardize:
            X = np.column_stack([pn.standardize(data.X[:, i]) for i in range(data.k)])
            data = vx.TimeSeriesData(data.quarters, X, data.d, data.names)
        return data

    runs = []
    ctrl_names = list(control_cols)
    for target in targets:
        if target == "total":
            runs.append(("total", ["total"] + ctrl_names))
        elif target == "components":
            if per_component:
                for name in COMPONENT_NAMES:
                    runs.append((name, [name] + ctrl_names))
            else:
                runs.append(("components", list(COMPONENT_NAMES) + ctrl_names))
        else:
            raise click.ClickException(f"unknown target {target!r}")

    dropped = {}  # output file -> bootstrap replications dropped
    radius = {}  # output file -> companion spectral radius of the point fit
    for label, var_names in runs:
        data = make_data(var_names)
        design = vx.build_design(data, spec)
        model = vx.estimate(design)
        irf = vx.bootstrap_bands(model, design, spec)
        fname = f"irf_{label}.csv"
        vx.write_irf_csv(irf, out_dir / fname)
        dropped[fname] = irf.dropped
        radius[fname] = vx.companion_spectral_radius(model)

    manifest = {
        "wage_csv": {"path": str(wage_csv), "sha256": _sha256(wage_csv)},
        "shock_csv": {"path": str(shock_csv), "sha256": _sha256(shock_csv)},
        "controls": {
            Path(p).stem: {"path": str(p), "sha256": _sha256(p)} for p in controls
        },
        "targets": list(targets),
        "per_component": per_component,
        "standardize": standardize,
        "start": start,
        "end": end,
        "spec": dataclasses.asdict(spec),
        "files": list(dropped),
        "bootstrap_dropped": dropped,
        "companion_spectral_radius": radius,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


@click.group()
def main():
    """Theil wage-inequality decomposition and shock-response analysis."""


_config_opt = click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    is_eager=True,
    expose_value=False,
    callback=_apply_config,
    help="JSON config file keyed by option names; flags override it.",
)
_out_opt = click.option("--out", type=click.Path(), default="out", show_default=True, help="Output directory.")
_wages_opt = click.option("--wages", type=click.Path(), default=None, help="Wage CSV (quarter,race,quantile,wage).")


@main.command()
@_config_opt
@_wages_opt
@_out_opt
def decompose(wages, out):
    """Write the per-quarter within/between decomposition series."""
    if wages is None:
        raise click.ClickException("--wages (or config 'wages') is required")
    try:
        summary = run_decompose(wages, out)
    except (pn.PanelError, DomainError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"quarters: {summary['first_quarter']} .. {summary['last_quarter']}")
    click.echo(f"mean within share:  {summary['mean_within_share']:.6f}")
    click.echo(f"mean between share: {summary['mean_between_share']:.6f}")
    click.echo(f"wrote {Path(out) / 'series.csv'}")


@main.command()
@_config_opt
@_wages_opt
@click.option("--shocks", type=click.Path(), default=None, help="Shock CSV (quarter,shock).")
@_out_opt
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True, help="Bootstrap replications.")
@click.option("--horizon", type=int, default=10, show_default=True)
@click.option("--shock-size", type=float, default=-0.25, show_default=True)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--no-contemporaneous", is_flag=True, default=False, help="Exclude the same-quarter shock term.")
@click.option("--start", default=None, help="Subsample start quarter (YYYYQn).")
@click.option("--end", default=None, help="Subsample end quarter (YYYYQn).")
@click.option("--endo-lags", type=int, default=1, show_default=True)
@click.option("--exo-lags", type=int, default=4, show_default=True)
@click.option("--control", "controls", type=click.Path(exists=True), multiple=True, help="Extra endogenous series CSV in shock format (e.g. industrial production); repeatable.")
@click.option("--target", "targets", type=click.Choice(["total", "components"]), multiple=True, help="Target sets to run (default: both).")
@click.option("--per-component", is_flag=True, default=False, help="Estimate each component in its own system.")
@click.option("--band-method", type=click.Choice(["sd", "percentile"]), default="sd", show_default=True)
def irf(wages, shocks, out, seed, reps, horizon, shock_size, standardize, no_contemporaneous,
        start, end, endo_lags, exo_lags, controls, targets, per_component, band_method):
    """Estimate impulse responses of the inequality series to the shock."""
    if wages is None or shocks is None:
        raise click.ClickException("--wages and --shocks (or config entries) are required")
    try:
        spec = vx.VarxSpec(
            endogenous_lags=endo_lags,
            exogenous_lags=exo_lags,
            contemporaneous_shock=not no_contemporaneous,
            horizon=horizon,
            shock_size=shock_size,
            bootstrap_reps=reps,
            seed=seed,
            band_method=band_method,
        )
        manifest = run_irf(
            wages,
            shocks,
            out,
            spec,
            targets=targets or ("total", "components"),
            standardize=standardize,
            start=start,
            end=end,
            controls=controls,
            per_component=per_component,
        )
    except (pn.PanelError, vx.VarxError, DomainError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    explosive = [f for f, r in manifest["companion_spectral_radius"].items() if r >= 1.0]
    if explosive:
        click.echo(f"warning: companion spectral radius >= 1 (explosive fit) for {', '.join(explosive)}", err=True)
    for fname in manifest["files"]:
        click.echo(f"wrote {Path(out) / fname}")
    click.echo(f"wrote {Path(out) / 'manifest.json'}")


@main.command()
@_config_opt
@_wages_opt
@_out_opt
@click.option("--method", type=click.Choice(["yoy", "log_qoq"]), default="yoy", show_default=True)
def growth(wages, out, method):
    """Write year-over-year (or log quarter-over-quarter) wage growth rates."""
    if wages is None:
        raise click.ClickException("--wages (or config 'wages') is required")
    try:
        summary = run_growth(wages, out, method=method)
    except (pn.PanelError, DomainError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote {Path(out) / 'growth.csv'} ({summary['quarters']} quarters, {summary['method']})")


def run_demo(out_dir=None, reps: int = 200, seed: int = 0) -> list:
    """Generate fixtures, run all three pipelines, and validate the outputs.

    Returns a list of (stage, ok, detail) tuples.
    """
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="wageineq-demo-")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []

    def stage(name, fn):
        try:
            detail = fn()
            results.append((name, True, detail))
        except Exception as exc:  # report the failing stage, keep going
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    wage_path = out_dir / "wages.csv"
    shock_path = out_dir / "shocks.csv"

    def gen():
        wage_panel = synthetic_wage_panel()
        pn.write_wage_csv(wage_panel, wage_path)
        pn.write_shock_csv(synthetic_shock_series(wage_panel.quarters), shock_path)
        # inputs must round-trip through the package's own parsers
        parsed = pn.parse_wage_csv(wage_path)
        pn.parse_shock_csv(shock_path)
        return f"{parsed.n_quarters} quarters"

    stage("fixtures", gen)

    def dec():
        summary = run_decompose(wage_path, out_dir)
        series = pn.read_series_csv(out_dir / "series.csv")
        assert np.allclose(
            series.total, series.within.sum(axis=1) + series.between, rtol=1e-8, atol=1e-12
        ), "decomposition identity violated in output"
        assert np.allclose(series.within_share + series.between_share, 1.0, atol=1e-9)
        return f"mean within share {summary['mean_within_share']:.3f}"

    stage("decompose", dec)

    def irf_stage():
        spec = vx.VarxSpec(bootstrap_reps=reps, seed=seed)
        manifest = run_irf(wage_path, shock_path, out_dir, spec)
        for fname in manifest["files"]:
            irf = vx.read_irf_csv(out_dir / fname)
            assert np.all(irf.lower <= irf.point + 1e-12), f"band ordering in {fname}"
            assert np.all(irf.point <= irf.upper + 1e-12), f"band ordering in {fname}"
        return ", ".join(manifest["files"])

    stage("irf", irf_stage)

    def growth_stage():
        run_growth(wage_path, out_dir)
        series = pn.read_growth_csv(out_dir / "growth.csv")
        assert series.growth.shape[1] == 9
        return f"{len(series.quarters)} quarters"

    stage("growth", growth_stage)
    return results


@main.command()
@click.option("--out", type=click.Path(), default=None, help="Output directory (default: fresh temp dir).")
@click.option("--reps", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def demo(out, reps, seed):
    """End-to-end run on bundled synthetic fixtures with a pass/fail report."""
    results = run_demo(out, reps=reps, seed=seed)
    failed = False
    for name, ok, detail in results:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed = failed or not ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
