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

import gc
import os

# One BLAS thread: no matrix here is large enough for OpenBLAS to split, and
# starting its worker thread costs more than a command's linear algebra. This
# must run before numpy loads; a value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if __name__ == "__main__":
    gc.disable()  # before numpy and click load; see entry()

import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import panel as pn
from .theil import DomainError

# varx and json are imported only where they are used, so decompose and growth load neither.

COMPONENT_NAMES = pn.SERIES_HEADER[2:6]  # the three within terms and between


def _sha256(path) -> str:
    import hashlib  # loads OpenSSL (about 3 MB resident), which only the irf manifest needs

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _apply_config(ctx, param, path):
    """Make a JSON config file the command's defaults, so explicit flags still win."""
    if path is None:
        return
    import json
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise click.BadParameter(f"{path} is not a readable JSON file: {exc}", ctx, param) from None
    if not isinstance(cfg, dict):
        raise click.BadParameter(f"{path} must hold a JSON object", ctx, param)
    params = {p.name: p for p in ctx.command.params if p is not param}
    # the JSON values an option of each click type takes, and their wording; any other option takes a string
    json_types = {"integer": (int, "an integer"), "float": ((int, float), "a number"), "boolean": (bool, "true or false")}
    for key, value in cfg.items():
        if key not in params:
            raise click.BadParameter(
                f"{path} has unknown key {key!r}; expected one of {', '.join(sorted(params))}", ctx, param
            )
        # checked here, as the option's click type declares: click would coerce what it can (100.7 to
        # 100, "no" to false, a list to its text) and name no file or key for what it cannot
        p = params[key]
        types, expected = json_types.get(p.type.name, (str, "a string"))
        choices = getattr(p.type, "choices", None)
        expected = "one of " + ", ".join(map(json.dumps, choices)) if choices else expected
        items = value if p.multiple else [value]
        if not isinstance(items, list) or not all(
            isinstance(v, types) and isinstance(v, bool) == (types is bool) and (not choices or v in choices)
            for v in items
        ):
            expected = f"a JSON list, each item {expected}" if p.multiple else expected
            raise click.BadParameter(f"{path} has key {key!r} set to {json.dumps(value)}; expected {expected}", ctx, param)
    ctx.default_map = cfg


def _read(what, read, path):
    """read(path), with a PanelError it raises re-raised naming ``what`` and the path."""
    try:
        return read(path)
    except pn.PanelError as exc:
        raise pn.PanelError(f"{what} {path}: {exc}") from None


def run_decompose(wage_csv, out_dir) -> dict:
    """Decompose a wage CSV; write series.csv and return the summary block."""
    series = pn.compute_series(_read("wage CSV", pn.parse_wage_csv, wage_csv))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    pn.write_series_csv(series, Path(out_dir) / "series.csv")
    return {
        "first_quarter": series.quarters[0],
        "last_quarter": series.quarters[-1],
        "mean_within_share": float(series.within_share.mean()),
        "mean_between_share": float(series.between_share.mean()),
        "files": ["series.csv"],
    }


def run_growth(wage_csv, out_dir, method: str = "yoy") -> dict:
    """Write per-cell growth rates for a wage CSV."""
    growth = pn.growth_rates(_read("wage CSV", pn.parse_wage_csv, wage_csv), method=method)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    pn.write_growth_csv(growth, Path(out_dir) / "growth.csv")
    return {"quarters": len(growth.quarters), "method": method, "files": ["growth.csv"]}


def run_irf(
    wage_csv,
    shock_csv,
    out_dir,
    spec: "vx.VarxSpec",
    targets=("total", "components"),
    standardize: bool = True,
    start=None,
    end=None,
    controls=(),
    per_component: bool = False,
) -> dict:
    """Estimate and write impulse responses for each requested target set.

    'total' runs the overall index alone (plus any controls as extra endogenous variables); 'components'
    runs the three within terms and the between term, jointly by default or one univariate system per
    component with per_component. With standardize, every series a run fits, controls included, is
    scaled once over the estimation sample, so all output files of one run share those SD units; a series
    that no requested system reads is neither scaled nor checked, and one constant over the sample stops
    the run before any fit, naming the series and the span.
    """
    import json

    from . import varx as vx

    targets = list(dict.fromkeys(targets))  # a repeated target is run once
    if not targets:
        raise vx.VarxError("no target to run; expected total, components or both")
    systems = {}  # output file -> the inequality series its fit takes as endogenous
    for target in targets:
        if target == "total":
            systems["irf_total.csv"] = ["total"]
        elif target != "components":
            raise vx.VarxError(f"unknown target {target!r}; expected total or components")
        elif per_component:
            systems.update((f"irf_{name}.csv", [name]) for name in COMPONENT_NAMES)
        else:
            systems["irf_components.csv"] = list(COMPONENT_NAMES)

    panel, shocks = pn.align(_read("wage CSV", pn.parse_wage_csv, wage_csv), _read("shock CSV", pn.parse_shock_csv, shock_csv))
    series = pn.compute_series(panel)
    X = np.column_stack([series.total, series.within, series.between])  # in SERIES_HEADER's order
    sample = vx.subsample(vx.TimeSeriesData(panel.first, X, shocks.values, pn.SERIES_HEADER[1:6]), start, end)
    columns = dict(zip(sample.names, sample.X.T))  # over the estimation sample, on which every system is fitted

    control_paths = {}
    for path in controls:
        name = Path(path).stem
        if name in control_paths:
            raise pn.PanelError(f"control series {control_paths[name]} and {path} share the name {name!r}")
        if name in columns:
            raise pn.PanelError(f"control series {path} is named like the series {name!r}; rename the file")
        control_paths[name] = path
        columns[name] = _read("control series", lambda p: pn.parse_shock_csv(p).restrict(sample.first, sample.T), path).values

    if standardize:  # each series some system reads, once, so every output file is in the same SD units
        for name in [n for names in systems.values() for n in names] + list(control_paths):  # systems share no series
            try:
                columns[name] = pn.standardize(columns[name])
            except DomainError as exc:
                raise DomainError(f"{exc} ({name!r} over {sample.quarters[0]}..{sample.quarters[-1]})") from None

    records, irfs = {}, {}
    for fname, names in systems.items():
        names = names + list(control_paths)
        data = vx.TimeSeriesData(sample.first, np.column_stack([columns[n] for n in names]), sample.d, tuple(names))
        design = vx.build_design(data, spec)
        model = vx.estimate(design)
        irfs[fname] = irf = vx.bootstrap_bands(model, design)
        records[fname] = {
            "bootstrap_dropped": irf.dropped,
            # at the CSVs' precision, so a last-ulp change in the fit leaves the manifest's bytes alone
            "companion_spectral_radius": float(pn._NUMBER % vx.companion_spectral_radius(model)),
            "effective_sample": design.T_eff,
            "regressors": design.m,
        }

    manifest = {
        "wage_csv": {"path": str(wage_csv), "sha256": _sha256(wage_csv)},
        "shock_csv": {"path": str(shock_csv), "sha256": _sha256(shock_csv)},
        "controls": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in control_paths.items()},
        "targets": targets,
        "per_component": per_component,
        "standardize": standardize,
        "start": start,
        "end": end,
        "spec": dataclasses.asdict(spec),
        "files": list(records),
    }
    for key in next(iter(records.values())):  # one map per fact, from output file to value
        manifest[key] = {fname: record[key] for fname, record in records.items()}
    out_dir = Path(out_dir)  # made only now, so a failed run leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    for fname, irf in irfs.items():
        vx.write_irf_csv(irf, out_dir / fname)
    # rendered before the file is opened, so a value JSON cannot hold leaves no partial manifest
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _warn_about_fits(manifest) -> None:
    """Name on stderr each explosive fit and each fit whose bootstrap dropped replications."""
    explosive = [f for f, r in manifest["companion_spectral_radius"].items() if r >= 1.0]
    if explosive:
        click.echo(f"warning: companion spectral radius >= 1 (explosive fit) for {', '.join(explosive)}", err=True)
    reps = manifest["spec"]["bootstrap_reps"]
    dropped = [f"{f} ({n} of {reps})" for f, n in manifest["bootstrap_dropped"].items() if n > 0]
    if dropped:
        click.echo(f"warning: bootstrap replications dropped as rank deficient for {', '.join(dropped)}", err=True)


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
_wages_opt = click.option("--wages", type=click.Path(), required=True, help="Wage CSV (quarter,race,quantile,wage).")


@main.command()
@_config_opt
@_wages_opt
@_out_opt
def decompose(wages, out):
    """Write the per-quarter within/between decomposition series."""
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
@click.option("--shocks", type=click.Path(), required=True, help="Shock CSV (quarter,shock).")
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
    from . import varx as vx

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
    _warn_about_fits(manifest)
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
    try:
        summary = run_growth(wages, out, method=method)
    except (pn.PanelError, DomainError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote {Path(out) / 'growth.csv'} ({summary['quarters']} quarters, {summary['method']})")


def run_demo(out_dir=None, reps: int = 200, seed: int = 0) -> list:
    """Generate fixtures, run all three pipelines, and validate the outputs.

    Returns a list of (stage, ok, detail) tuples.
    """
    import tempfile

    from . import varx as vx
    from .fixtures import synthetic_shock_series, synthetic_wage_panel

    out_dir = Path(tempfile.mkdtemp(prefix="wageineq-demo-") if out_dir is None else out_dir)
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
        _warn_about_fits(manifest)
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
    try:
        results = run_demo(out, reps=reps, seed=seed)
    except OSError as exc:  # --out cannot be made: it names a file, or a path under one
        raise click.ClickException(str(exc)) from exc
    for name, ok, detail in results:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    sys.exit(0 if all(ok for _, ok, _ in results) else 1)


def entry():
    """Run the command line as a program: a run makes few reference cycles, so the cyclic collector
    stays off, and the imports' objects are frozen so that interpreter exit does not walk them."""
    gc.disable()
    gc.freeze()
    main()


if __name__ == "__main__":
    entry()
