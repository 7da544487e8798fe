"""Benchmark workloads: input generation, CLI commands and output checks.

Inputs come from ``wageineq.fixtures`` and are written with the
benchmark's own CSV writer. The workload seed picks the fixture seeds;
seed 0 gives the fixtures' defaults, i.e. the bundled 81-quarter panel.
The program itself sees only the generated files.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

from wageineq import fixtures

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
HORIZON = 10  # the CLI default
COMPONENTS = ("within_d1", "within_q3", "within_d9", "between")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it wrote."""

    args: tuple  # arguments after ``python -m wageineq.cli``
    check: object  # callable(out_dir) -> list of error strings


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # of Command, run in order as one iteration
    work: int  # work units completed by one iteration
    work_unit: str
    wage_rows: int  # wage CSV rows parsed per wage-CSV read
    reps: int  # bootstrap replications per bootstrap_bands call (0: none)


NAMES = ("irf_default", "irf_control_long", "panel_long")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_wages(panel, path):
    _write_csv(
        path,
        ["quarter", "race", "quantile", "wage"],
        (
            (quarter, race, quantile, f"{w:.10g}")
            for quarter, row in zip(panel.quarters, panel.wages)
            for (quantile, race), w in zip(checks.CELLS, row)
        ),
    )


def write_series(series, path):
    _write_csv(
        path,
        ["quarter", "shock"],
        ((q, f"{v:.10g}") for q, v in zip(series.quarters, series.values)),
    )


def write_inputs(name, seed, tiny, in_dir):
    """Generate the workload's input files into in_dir."""
    in_dir.mkdir(parents=True, exist_ok=True)
    wage_seed, shock_seed = 20000101 + 2 * seed, 20000102 + 2 * seed
    if name == "panel_long":
        panel = fixtures.synthetic_wage_panel(40 if tiny else 4000, "1000Q1", seed=wage_seed)
        write_wages(panel, in_dir / "wages.csv")
        return
    if name == "irf_default":
        panel = fixtures.synthetic_wage_panel(seed=wage_seed)
    else:
        panel = fixtures.synthetic_wage_panel(168, "1979Q1", seed=wage_seed)
        write_series(
            fixtures.synthetic_shock_series(panel.quarters, seed=30000000 + seed),
            in_dir / "indpro.csv",
        )
    write_wages(panel, in_dir / "wages.csv")
    write_series(fixtures.synthetic_shock_series(panel.quarters, seed=shock_seed), in_dir / "shocks.csv")


def _irf_check(files, seed, name, tiny):
    ref_dir = REFERENCE_DIR / name / f"seed{seed}"

    def check(out_dir):
        errors = []
        for fname, names in files:
            ref = ref_dir / fname
            use_ref = not tiny and ref.is_file()
            errors += checks.check_irf(out_dir / fname, names, HORIZON, ref if use_ref else None)
        return errors

    return check


def make(name, seed, tiny, in_dir):
    """The workload ``name``; its inputs must already be in in_dir.

    ``tiny`` shrinks every workload for the self-test: 100 replications,
    40 quarters. Reference IRFs are compared only at full size.
    """
    wages = str(in_dir / "wages.csv")
    if name == "panel_long":
        quarters, panel = checks.read_wages(wages)
        return Workload(
            name,
            (
                Command(("decompose", "--wages", wages),
                        lambda out: checks.check_series(out / "series.csv", quarters, panel)),
                Command(("growth", "--wages", wages),
                        lambda out: checks.check_growth(out / "growth.csv", quarters, panel)),
            ),
            work=2 * len(quarters), work_unit="quarters", wage_rows=9 * len(quarters), reps=0,
        )
    shocks = str(in_dir / "shocks.csv")
    if name == "irf_default":
        reps = 100 if tiny else 2000
        args = ("irf", "--wages", wages, "--shocks", shocks)
        files = (("irf_total.csv", ("total",)), ("irf_components.csv", COMPONENTS))
        quarters = 81
    elif name == "irf_control_long":
        reps = 100 if tiny else 1000
        args = ("irf", "--wages", wages, "--shocks", shocks, "--target", "components",
                "--control", str(in_dir / "indpro.csv"), "--endo-lags", "2",
                "--band-method", "percentile", "--reps", str(reps))
        files = (("irf_components.csv", COMPONENTS + ("indpro",)),)
        quarters = 168
    else:
        raise ValueError(f"unknown workload {name!r}")
    if tiny and name == "irf_default":
        args += ("--reps", str(reps))
    return Workload(
        name, (Command(args, _irf_check(files, seed, name, tiny)),),
        work=reps * len(files), work_unit="bootstrap replications",
        wage_rows=9 * quarters, reps=reps,
    )
