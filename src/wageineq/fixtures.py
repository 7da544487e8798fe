"""Synthetic data generators for demos and tests.

Real CPS-derived wage quantiles and the externally identified policy-shock
series are licensed data and are not bundled; these generators produce
panels in the same file formats with comparable qualitative structure:
wage levels far apart across quantile points (so the between term
dominates), modest racial spreads inside each point (within share near
0.12), faster wage growth higher in the distribution, and a mean-zero
shock series with occasional large movements.
"""

import numpy as np

from .panel import CELLS, RACES, PanelError, QuarterlyPanel, ShockSeries, _run_labels, parse_quarter
from .varx import TimeSeriesData, simulate_varx

__all__ = [
    "make_quarters",
    "synthetic_wage_panel",
    "synthetic_shock_series",
    "graded_growth_panel",
    "constant_panel",
    "planted_effect_data",
]

# per-quantile base weekly wages and annual growth, D9 fastest
_BASE = {"D1": (650.0, 0.015), "Q3": (1100.0, 0.028), "D9": (1750.0, 0.045)}
# racial wage multipliers (Asian, Black, White) at the start of the sample
_RACE_START = {
    "D1": (1.60, 1.00, 1.40),
    "Q3": (1.40, 1.00, 1.30),
    "D9": (1.40, 1.00, 1.30),
}
# and at the end: the Asian premium widens in the upper distribution
_RACE_END = {
    "D1": (1.60, 1.00, 1.40),
    "Q3": (1.70, 1.00, 1.30),
    "D9": (1.70, 1.00, 1.35),
}


def make_quarters(start: str, n: int) -> tuple:
    """n consecutive quarter labels beginning at start."""
    return _run_labels(parse_quarter(start), n)


def synthetic_wage_panel(
    n_quarters: int = 81,
    start: str = "2000Q1",
    seed: int = 20000101,
    noise_sd: float = 0.004,
) -> QuarterlyPanel:
    """Wage panel whose decomposition mimics the documented shape.

    With the default calibration the mean within share sits near 0.12
    (racial gaps inside each quantile point) and the between share near
    0.88, and mean year-over-year growth is ordered D9 > Q3 > D1 for every
    race. Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    wages = np.empty((n_quarters, 9))
    frac = np.linspace(0.0, 1.0, n_quarters)
    for c, (quantile, race) in enumerate(CELLS):
        base, annual = _BASE[quantile]
        r = RACES.index(race)
        mult = _RACE_START[quantile][r] + frac * (
            _RACE_END[quantile][r] - _RACE_START[quantile][r]
        )
        level = base * (1.0 + annual) ** (np.arange(n_quarters) / 4.0)
        wages[:, c] = level * mult * np.exp(rng.normal(0.0, noise_sd, n_quarters))
    return QuarterlyPanel(parse_quarter(start), wages)


def synthetic_shock_series(quarters, seed: int = 20000102) -> ShockSeries:
    """Mean-zero AR(1) shock series with fat occasional movements over a contiguous run of quarter labels."""
    rng = np.random.default_rng(seed)
    n = len(quarters)
    values = np.empty(n)
    prev = 0.0
    for t in range(n):
        innov = rng.normal(0.0, 0.08)
        if rng.random() < 0.08:  # occasional large policy move
            innov += rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.45)
        prev = 0.3 * prev + innov
        values[t] = prev
    shocks = ShockSeries(parse_quarter(quarters[0]), values - values.mean())
    if shocks.quarters != tuple(quarters):
        raise PanelError(f"quarters {quarters[0]}..{quarters[-1]} are not one contiguous run")
    return shocks


def graded_growth_panel(
    n_quarters: int = 12,
    start: str = "2000Q1",
    rates: dict | None = None,
) -> QuarterlyPanel:
    """Noise-free panel with an exact annual growth rate per quantile point.

    wage_t = base * (1 + rate/100)^(t/4), so year-over-year growth is
    identically the configured rate. Defaults: D1 1%, Q3 3%, D9 5%.
    """
    if rates is None:
        rates = {"D1": 1.0, "Q3": 3.0, "D9": 5.0}
    wages = np.empty((n_quarters, 9))
    t = np.arange(n_quarters)
    for c, (quantile, race) in enumerate(CELLS):
        base, _ = _BASE[quantile]
        r = RACES.index(race)
        mult = _RACE_START[quantile][r]
        wages[:, c] = base * mult * (1.0 + rates[quantile] / 100.0) ** (t / 4.0)
    return QuarterlyPanel(parse_quarter(start), wages)


def constant_panel(n_quarters: int = 8, start: str = "2000Q1", wage: float = 700.0) -> QuarterlyPanel:
    """Panel with every cell equal: zero inequality, zero growth."""
    return QuarterlyPanel(parse_quarter(start), np.full((n_quarters, 9), wage))


def planted_effect_data(
    T: int = 240,
    effect: float = 0.8,
    seed: int = 7,
    noise_sd: float = 0.15,
    start: str = "1960Q1",
) -> TimeSeriesData:
    """Four-variable series where only 'between' responds to the shock.

    The generating process gives the between component an exogenous
    coefficient of ``effect`` at lag 0 and effect/2 at lag 1; the three
    within components load zero on the shock. Used to check that the
    pipeline flags only the between response as distinguishable from 0.
    """
    rng = np.random.default_rng(seed)
    names = ("within_d1", "within_q3", "within_d9", "between")
    k = len(names)
    shocks = synthetic_shock_series(make_quarters(start, T), seed=seed + 1)
    endo = np.zeros((1, k, k))
    np.fill_diagonal(endo[0], (0.4, 0.4, 0.4, 0.5))
    exog = np.zeros((5, k))
    exog[0, 3] = effect
    exog[1, 3] = effect / 2.0
    X = simulate_varx(np.zeros(k), endo, exog, shocks.values, noise_sd, rng)
    return TimeSeriesData(shocks.first, X, shocks.values, names)
