"""Wage-inequality decomposition and shock-response analysis toolkit.

The public names load their module on first use (PEP 562), so importing
the package alone does not import numpy.
"""

import importlib

_EXPORTS = {
    "theil": (
        "DecompositionResult",
        "DomainError",
        "GroupTerm",
        "Partition",
        "decompose",
        "smoothed_distribution",
        "theil_index",
    ),
    "panel": (
        "GrowthSeries",
        "InequalitySeries",
        "PanelError",
        "QuarterlyPanel",
        "ShockSeries",
        "align",
        "build_distribution",
        "compute_series",
        "growth_rates",
        "parse_shock_csv",
        "parse_wage_csv",
        "standardize",
    ),
    "varx": (
        "Design",
        "ImpulseResponse",
        "RankError",
        "TimeSeriesData",
        "VarxError",
        "VarxModel",
        "VarxSpec",
        "bootstrap_bands",
        "build_design",
        "dynamic_multipliers",
        "estimate",
        "simulate_varx",
        "subsample",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
