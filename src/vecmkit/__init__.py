"""Cointegration-aware multivariate time-series toolkit.

Quarterly panel ingestion and transforms, Johansen rank testing, VECM/VAR
estimation, residual diagnostics, orthogonalized impulse responses, dynamic
forecasting, and a three-stage multiplicative shock pipeline, with a CLI
(``vecmkit``) wiring the pieces into one workflow.

Names load on first use (PEP 562): ``import vecmkit`` imports no submodule,
and ``vecmkit.fit_vecm`` imports ``vecmkit.vecm`` (and what it needs) the
first time it is read, then binds the name here. ``_NAMES`` gives each
public name's submodule; the submodules themselves are public names too.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_NAMES = {
    "errors": (
        "ConfigError",
        "CoverageError",
        "DegenerateInputError",
        "DomainError",
        "EmptyInputError",
        "FrameError",
        "InsufficientDataError",
        "MissingColumnError",
        "NonNumericCellError",
        "NotPositiveDefiniteError",
        "OutOfRangeError",
        "PipelineStageError",
        "QuarterGapError",
        "QuarterParseError",
        "RankError",
        "SingularDesignError",
        "VecmkitError",
    ),
    "quarterly": (
        "DEFAULT_SCHEMA",
        "ColumnStats",
        "Frame",
        "QuarterIndex",
        "Series",
        "StatsReport",
        "first_difference",
        "load_frame",
        "location_quotient",
        "parse_quarter",
        "proxy_quarterly_output",
        "summary_stats",
    ),
    "formatting": ("write_frame",),
    "numerics": (
        "OlsFit",
        "chi_square_sf",
        "cholesky_lower",
        "eigen_moduli",
        "generalized_symmetric_eigen",
        "ols",
    ),
    "var": ("VarFit", "companion_matrix", "fit_var", "forecast_var", "stability_moduli"),
    "vecm": (
        "TRACE_CRIT_5PCT",
        "JohansenResult",
        "VecmFit",
        "fit_vecm",
        "forecast_vecm",
        "johansen_trace",
        "select_rank",
        "trace_statistics",
        "vecm_to_levels_var",
    ),
    "diagnostics": (
        "ADF_CRITICAL_VALUES",
        "AdfResult",
        "LagSelectionReport",
        "LmResult",
        "NormalityReport",
        "StabilityReport",
        "adf_test",
        "information_criteria",
        "jarque_bera_components",
        "lag_order_selection",
        "lm_autocorrelation",
        "normality_suite",
        "vecm_stability",
    ),
    "irf": ("IrfResult", "ma_coefficients", "orthogonalized_irf", "orthogonalized_irfs"),
    "shock": ("PipelineResult", "ShockScenario", "apply_multiplicative_shock", "run_three_stage"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_HOME])


def __getattr__(name: str):
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
