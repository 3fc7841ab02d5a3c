"""Cointegration-aware multivariate time-series toolkit.

Quarterly panel ingestion and transforms, Johansen rank testing, VECM/VAR
estimation, residual diagnostics, orthogonalized impulse responses, dynamic
forecasting, and a three-stage multiplicative shock pipeline, with a CLI
(``vecmkit``) wiring the pieces into one workflow.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CoverageError,
    DegenerateInputError,
    DomainError,
    EmptyInputError,
    FrameError,
    InsufficientDataError,
    MissingColumnError,
    NonNumericCellError,
    NotPositiveDefiniteError,
    OutOfRangeError,
    PipelineStageError,
    QuarterGapError,
    QuarterParseError,
    RankError,
    SingularDesignError,
    VecmkitError,
)
from .quarterly import (
    DEFAULT_SCHEMA,
    ColumnStats,
    Frame,
    QuarterIndex,
    Series,
    StatsReport,
    first_difference,
    load_frame,
    location_quotient,
    parse_quarter,
    proxy_quarterly_output,
    summary_stats,
)
from .formatting import write_frame
from .numerics import (
    OlsFit,
    chi_square_sf,
    cholesky_lower,
    eigen_moduli,
    generalized_symmetric_eigen,
    ols,
)
from .var import (
    VarFit,
    companion_matrix,
    fit_var,
    forecast_var,
    stability_moduli,
)
from .vecm import (
    TRACE_CRIT_5PCT,
    JohansenResult,
    VecmFit,
    fit_vecm,
    forecast_vecm,
    johansen_trace,
    select_rank,
    trace_statistics,
    vecm_to_levels_var,
)
from .diagnostics import (
    ADF_CRITICAL_VALUES,
    AdfResult,
    LagSelectionReport,
    LmResult,
    NormalityReport,
    StabilityReport,
    adf_test,
    information_criteria,
    jarque_bera_components,
    lag_order_selection,
    lm_autocorrelation,
    normality_suite,
    vecm_stability,
)
from .irf import IrfResult, ma_coefficients, orthogonalized_irf, orthogonalized_irfs
from .shock import (
    PipelineResult,
    ShockScenario,
    apply_multiplicative_shock,
    run_three_stage,
)

__all__ = [name for name in dir() if not name.startswith("_")]
