"""Three-stage shock analysis on top of the VECM/VAR machinery.

Stage 1 fits a VECM on the levels panel, forecasts out of sample, and
multiplies the target variable's forecast path by the shock factor. Stage 2
first-differences everything, splices the actual in-sample target with its
shocked forecast, and fits a VAR on the remaining variables with the
differenced spliced target held exogenous, conditionally forecasting them
over the horizon. Stage 3 splices the differenced in-sample data with the
stage-2 forecasts into one panel where the target is endogenous again, fits
a VAR, and reads off orthogonalized impulse responses to the target.

Stage-2/3 outputs live on the differenced scale; the audit records each
stage's scale so reports cannot silently mix levels and differences.

Stage 1, the first difference, the AIC lag search and the stage-2 fit do
not depend on the shock, so a grid of factors on one panel runs them once:
they are kept in the panel's shared work (``vecm``'s one rule: the work
done on a frame object, for the last two frame objects used), keyed by the
VECM lags, rank, horizon, whether the lag search runs, the target, the
stage-2 lags and the exogenous lags. The stage-2 fit reads the exogenous
target only on in-sample rows, where every factor's spliced path equals the
differenced actuals, so its exogenous block is the differenced target
column of the sample alone. The factor reaches stage 2 only through the
forecast's ``exog_path``: a one-column ``Frame`` of the spliced path's
shocked rows, starting at the first forecast quarter, differenced from the
last in-sample target on. A stage-3 failure names the factor, since the
factor reaches that fit through those rows.

The kept stages also hold two factor-free pieces a factor needs: the
stage-1 forecast of the target, the path each factor scales, and the last
in-sample target level, where the differenced spliced path starts. Stage 3
fills its forecast rows directly, the stage-2 forecasts around the target's
spliced differences, below the differenced sample, and fits them through
``var``'s fit step with no stage-3 ``Frame``: every value there was already
checked finite, by the differenced frame, the stage-2 forecast or the path.
The result equals ``fit_var`` on that ``Frame`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import lag_order_selection
from .errors import (
    DomainError,
    MissingColumnError,
    OutOfRangeError,
    PipelineStageError,
    VecmkitError,
)
from .irf import IrfResult, orthogonalized_irfs
from .numerics import _as_count
from .quarterly import Frame, QuarterIndex, Series, first_difference
from .var import VarFit, _fit, fit_var, forecast_var
from .vecm import _shared, fit_vecm, forecast_vecm

DEFAULT_LAG_SEARCH = 4


def _require_factor(factor: float) -> None:
    try:
        if not math.isfinite(factor):
            raise DomainError(f"shock factor must be finite, got {factor}")
        if factor <= 0:
            raise DomainError(f"shock factor must be positive, got {factor}")
    except TypeError:
        raise DomainError(f"shock factor must be a real number, got {factor!r}") from None


# each count of a scenario and its least value; None where stage 1's fit
# checks the range
_COUNT_MINIMUMS = {
    "horizon": 1,
    "vecm_lags": None,
    "rank": None,
    "stage2_lags": 1,
    "stage3_lags": 1,
    "exog_lags": 0,
}


@dataclass(frozen=True)
class ShockScenario:
    """Parameters of one multiplicative shock run."""

    target: str
    factor: float
    start: QuarterIndex
    horizon: int = 20
    vecm_lags: int = 2
    rank: int = 1
    stage2_lags: int | None = None
    stage3_lags: int | None = None
    exog_lags: int = 0

    def __post_init__(self) -> None:
        """Check the factor, the start and every count before any stage
        runs; a whole float such as 2.0 is kept as the int 2."""
        _require_factor(self.factor)
        if not isinstance(self.start, QuarterIndex):
            raise DomainError(f"start must be a QuarterIndex, got {self.start!r}")
        for name, minimum in _COUNT_MINIMUMS.items():
            value = getattr(self, name)
            # a stage lag order left None is picked by the AIC search
            if value is not None or name not in ("stage2_lags", "stage3_lags"):
                object.__setattr__(self, name, _as_count(value, name, minimum))
        if self.stage2_lags is not None and self.exog_lags > self.stage2_lags:
            raise DomainError(
                f"exog_lags must be in 0..{self.stage2_lags} (stage2_lags), got {self.exog_lags}"
            )


@dataclass(frozen=True)
class PipelineResult:
    """Everything the three stages produced, plus an audit log proving each
    intermediate sample range and row's provenance (the scenario it ran is
    the ``scenario`` field, not repeated in the log)."""

    scenario: ShockScenario
    stage1_forecast: Frame  # levels
    shocked_path: Series  # levels, forecast window only
    stage2_forecast: Frame  # differences, non-target variables
    stage3_fit: VarFit  # differences, all variables
    irfs: dict[str, IrfResult]  # response name -> IRF to the target impulse
    audit: dict


def apply_multiplicative_shock(
    path: Series, factor: float, start: QuarterIndex
) -> Series:
    """Multiply values at or after ``start`` by ``factor``, which must be
    positive and finite; earlier values are returned unchanged. A product
    that overflows raises ``DomainError`` naming the factor."""
    _require_factor(factor)
    offset = path.start.distance(start)
    if not 0 <= offset < len(path):
        raise OutOfRangeError(
            f"shock start {start} outside path range {path.start}..{path.end}"
        )
    values = np.array(path.values)
    with np.errstate(over="ignore"):
        values[offset:] = values[offset:] * factor
    if not np.all(np.isfinite(values[offset:])):
        raise DomainError(f"shock factor {factor} overflows the shocked path")
    return Series(path.name, path.start, values)


def _stage(n: int, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except VecmkitError as exc:
        raise PipelineStageError(n, exc) from exc


class _FrameStages(NamedTuple):
    """The shock-independent part of a run; every field is immutable."""

    stage1_forecast: Frame  # levels
    target_path: Series  # the stage-1 forecast of the target, levels
    last_level: np.ndarray  # the last in-sample target level, as one read-only row
    residual_rows: int
    d_frame: Frame
    picked_lags: int | None  # AIC choice, None when the search did not run
    lag_source: str
    stage2_fit: VarFit  # differences, target exogenous, no rows past the sample


def _frame_stages(frame: Frame, key: tuple) -> _FrameStages:
    """Stage 1 (VECM fit and baseline forecast), the first difference,
    when ``search_lags`` the AIC lag search, and the stage-2 fit, for the
    factor-free part of a scenario that ``run_three_stage`` keys them by."""
    vecm_lags, rank, horizon, search_lags, target, stage2_lags, exog_lags = key
    vfit = _stage(1, fit_vecm, frame, vecm_lags, rank)
    baseline = _stage(1, forecast_vecm, vfit, horizon)
    d_frame = first_difference(frame)
    picked, lag_source = None, "scenario"
    if search_lags:
        search = max(min(DEFAULT_LAG_SEARCH, (len(d_frame) - 2) // (d_frame.n_columns + 1)), 1)
        picked = max(lag_order_selection(d_frame, search).selected["aic"], 1)
        lag_source = f"aic(max_lag={search})"
    p2 = picked if stage2_lags is None else stage2_lags
    # The fit reads the in-sample target differences only, which every
    # factor's spliced path shares.
    fit2 = _stage(
        2, fit_var, d_frame.drop(target), p2, exog=d_frame.select([target]), exog_lags=exog_lags
    )
    return _FrameStages(
        baseline,
        baseline.series(target),
        frame.column(target)[-1:],
        vfit.residuals.shape[0],
        d_frame,
        picked,
        lag_source,
        fit2,
    )


def run_three_stage(frame: Frame, scenario: ShockScenario) -> PipelineResult:
    """Run the full pipeline on a levels frame.

    With factor 1.0 the shocked path equals the baseline path exactly, so
    the run reproduces the unshocked pipeline bit for bit. Stage-2/3 lag
    orders default to the AIC choice on the differenced in-sample data
    (floored at 1) and are recorded in the audit log either way.

    Stage 1, the first difference, the AIC search and the stage-2 fit are
    reused from an earlier call on the same frame object with the same
    ``vecm_lags``, ``rank``, ``horizon``, need for the search, ``target``,
    ``stage2_lags`` and ``exog_lags``, while the frame's shared work is
    kept, so a factor grid on one panel fits stages 1 and 2 once. The
    results are the same as a fresh run's, bit for bit; a call that raises
    keeps nothing.
    """
    target = scenario.target
    if target not in frame.names:
        raise MissingColumnError(f"shock target {target!r} is not a frame column")
    horizon = scenario.horizon
    forecast_start = frame.end.next()
    forecast_end = frame.end.shift(horizon)
    if not forecast_start <= scenario.start <= forecast_end:
        raise OutOfRangeError(
            f"shock start {scenario.start} outside the forecast window "
            f"{forecast_start}..{forecast_end}"
        )

    # Stage 1: in-sample VECM, baseline forecast, shock the target's path.
    # The differences, lag orders and stage-2 fit come with it.
    p2, p3 = scenario.stage2_lags, scenario.stage3_lags
    key = (
        scenario.vecm_lags,
        scenario.rank,
        horizon,
        p2 is None or p3 is None,
        target,
        p2,
        scenario.exog_lags,
    )
    shared = _shared(frame)
    if key not in shared:
        shared[key] = _frame_stages(frame, key)
    stages = shared[key]
    baseline, d_frame, fit2 = stages.stage1_forecast, stages.d_frame, stages.stage2_fit
    p2 = fit2.p
    p3 = stages.picked_lags if p3 is None else p3
    shocked = _stage(
        1, apply_multiplicative_shock, stages.target_path, scenario.factor, scenario.start
    )

    # Stage 2: splice actual + shocked target, hold the spliced path
    # exogenous, conditionally forecast the rest. The factor enters only
    # through the spliced path's forecast rows, the differences of the last
    # in-sample target and the shocked path.
    d_path = np.diff(np.concatenate([stages.last_level, shocked.values]))
    path = Frame(forecast_start, (target,), d_path[:, None])
    stage2_forecast = _stage(2, forecast_var, fit2, horizon, exog_path=path)

    # Stage 3: the differenced in-sample rows, then the stage-2 forecasts
    # with the spliced path back in the target's column; the target is
    # endogenous again, and the IRFs are read off the refitted VAR. Every
    # value was checked finite in d_frame, the stage-2 forecast or the path,
    # so the rows go to the fit step of ``fit_var`` without a Frame.
    n, col = len(d_frame), frame.names.index(target)
    spliced = np.empty((n + horizon, len(frame.names)))
    spliced[:n] = d_frame.values
    spliced[n:, col] = d_path
    spliced[n:, :col] = stage2_forecast.values[:, :col]
    spliced[n:, col + 1 :] = stage2_forecast.values[:, col:]
    try:
        fit3 = _fit(spliced, p3, frame.names, d_frame.start)
        irfs = orthogonalized_irfs(fit3, horizon, target)
    except VecmkitError as exc:
        # The factor reaches stage 3 through the target's spliced rows, so
        # its failure names the factor and the scale it gave those rows.
        raise PipelineStageError(
            3,
            exc,
            f" under shock factor {scenario.factor}: the target's shocked differences "
            f"reach {np.abs(d_path).max():.3g}, its in-sample ones "
            f"{np.abs(d_frame.column(target)).max():.3g}",
        ) from exc

    # Each quarter label once: the differenced sample ends with the sample,
    # and stage 3 and the stage-2 forecasts end with the forecast window.
    first, d_first, last = str(frame.start), str(d_frame.start), str(frame.end)
    window = [str(forecast_start), str(forecast_end)]
    audit = {
        "lag_order_source": stages.lag_source,
        "stage1": {
            "scale": "levels",
            "sample": [first, last],
            "n_rows": len(frame),
            "vecm_lags": scenario.vecm_lags,
            "rank": scenario.rank,
            "residual_rows": stages.residual_rows,
            "forecast_window": window,
        },
        "stage2": {
            "scale": "differences",
            "sample": [d_first, last],
            "n_rows": len(d_frame),
            "lag_order": p2,
            "rows_used": len(d_frame) - p2,
            "exogenous": [target],
            "exog_lags": scenario.exog_lags,
            "endogenous": list(fit2.names),
        },
        "stage3": {
            "scale": "differences",
            "sample": [d_first, window[1]],
            "n_rows": len(spliced),
            "lag_order": p3,
            "rows_used": len(spliced) - p3,
            "row_provenance": {
                "differenced_actuals": [d_first, last],
                "stage2_forecasts": list(window),
                "target_column": "differenced in-sample actuals spliced with shocked forecast",
            },
        },
    }

    return PipelineResult(
        scenario=scenario,
        stage1_forecast=baseline,
        shocked_path=shocked,
        stage2_forecast=stage2_forecast,
        stage3_fit=fit3,
        irfs=irfs,
        audit=audit,
    )
