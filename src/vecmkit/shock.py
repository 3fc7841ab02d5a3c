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
the last call's results are kept, keyed by the frame's content (``Frame``
equality: start, names and every value bit for bit) together with the VECM
lags, rank, horizon, whether the lag search runs, the target, the stage-2
lags and the exogenous lags. The stage-2 fit reads the exogenous target only
on in-sample rows, where every factor's spliced path equals the differenced
actuals, so its exogenous block is the differenced target column of the
sample alone. The factor reaches stage 2 only through the forecast's
``exog_path``: a one-column ``Frame`` of the spliced path's shocked rows,
starting at the first forecast quarter, differenced from the last
in-sample target on. A stage-3 failure names the factor, since the factor
reaches that fit through those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
from .quarterly import Frame, QuarterIndex, Series, first_difference
from .var import VarFit, fit_var, forecast_var
from .vecm import fit_vecm, forecast_vecm

DEFAULT_LAG_SEARCH = 4


def _require_factor(factor: float) -> None:
    try:
        if not math.isfinite(factor):
            raise DomainError(f"shock factor must be finite, got {factor}")
        if factor <= 0:
            raise DomainError(f"shock factor must be positive, got {factor}")
    except TypeError:
        raise DomainError(f"shock factor must be a real number, got {factor!r}") from None


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
        _require_factor(self.factor)
        if self.horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {self.horizon}")
        if self.exog_lags < 0:
            raise DomainError(f"exog_lags must be >= 0, got {self.exog_lags}")
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
    residual_rows: int
    d_frame: Frame
    picked_lags: int | None  # AIC choice, None when the search did not run
    lag_source: str
    stage2_fit: VarFit  # differences, target exogenous, no rows past the sample


@lru_cache(maxsize=1)
def _frame_stages(
    frame: Frame,
    vecm_lags: int,
    rank: int,
    horizon: int,
    search_lags: bool,
    target: str,
    stage2_lags: int | None,
    exog_lags: int,
) -> _FrameStages:
    """Stage 1 (VECM fit and baseline forecast), the first difference,
    when ``search_lags`` the AIC lag search, and the stage-2 fit.
    Memoized for the last key only; a call that raises caches nothing."""
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
        baseline, int(vfit.residuals.shape[0]), d_frame, picked, lag_source, fit2
    )


def run_three_stage(frame: Frame, scenario: ShockScenario) -> PipelineResult:
    """Run the full pipeline on a levels frame.

    With factor 1.0 the shocked path equals the baseline path exactly, so
    the run reproduces the unshocked pipeline bit for bit. Stage-2/3 lag
    orders default to the AIC choice on the differenced in-sample data
    (floored at 1) and are recorded in the audit log either way.

    Stage 1, the first difference, the AIC search and the stage-2 fit are
    reused from the previous call when it had an equal frame (same start,
    names and values bit for bit) and the same ``vecm_lags``, ``rank``,
    ``horizon``, need for the search, ``target``, ``stage2_lags`` and
    ``exog_lags``, so a factor grid on one panel fits stages 1 and 2 once.
    The results are the same as a fresh run's, bit for bit.
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
    stages = _frame_stages(
        frame,
        scenario.vecm_lags,
        scenario.rank,
        horizon,
        p2 is None or p3 is None,
        target,
        p2,
        scenario.exog_lags,
    )
    baseline, d_frame, fit2 = stages.stage1_forecast, stages.d_frame, stages.stage2_fit
    p2 = fit2.p
    p3 = stages.picked_lags if p3 is None else p3
    shocked = _stage(
        1, apply_multiplicative_shock, baseline.series(target), scenario.factor, scenario.start
    )

    # Stage 2: splice actual + shocked target, hold the spliced path
    # exogenous, conditionally forecast the rest. The factor enters only
    # through the spliced path's forecast rows, the differences of the last
    # in-sample target and the shocked path.
    d_path = np.diff(np.concatenate([frame.column(target)[-1:], shocked.values]))
    path = Frame(forecast_start, (target,), d_path[:, None])
    stage2_forecast = _stage(2, forecast_var, fit2, horizon, exog_path=path)

    # Stage 3: the differenced in-sample rows, then the stage-2 forecasts
    # with the spliced path back in the target's column; the target is
    # endogenous again, and the IRFs are read off the refitted VAR.
    rows = np.insert(stage2_forecast.values, frame.names.index(target), d_path, axis=1)
    stage3_frame = Frame(d_frame.start, frame.names, np.vstack([d_frame.values, rows]))
    try:
        fit3 = fit_var(stage3_frame, p3)
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
            "n_rows": len(stage3_frame),
            "lag_order": p3,
            "rows_used": len(stage3_frame) - p3,
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
