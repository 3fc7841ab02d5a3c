"""VAR(p) estimation with optional exogenous regressors, companion form,
stability moduli, and dynamic (iterated) point forecasting.

The model is X_t = C + A_1 X_{t-1} + ... + A_p X_{t-p} + B_0 Z_t + ... +
B_q Z_{t-q} + e_t, where the exogenous block Z enters contemporaneously by
default (q = ``exog_lags`` adds its lags). Z is a ``Frame`` aligned with the
sample: it starts at the sample's first quarter and covers every sample row.
Its future rows have one way in, the ``exog_path`` ``Frame`` of
``forecast_var``, which starts at the first forecast quarter. Fits are
immutable; forecasting never mutates the fit, so concurrent forecasts from
one fit are safe.

Every fit is one step, ``_fit``: it checks the lag order and the
exogenous block, builds the design [1, lags, exogenous | X_t] from a
sample's values, factors it once and splits the coefficients. ``fit_var``
runs it on a ``Frame``'s values, whose finiteness the ``Frame`` checked;
the three-stage shock's stage 3 runs it directly on rows it spliced from
values already checked finite, so a scenario grid builds no ``Frame`` per
factor and there is one design builder, not two.

Every propagation of a fitted VAR is one recursion, y_h = drive_h + A_1
y_{h-1} + ... + A_p y_{h-p} (Lütkepohl 2005, 2.1): a forecast is driven by
the constant (and the exogenous terms) from the sample tail, and the MA
coefficients of ``irf.ma_coefficients`` by a unit impulse from zeros. It has
two evaluation orders, chosen by the companion's width K p and the number of
steps alone. A small companion over many steps is propagated by doubling
(a Hillis-Steele scan; Blelloch 1990, Prefix sums and their applications):
ceil(log2(h + 1)) products with the companion's powers C, C^2, C^4, ..
replace the h steps. Otherwise the steps run one by one, the rows kept
newest first in one buffer, so the p lags of a step are the p rows after it
and [A_1 .. A_p] multiplies them as one contiguous view. The two orders agree
to rounding; a given input always takes the same one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import CoverageError, DomainError, InsufficientDataError
from .numerics import _as_count, _factor, eigen_moduli
from .quarterly import Frame, QuarterIndex, _lag_blocks


def freeze_arrays(record) -> None:
    """Mark every array field of a dataclass record, and every array in a
    tuple field, read-only in place; nothing is copied."""
    for f in fields(record):
        value = getattr(record, f.name)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)


@dataclass(frozen=True)
class VarFit:
    """Estimated VAR(p): coefficient matrices, constants, exogenous block,
    residuals and their ML covariance, plus the sample tail needed to start
    dynamic forecasts. Its arrays are read-only, so a fit never changes."""

    p: int
    names: tuple[str, ...]
    coef_matrices: tuple[np.ndarray, ...]  # p matrices, K x K
    const: np.ndarray  # (K,)
    residuals: np.ndarray  # T_eff x K
    sigma: np.ndarray  # K x K, ML divisor T_eff
    sample_start: QuarterIndex
    n_sample: int
    tail: np.ndarray  # p x K, last observed rows in levels
    exog_names: tuple[str, ...] = ()
    exog_lags: int = 0
    exog_coef: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    exog_values: np.ndarray | None = None  # in-sample rows

    def __post_init__(self) -> None:
        freeze_arrays(self)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @cached_property
    def _irf_stacks(self) -> dict[int, np.ndarray]:
        """Read-only orthogonalized MA stacks by horizon, filled by
        ``irf.orthogonalized_irfs``; a fit's arrays are read-only, so a
        stack built from them stays valid."""
        return {}


def fit_var(
    frame: Frame,
    p: int,
    exog: Frame | None = None,
    exog_lags: int = 0,
) -> VarFit:
    """Stacked-regression least squares of X_t on a constant, p own lags,
    and (optionally) the exogenous values Z_t .. Z_{t-exog_lags}.

    ``exog`` is a ``Frame`` that starts at ``frame.start`` and covers every
    sample row, or ``CoverageError`` is raised. Rows it holds past the
    sample end are not read: future exogenous values reach a forecast only
    through the ``exog_path`` of ``forecast_var``.
    """
    return _fit(frame.values, p, frame.names, frame.start, exog, exog_lags)


def _fit(
    values: np.ndarray,
    p: int,
    names: tuple[str, ...],
    start: QuarterIndex,
    exog: Frame | None = None,
    exog_lags: int = 0,
) -> VarFit:
    """``fit_var`` on the sample ``values``, whose first row is quarter
    ``start``: a finite float T x K array, which the fit does not keep. A
    caller that assembles a sample from values already checked finite
    (``shock``'s stage 3) fits it here without building a ``Frame``."""
    p = _as_count(p, "lag order", 1)
    t, k = values.shape
    t_eff = t - p

    features = None
    active = None
    n_active = 0
    if exog is not None:
        exog_lags = _as_count(exog_lags, "exog_lags")
        if not 0 <= exog_lags <= p:
            raise DomainError(f"exog_lags must be in 0..{p}, got {exog_lags}")
        if exog.start != start or len(exog) < t:
            raise CoverageError(
                f"exogenous frame spans {exog.start}..{exog.end}, "
                f"sample needs {start}..{start.shift(t - 1)}"
            )
        # Z over rows p-q..T-1, so lag 0 is its last T-p rows and lags 1..q
        # are its lag blocks; a sample of at most p rows takes none and is
        # rejected below
        rows = exog.values[p - exog_lags : t] if t_eff > 0 else exog.values[:0]
        features = np.hstack([rows[exog_lags:], *_lag_blocks(rows, exog_lags)])
        # an identically-zero exogenous column is unidentified; estimate the
        # rest and pin its coefficient at zero
        active = np.any(features != 0.0, axis=0)
        n_active = int(active.sum())
    if t_eff <= k * p + 1 + n_active:
        raise InsufficientDataError(
            f"{t} rows cannot identify a VAR({p}) with {k} variables"
            + (f" and {n_active} exogenous terms" if n_active else "")
        )

    # [1, lags, exogenous | X_t]
    xy = [np.ones((t_eff, 1)), *_lag_blocks(values, p)]
    if features is not None:
        xy.append(features[:, active])
    xy.append(values[p:])
    fit = _factor(np.hstack(xy), 1 + k * p + n_active)

    coef = fit.coefficients
    # rows 1 + K i .. K (i + 1) of the coefficients are A_{i+1}', copied
    # C-ordered: np.hstack keeps its inputs' order, and an F-ordered
    # [A_1 .. A_p] would round the recursions differently
    mats = tuple(np.ascontiguousarray(coef[1 : 1 + k * p].reshape(p, k, k).transpose(0, 2, 1)))
    if exog is not None:
        exog_coef = np.zeros((k, features.shape[1]))
        exog_coef[:, active] = coef[1 + k * p :].T
    else:
        exog_coef = np.zeros((0, 0))

    return VarFit(
        p=p,
        names=names,
        coef_matrices=mats,
        const=coef[0].copy(),
        residuals=fit.residuals,
        sigma=fit.sigma,
        sample_start=start,
        n_sample=t,
        tail=np.array(values[-p:]),  # in the sample's own layout
        exog_names=exog.names if exog is not None else (),
        exog_lags=exog_lags if exog is not None else 0,
        exog_coef=exog_coef,
        exog_values=exog.values[:t].copy() if exog is not None else None,
    )


def companion_matrix(fit: VarFit) -> np.ndarray:
    """(K*p) x (K*p) block companion: [A_1 .. A_p] on top, identities below."""
    k, p = fit.n_vars, fit.p
    return np.vstack([np.hstack(fit.coef_matrices), np.eye(k * (p - 1), k * p)])


def stability_moduli(fit: VarFit) -> np.ndarray:
    """Eigenvalue moduli of the companion matrix, descending; all < 1 for
    a stable VAR, with unit moduli marking stochastic trends."""
    return eigen_moduli(companion_matrix(fit))


def forecast_var(
    fit: VarFit,
    horizon: int,
    exog_path: Frame | None = None,
) -> Frame:
    """Dynamic point forecasts: each step feeds prior forecasts back as lags.

    A fit with an exogenous block takes its future values from
    ``exog_path`` alone: a ``Frame`` that holds the fit's exogenous names
    and starts at the first forecast quarter (one after the sample end),
    with at least ``horizon`` rows. A path that starts on another quarter
    or is too short raises ``CoverageError``, one that lacks a name
    ``MissingColumnError``. Lagged exogenous terms of the first steps read
    the fit's last in-sample exogenous rows.
    """
    horizon = _as_count(horizon, "horizon", 1)
    start = fit.sample_start.shift(fit.n_sample)

    drive = np.tile(fit.const, (horizon, 1))
    if fit.exog_names:
        if exog_path is None or exog_path.start != start or len(exog_path) < horizon:
            spans = "none" if exog_path is None else f"{exog_path.start}..{exog_path.end}"
            raise CoverageError(
                f"exogenous path spans {spans}, forecast needs {start}..{start.shift(horizon - 1)}"
            )
        lags = fit.exog_lags
        if exog_path.names != fit.exog_names:
            exog_path = exog_path.select(fit.exog_names)
        rows = exog_path.values[:horizon]
        if lags:
            rows = np.vstack([fit.exog_values[-lags:], rows])
        # row h holds step h's features, laid out as in the fit's design
        drive += np.hstack([rows[lags:], *_lag_blocks(rows, lags)]) @ fit.exog_coef.T
    elif exog_path is not None:
        raise CoverageError("fit has no exogenous block but an exogenous path was given")
    return Frame(start, fit.names, _recursion(fit, fit.tail, drive))


# The doubling scan costs a few fixed numpy calls and ceil(log2(h + 1))
# products that grow with (K p)^2, the step loop one Python step per row.
# Measured in-process with one BLAS thread (minimum over repeated calls, K p
# from 5 to 72 and 1 to 64 steps, vector rows and K x K blocks): for
# K p <= 16 the two break even at 7 to 12 steps; above K p = 16 the scan's
# gain shrinks, and on K x K blocks with K >= 8 it loses at every horizon up
# to 20.
_SCAN_MAX_WIDTH = 16
_SCAN_MIN_STEPS = 10


def _recursion(fit: VarFit, start: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """y_h = drive_h + A_1 y_{h-1} + ... + A_p y_{h-p} for each row h of
    ``drive``, from the p rows of ``start`` (oldest first) as y_{-p} ..
    y_{-1}; a row is a K-vector or a K x m block. A companion of width
    K p <= _SCAN_MAX_WIDTH over at least _SCAN_MIN_STEPS rows is propagated
    by ``_scan``, anything else by ``_steps``."""
    if fit.n_vars * fit.p <= _SCAN_MAX_WIDTH and len(drive) >= _SCAN_MIN_STEPS:
        return _scan(fit, start, drive)
    return _steps(fit, start, drive)


def _steps(fit: VarFit, start: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """The recursion one step at a time. The rows sit newest first in one
    C-ordered buffer z, so the lags y_{h-1} .. y_{h-p} of a step are the p
    rows after it: one contiguous stretch, whose reshape is the stacked
    [y_{h-1}; ..; y_{h-p}] that [A_1 .. A_p] multiplies, read without a
    copy."""
    n = len(drive)
    wide = np.hstack(fit.coef_matrices)
    z = np.ascontiguousarray(np.concatenate([drive[::-1], start[::-1]]))
    for i in range(n - 1, -1, -1):
        z[i] += wide @ z[i + 1 : i + 1 + fit.p].reshape(-1, *z.shape[2:])
    return z[n - 1 :: -1]


def _scan(fit: VarFit, start: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """The recursion as one inclusive scan of the companion states
    s_h = [y_h; ..; y_{h-p+1}] = C s_{h-1} + J drive_h, J = [I; 0]: with
    u_0 = s_{-1} and u_{h+1} = J drive_h, round r adds C^(2^r) u_{j-2^r} to
    every u_j with j >= 2^r at once (from the u of the round before), so
    after the rounds u_{h+1} = s_h, whose top K rows are y_h. A K x m block
    row is carried transposed, as m rows of width K p, so every round is one
    product of all the rows with (C^(2^r))' and one squaring gives the next
    power."""
    n, k = drive.shape[:2]
    m = drive.shape[2] if drive.ndim == 3 else 1
    width = k * fit.p
    u = np.zeros((n + 1, m, width))
    u[0] = start[::-1].reshape(width, m).T
    u[1:, :, :k] = drive.reshape(n, k, m).transpose(0, 2, 1)
    rows = u.reshape(-1, width)
    power = companion_matrix(fit).T
    reach = 1
    while True:
        rows[reach * m :] += rows[: -reach * m] @ power
        reach *= 2
        if reach > n:
            return u[1:, :, :k].transpose(0, 2, 1).reshape(drive.shape)
        power = power @ power
