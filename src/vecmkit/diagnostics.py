"""Pre- and post-estimation testing: lag-order selection criteria,
multivariate LM residual autocorrelation, the Jarque-Bera normality suite,
the augmented Dickey-Fuller unit-root test, and VECM stability reporting.

All criteria in the lag-selection report are computed on the common sample
implied by the maximum lag, per-observation:

    AIC  = (-2 LL + 2 m) / T_eff            m = K (K j + 1)
    HQIC = (-2 LL + 2 m ln ln T_eff) / T_eff
    SBIC = (-2 LL + m ln T_eff) / T_eff
    FPE  = ((T_eff + m~) / (T_eff - m~))^K |Sigma|,   m~ = K j + 1

with LL the Gaussian log likelihood under the ML covariance divisor. FPE is
picked by its logarithm, K ln((T_eff + m~) / (T_eff - m~)) + ln |Sigma|, so
the pick stands at any data scale; a row's FPE is None where it is not a
positive finite float (|Sigma| overflows or underflows it). The
VAR(j) designs are nested, [1, lags 1..j] being the leading columns of the
max-lag design, so every lag's fit comes from one QR of the max-lag design,
and the log-determinants of all their covariances from one stacked Cholesky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    SingularDesignError,
)
from .numerics import LOG_2PI, _as_count, _as_finite, _cholesky, _factor, chi_square_sf
from .quarterly import Frame, _lag_blocks
from .vecm import VecmFit, _levels_blocks, _shared, vecm_to_levels_var
from .var import stability_moduli

LR_SIGNIFICANCE = 0.05
UNIT_MODULUS_TOL = 1e-6


@dataclass(frozen=True)
class LagCriteriaRow:
    lag: int
    log_likelihood: float
    lr: float | None
    lr_df: int | None
    lr_p: float | None
    fpe: float | None
    aic: float
    hqic: float
    sbic: float


@dataclass(frozen=True)
class LagSelectionReport:
    """Information criteria per candidate lag plus the per-criterion pick."""

    rows: tuple[LagCriteriaRow, ...]
    t_eff: int
    n_vars: int
    selected: dict  # criterion -> lag (LR entry may be None)


def information_criteria(
    log_likelihood: float, lag: int, n_vars: int, t_eff: int
) -> dict[str, float | None]:
    """Per-observation AIC/HQIC/SBIC plus FPE and its logarithm from one
    VAR(j) log likelihood; FPE is None where it is not a positive finite
    float.

    |Sigma| is recovered from the likelihood itself, so the values depend
    only on (LL, j, K, T_eff). T_eff must exceed K j + 1, as in the lag
    search, or ``InsufficientDataError`` is raised.
    """
    lag = _as_count(lag, "lag", 0)
    n_vars = _as_count(n_vars, "n_vars", 1)
    t_eff = _as_count(t_eff, "t_eff", 1)
    mbar = n_vars * lag + 1
    if t_eff <= mbar:
        raise InsufficientDataError(f"t_eff must exceed n_vars * lag + 1 = {mbar}, got {t_eff}")
    m = n_vars * mbar
    lnt = math.log(t_eff)
    ratio = (t_eff + mbar) / (t_eff - mbar)
    log_det_sigma = -2.0 * log_likelihood / t_eff - n_vars * (LOG_2PI + 1.0)
    try:
        fpe = ratio**n_vars * math.exp(log_det_sigma)
    except OverflowError:
        fpe = math.inf
    return {
        "aic": (-2.0 * log_likelihood + 2.0 * m) / t_eff,
        "hqic": (-2.0 * log_likelihood + 2.0 * m * math.log(lnt)) / t_eff,
        "sbic": (-2.0 * log_likelihood + m * lnt) / t_eff,
        "fpe": fpe if 0.0 < fpe < math.inf else None,
        "log_fpe": n_vars * math.log(ratio) + log_det_sigma,
    }


def lag_order_selection(frame: Frame, max_lag: int) -> LagSelectionReport:
    """Fit VAR(j) for j = 0..max_lag on the common sample and report LR,
    FPE, AIC, HQIC and SBIC with the per-criterion selected lag.

    Every VAR(j) is a leading block of one QR of the VAR(max_lag) design,
    and its log likelihood is read off that factor's residual covariance;
    the max_lag + 1 covariances take one stacked Cholesky call, and no
    coefficients or residuals are formed. A search that succeeds keeps that
    factor's read-only R of [1 | X_{t-1} .. X_{t-max_lag} | X_t] in the
    frame's shared work, in place of any search kept there: a rank test or
    VECM fit of that frame object at lag order k <= max_lag then reads its
    own R off it by one small QR (see ``vecm``), and its results may move at
    rounding level against a cold run, though not its rank pick."""
    max_lag = _as_count(max_lag, "max_lag", 1)
    k = frame.n_columns
    t_eff = len(frame) - max_lag
    if t_eff <= k * max_lag + 1:
        raise InsufficientDataError(
            f"{len(frame)} rows are too few to compare lags up to {max_lag}"
        )
    widest = _factor(np.hstack(_levels_blocks(frame.values, max_lag)), 1 + k * max_lag)

    lls = widest.log_likelihoods([1 + k * j for j in range(max_lag + 1)]).tolist()

    rows: list[LagCriteriaRow] = []
    log_fpes: list[float] = []
    prev_ll: float | None = None
    for j, ll in enumerate(lls):
        crit = information_criteria(ll, j, k, t_eff)
        log_fpes.append(crit["log_fpe"])
        if j == 0:
            lr = lr_df = lr_p = None
        else:
            lr = max(2.0 * (ll - prev_ll), 0.0)
            lr_df = k * k
            lr_p = chi_square_sf(lr, lr_df)
        rows.append(
            LagCriteriaRow(
                j, ll, lr, lr_df, lr_p, crit["fpe"], crit["aic"], crit["hqic"], crit["sbic"]
            )
        )
        prev_ll = ll

    def argmin(attr: str) -> int:
        return min(rows, key=lambda r: getattr(r, attr)).lag

    lr_pick = None
    for r in reversed(rows):
        if r.lr_p is not None and r.lr_p < LR_SIGNIFICANCE:
            lr_pick = r.lag
            break
    selected = {
        "aic": argmin("aic"),
        "hqic": argmin("hqic"),
        "sbic": argmin("sbic"),
        "fpe": log_fpes.index(min(log_fpes)),
        "lr": lr_pick,
    }
    _shared(frame)["search"] = max_lag, widest.augmented_r
    return LagSelectionReport(tuple(rows), t_eff, k, selected)


@dataclass(frozen=True)
class LmResult:
    """Multivariate LM autocorrelation test at one residual lag."""

    lag: int
    statistic: float
    df: int
    p_value: float


def _require_variation(sigma: np.ndarray) -> None:
    """Raise unless an ``OlsFit.sigma`` (exactly symmetric, read off a
    factor of finite data) is positive definite."""
    try:
        _cholesky(sigma)
    except NotPositiveDefiniteError as exc:
        raise DegenerateInputError(
            "residuals carry no usable variation (singular covariance)"
        ) from exc


def lm_autocorrelation(
    residuals: np.ndarray,
    lag: int,
    design: np.ndarray | None = None,
) -> LmResult:
    """Johansen-style LM test: auxiliary regression of the residuals on the
    original regressors (a constant when none are given) plus the residuals
    lagged ``lag``, with missing initial lags zero-filled.

    statistic = (T - m - (K+1)/2) (K - tr(S_r^-1 S_u)), chi-square with K^2
    degrees of freedom, where S_r and S_u are the restricted / unrestricted
    auxiliary residual covariances and m the unrestricted regressor count.

    The design [base, lagged] is factored once. Householder QR treats the
    columns in order, so the restricted covariance is read off the same R,
    below its first ``base`` rows, and equals a separate fit's on ``base``
    to rounding; R's pivots there passed the full design's rank check.
    Both covariances are read off the factor, so no auxiliary residuals
    are formed. When the full design cannot be fitted, the restricted fit
    alone decides the error, so residuals with a singular covariance are
    reported as degenerate, as a separate fit would report them.
    """
    u = _as_finite(residuals, "residuals")
    t, k = u.shape
    lag = _as_count(lag, "lag", 1)
    if t <= lag + k + 1:
        raise InsufficientDataError(f"{t} residual rows are too few for lag {lag}")

    base = np.ones((t, 1)) if design is None else _as_finite(design, "design")
    if base.shape[0] != t:
        raise DomainError("design must have one row per residual row")
    # [base, residuals lagged with zero-filled initial rows | residuals]
    n_base = base.shape[1]
    m = n_base + k
    xy = np.zeros((t, m + k))
    xy[:, :n_base] = base
    xy[lag:, n_base:m] = u[:-lag]
    xy[:, m:] = u

    # a covariance that overflows is rejected by _require_variation as
    # non-finite, so numpy's overflow warning is not raised first
    with np.errstate(over="ignore"):
        try:
            unrestricted = _factor(xy, m)
        except (SingularDesignError, InsufficientDataError):
            _require_variation(_factor(np.hstack([base, u]), n_base).sigma)
            raise
        restricted = unrestricted._sigma(n_base)
    _require_variation(restricted)

    trace = float(np.trace(np.linalg.solve(restricted, unrestricted.sigma)))
    statistic = max((t - m - 0.5 * (k + 1)) * (k - trace), 0.0)
    df = k * k
    return LmResult(lag=lag, statistic=statistic, df=df, p_value=chi_square_sf(statistic, df))


def jarque_bera_components(
    skewness: float, kurtosis: float, n_eff: int
) -> tuple[float, float, float]:
    """(skewness chi2, kurtosis chi2, JB) = (n S^2/6, n (kappa-3)^2/24, sum)."""
    skew_chi2 = n_eff * skewness**2 / 6.0
    kurt_chi2 = n_eff * (kurtosis - 3.0) ** 2 / 24.0
    return skew_chi2, kurt_chi2, skew_chi2 + kurt_chi2


@dataclass(frozen=True)
class EquationNormality:
    name: str
    skewness: float
    kurtosis: float
    skew_chi2: float
    skew_p: float
    kurt_chi2: float
    kurt_p: float
    jb: float
    jb_p: float


@dataclass(frozen=True)
class NormalityReport:
    """Per-equation and joint Jarque-Bera suite on orthogonalized residuals."""

    rows: tuple[EquationNormality, ...]
    n_eff: int
    joint: dict  # skew_chi2/kurt_chi2/jb summed over equations, with df and p


def _require_labels(names, k: int) -> tuple:
    try:
        labels = tuple(names)
    except TypeError:
        labels = None
    if labels is None or len(labels) != k:
        raise DomainError(f"names must hold one label per residual column ({k}), got {names!r}")
    return labels


def normality_suite(
    residuals: np.ndarray,
    n_eff: int | None = None,
    names: tuple[str, ...] | None = None,
) -> NormalityReport:
    """Skewness/kurtosis/Jarque-Bera per equation on T x K residuals that
    are centered then orthogonalized through the Cholesky factor of their ML
    covariance; the joint statistics sum across the K equations, on K
    degrees of freedom (2K for JB). ``names``, when given, holds one label
    per residual column, and ``n_eff`` must be a whole number."""
    u = _as_finite(residuals, "residuals")
    t, k = u.shape
    n = t if n_eff is None else _as_count(n_eff, "n_eff")
    if n < 8:
        raise InsufficientDataError(f"need n_eff >= 8, got {n}")
    labels = tuple(f"eq{i + 1}" for i in range(k)) if names is None else _require_labels(names, k)
    centered = u - u.mean(axis=0)
    # a cross-product that overflows is rejected by _cholesky as non-finite
    with np.errstate(over="ignore"):
        sigma = centered.T @ centered / t
        sigma = 0.5 * (sigma + sigma.T)
    try:
        lower = _cholesky(sigma)
    except NotPositiveDefiniteError as exc:
        raise DegenerateInputError(
            f"residual column {exc.pivot} has (near) zero variance"
        ) from exc
    # One row per equation: each row's mean reduces contiguous memory, as a
    # mean over one column of w would, so the moments match it bit for bit.
    wt = np.ascontiguousarray(np.linalg.solve(lower, centered.T))
    skewness = (wt**3).mean(axis=1).tolist()
    kurtosis = (wt**4).mean(axis=1).tolist()

    rows = []
    for label, s, kappa in zip(labels, skewness, kurtosis):
        skew_chi2, kurt_chi2, jb = jarque_bera_components(s, kappa, n)
        rows.append(
            EquationNormality(
                name=label,
                skewness=s,
                kurtosis=kappa,
                skew_chi2=skew_chi2,
                skew_p=chi_square_sf(skew_chi2, 1),
                kurt_chi2=kurt_chi2,
                kurt_p=chi_square_sf(kurt_chi2, 1),
                jb=jb,
                jb_p=chi_square_sf(jb, 2),
            )
        )
    skew_chi2 = sum(r.skew_chi2 for r in rows)
    kurt_chi2 = sum(r.kurt_chi2 for r in rows)
    jb = sum(r.jb for r in rows)
    joint = {
        "skew_chi2": skew_chi2,
        "skew_df": k,
        "skew_p": chi_square_sf(skew_chi2, k),
        "kurt_chi2": kurt_chi2,
        "kurt_df": k,
        "kurt_p": chi_square_sf(kurt_chi2, k),
        "jb": jb,
        "jb_df": 2 * k,
        "jb_p": chi_square_sf(jb, 2 * k),
    }
    return NormalityReport(tuple(rows), n, joint)


# Asymptotic Dickey-Fuller critical values (1%, 5%, 10%) per deterministic
# specification.
ADF_CRITICAL_VALUES: dict[str, tuple[float, float, float]] = {
    "none": (-2.56574, -1.94100, -1.61682),
    "constant": (-3.43035, -2.86154, -2.56677),
    "constant+trend": (-3.95877, -3.41049, -3.12705),
}


@dataclass(frozen=True)
class AdfResult:
    """Augmented Dickey-Fuller unit-root test outcome."""

    statistic: float
    lags: int
    spec: str
    critical_values: dict  # {1: cv, 5: cv, 10: cv}
    nobs: int
    reject_5pct: bool  # statistic below the 5% critical value


def adf_test(series, lags: int, spec: str = "constant") -> AdfResult:
    """Regress dy_t, for the 1-D array-like ``series`` y, on y_{t-1}, lagged
    differences, and deterministic terms; the statistic is the y_{t-1}
    coefficient over its standard error. The regression is one
    least-squares fit, so a rank-deficient design (an exact trend, say)
    raises ``SingularDesignError``, and an exact fit of the differences
    raises ``DegenerateInputError``."""
    y = _as_finite(series, "series", ndim=1)
    lags = _as_count(lags, "lags", 0)
    if spec not in ADF_CRITICAL_VALUES:
        raise DomainError(
            f"spec must be one of {sorted(ADF_CRITICAL_VALUES)}, got {spec!r}"
        )
    t = y.size
    if t <= lags + 8:
        raise InsufficientDataError(f"series length {t} too short for {lags} lags")
    if np.ptp(y) == 0.0:
        raise DegenerateInputError("constant series has no unit-root structure to test")

    dy = np.diff(y)[:, None]
    n = t - 1 - lags
    cols = [y[lags : t - 1, None], *_lag_blocks(dy, lags)]
    if spec in ("constant", "constant+trend"):
        cols.append(np.ones((n, 1)))
    if spec == "constant+trend":
        cols.append(np.arange(1.0, n + 1.0)[:, None])
    target = dy[lags:]
    n_x = sum(c.shape[1] for c in cols)

    fit = _factor(np.hstack([*cols, target]), n_x)
    rss = float(fit.sigma[0, 0]) * n
    # An exact fit leaves a residual sum of squares below the rounding error
    # of the target's own sum of squares, and a statistic made of rounding
    # noise; on 2,000 random walks of 69 points (lags 0-4) the smallest ratio
    # of the two was 0.62.
    if rss <= n * np.finfo(float).eps * float(target[:, 0] @ target[:, 0]):
        raise DegenerateInputError("ADF regression has a degenerate exact fit")
    s2 = rss / (n - n_x)
    r = fit.r  # (X'X)^-1 = R^-1 R^-T
    rinv = np.linalg.solve(r, np.eye(r.shape[0]))
    se = math.sqrt(s2 * float((rinv @ rinv.T)[0, 0]))
    stat = float(fit.coefficients[0, 0]) / se

    one, five, ten = ADF_CRITICAL_VALUES[spec]
    return AdfResult(
        statistic=stat,
        lags=lags,
        spec=spec,
        critical_values={1: one, 5: five, 10: ten},
        nobs=n,
        reject_5pct=stat < five,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Companion-moduli check of a converted VECM: PASS iff exactly K - r
    moduli sit on the unit circle and the rest lie strictly inside."""

    moduli: np.ndarray
    unit_count: int
    expected_unit_count: int
    passed: bool


def vecm_stability(fit: VecmFit) -> StabilityReport:
    """Moduli of the converted levels VAR companion matrix, with the
    unit-root count compared against K - r."""
    moduli = stability_moduli(vecm_to_levels_var(fit))
    is_unit = np.abs(moduli - 1.0) <= UNIT_MODULUS_TOL
    unit_count = int(np.sum(is_unit))
    expected = fit.n_vars - fit.rank
    others_inside = bool(np.all(moduli[~is_unit] < 1.0))
    return StabilityReport(
        moduli=moduli,
        unit_count=unit_count,
        expected_unit_count=expected,
        passed=(unit_count == expected) and others_inside,
    )
