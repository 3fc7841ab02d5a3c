"""Johansen trace test for cointegration rank, rank-restricted VECM
estimation, conversion to a levels VAR, and VECM forecasting.

The model is dX_t = sum_i Gamma_i dX_{t-i} + Pi X_{t-1} + mu + e_t with an
unrestricted constant and no trend or seasonal terms. The rank test
concentrates out the lagged differences and the constant, and solves
S10 S00^-1 S01 v = lambda S11 v for the product moments S of the two
residual sets. The eigenvalues are the squared canonical correlations of
those residual sets, that is the squared cosines of the principal angles
between the spaces they span (Björck & Golub 1973, Math. Comp. 27(123);
Golub & Van Loan, Matrix Computations, 4th ed., 6.4.3). They are read off
R, the triangular factor of [z2 | z0 | z1] from one QR, by one small QR
and one K x K SVD; the S matrices are never formed, so the data are never
squared into Gram matrices.

The concentration is the costly part and depends only on the frame and the
lag order, so it is kept for the last (frame, k), keyed by the frame's
content (``Frame`` equality: start, names and every value bit for bit). It
keeps the eigen step, the array [z2 | z0 | z1] and its R. The rank test and
every fit on one panel then share one concentration, and a fit builds and
factors no tall matrix of its own: its design [z2, z1 beta] and target z0
are Q times blocks of R, so the QR of those few rows (one per column of R)
is a QR of [design | z0] (Golub & Van Loan, Matrix Computations, 5.3). The
record is read-only, so a reused result equals a fresh one bit for bit.

R itself has two sources. A lag search (``lag_order_selection``) keeps the
R of its widest design [1 | X_{t-1} .. X_{t-p} | X_t] for the last frame it
searched successfully. When the frame concentrated is that object and
p >= k, the concentration maps the kept R to [z2 | z0 | z1] and takes one
small QR (``_concentrate``); otherwise it factors [z2 | z0 | z1] itself.
Both give an R with the Gram matrix of [z2 | z0 | z1], so after a lag search
of the same frame object a rank test's or fit's results may move at rounding
level against a cold run, and its rank pick does not move short of a trace
statistic within rounding of its critical value. The kept search is matched
by identity, unlike the concentration memo: a frame loaded or built apart
from the searched one, equal or not, is concentrated cold, so a CLI run,
which loads its own copy of the panel, never reads a search made before it.

Results built from a concentration are kept with it. ``fit_vecm`` keeps its
fit per rank on the concentration record, so a second fit of an equal frame
at the same k and r (the rank test's panel, say, refitted by stage 1 of the
shock pipeline) returns the same ``VecmFit``; and a ``VecmFit`` keeps the
levels VAR of ``vecm_to_levels_var``, so ``forecast_vecm``,
``vecm_stability`` and every outside caller share one conversion and the
IRF stacks kept on it. Both are read-only records built from read-only
arrays, so a kept result equals a fresh one bit for bit; a call that raises
keeps nothing. Two threads racing on one record may both build a result;
they keep equal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientDataError, RankError, SingularDesignError
from .numerics import PIVOT_TOL, OlsFit, _as_finite, _factor
from .quarterly import Frame, QuarterIndex, _lag_blocks
from .var import VarFit, forecast_var, freeze_arrays

# 5% critical values for the trace statistic, unrestricted-constant case,
# indexed by K - r.
TRACE_CRIT_5PCT: dict[int, float] = {
    1: 3.76,
    2: 15.41,
    3: 29.68,
    4: 47.21,
    5: 68.52,
    6: 94.15,
    7: 124.24,
    8: 156.00,
    9: 192.89,
    10: 233.13,
    11: 277.71,
    12: 334.98,
}

# Eigenvalues are squared canonical correlations; keep them inside [0, 1) so
# trace statistics stay finite even on exactly collinear inputs.
_EIGENVALUE_CEIL = 1.0 - 1e-12


def trace_statistics(eigenvalues: np.ndarray, t_eff: int) -> np.ndarray:
    """trace_r = -T_eff * sum_{i>r} ln(1 - lambda_i) for r = 0..K-1."""
    lam = _as_finite(eigenvalues, "eigenvalues", ndim=1)
    if np.any(lam < 0) or np.any(lam >= 1):
        raise DomainError("eigenvalues must lie in [0, 1)")
    return _trace_sums(np.log1p(-lam), t_eff)


def _trace_sums(log_complements: np.ndarray, t_eff: int) -> np.ndarray:
    """-T_eff times the sums of ln(1 - lambda_i) over i > r, r = 0..K-1."""
    return -t_eff * np.cumsum(log_complements[::-1])[::-1]


@dataclass(frozen=True)
class JohansenResult:
    """Trace-test output: eigenvalues (descending), trace statistics for
    candidate ranks 0..K-1, aligned 5% critical values, and the sample /
    lag bookkeeping the statistics were computed under."""

    names: tuple[str, ...]
    eigenvalues: np.ndarray
    trace_stats: np.ndarray
    critical_values_5pct: np.ndarray
    t_eff: int
    lags: int
    deterministic: str = "constant"

    @property
    def n_vars(self) -> int:
        return len(self.names)


def _levels_blocks(values: np.ndarray, p: int) -> list[np.ndarray]:
    """The column blocks [1 | X_{t-1} .. X_{t-p} | X_t] over the T - p rows
    from p on: the levels VAR(p) design and target the lag search factors,
    and what ``_vecm_columns`` maps to the rank test's design."""
    return [np.ones((values.shape[0] - p, 1)), *_lag_blocks(values, p), values[p:]]


def _vecm_columns(blocks: list[np.ndarray], k: int) -> np.ndarray:
    """[z2 | z0 | z1] = [1, dX_{t-1} .. dX_{t-k+1} | dX_t | X_{t-1}] from the
    column blocks [1, X_{t-1} .. X_{t-p}, X_t] of a levels design, p >= k,
    by differencing adjacent lag blocks; blocks past lag k are not read.

    The map acts on columns alone: applied to the data's blocks it builds
    the design, and applied to the column blocks of an R with levels
    design = Q R it gives the design's coordinates in the same Q."""
    const, lags, current = blocks[0], blocks[1:-1], blocks[-1]
    diffs = [newer - older for newer, older in zip(lags[: k - 1], lags[1:k])]
    return np.hstack([const, *diffs, current - lags[0], lags[0]])


def _design(frame: Frame, k: int) -> np.ndarray:
    """[z2 | z0 | z1] over the T - k usable rows, with z2 = [1, dX_{t-1} ..
    dX_{t-k+1}], z0 = dX_t and z1 = X_{t-1}: one array, built once from the
    frame's already validated levels blocks in the layout the concentration
    factors."""
    n_vars = frame.n_columns
    t = len(frame)
    if k < 1:
        raise DomainError(f"lag order must be >= 1, got {k}")
    if t - k < n_vars * k + 1:
        raise InsufficientDataError(
            f"{t} rows are too few for the rank machinery with {n_vars} variables "
            f"and {k} lags"
        )
    return _vecm_columns(_levels_blocks(frame.values, k), k)


def _split(xy: np.ndarray, n_vars: int) -> list[np.ndarray]:
    """The z2, z0 and z1 column blocks, as views, of [z2 | z0 | z1] or of its R."""
    n_z2 = xy.shape[1] - 2 * n_vars
    return np.hsplit(xy, [n_z2, n_z2 + n_vars])


class _Search(NamedTuple):
    """A lag search that succeeded: its frame (held, so its identity stays
    its own), its max_lag and the read-only R of its design
    [1 | X_{t-1} .. X_{t-max_lag} | X_t]."""

    frame: Frame
    max_lag: int
    r: np.ndarray


# The last lag search that succeeded, kept by ``_keep_search`` for
# ``_concentrate``; None before the first.
_searched: _Search | None = None


def _keep_search(frame: Frame, max_lag: int, r: np.ndarray) -> None:
    """Keep a lag search's factor in place of the last one."""
    global _searched
    _searched = _Search(frame, max_lag, r)


class _Concentration(NamedTuple):
    """The eigen step of the rank test, the array it came from and that
    array's factor; every array is read-only. ``fits`` holds the result of
    ``fit_vecm`` per rank, filled by its first successful call: a fit
    depends only on this record and the frame's content, which the memo
    key fixes."""

    eigenvalues: np.ndarray  # (K,), descending, clipped to [0, 1)
    log_complements: np.ndarray  # (K,), ln(1 - lambda_i), aligned
    eigenvectors: np.ndarray  # K x K, columns aligned
    t_eff: int
    xy: np.ndarray  # [z2 | z0 | z1], T_eff x (1 + K (k + 1))
    r: np.ndarray  # R of xy
    fits: dict[int, VecmFit]


def _concentrate(frame: Frame, k: int) -> _Concentration:
    """Regress dX_t and X_{t-1} on the constant and the k-1 lagged
    differences and solve the rank test's eigenproblem on the two residual
    sets, all off R of the one array [z2 | z0 | z1].

    Below z2's rows, R holds [R00 R01; 0 R11]: the residuals of z0 are
    Q [R00; 0] and those of z1 are Q [R01; R11] for one orthonormal Q, so
    with T_eff = T - k the product moments are S00 = R00'R00 / T_eff,
    S01 = R00'R01 / T_eff and S11 = (R01'R01 + R11'R11) / T_eff, and none
    is formed. With Q1 R1 the QR of [R01; R11] (2K x K, fewer rows when
    T_eff is below the width of [z2 | z0 | z1]), the residual spaces have
    the orthonormal bases Q [I; 0] and Q Q1, so the canonical correlations
    are the singular values of Q1's first K rows, Q1[:K] = U diag(c) V'.
    The eigenvalues are c^2 and the eigenvectors, normalized to
    v' S11 v = 1, are sqrt(T_eff) R1^-1 V (Björck & Golub 1973). Q1 V has
    orthonormal columns, so 1 - c_i^2 is s_i^2, the squared norm of column
    i of Q1[K:] V: ln(1 - lambda_i) is log1p(-c_i^2) below c_i^2 = 1/2 and
    ln(s_i^2) above, where 1 - c_i^2 would cancel, with s_i^2 held at or
    above 1 - _EIGENVALUE_CEIL as lambda_i is held at or below it. A pivot
    R00[i, i]^2 / T_eff or R1[i, i]^2 / T_eff within PIVOT_TOL, the
    Cholesky pivot test of S00 or S11, raises ``SingularDesignError``
    naming i.

    R has two sources. After a lag search of this frame object up to lag
    p >= k, it is read off the search's kept factor: the search factored
    L = [1 | X_{t-1} .. X_{t-p} | X_t] = Q R_L over rows t >= p, and
    ``_vecm_columns`` maps columns alone, so it takes L to [z2 | z0 | z1]'s
    rows t >= p and R_L to Q' times them, with the same Gram matrix.
    Stacked on the p - k leading rows, which the search's sample leaves
    out, the mapped R_L has the Gram matrix of all of [z2 | z0 | z1], so
    one QR of that small array (at most 1 + K (p + 1) + p - k rows) gives
    an R of it (Golub & Van Loan, Matrix Computations, 5.3). Otherwise R
    comes from the QR of [z2 | z0 | z1] itself. The two differ only by
    rounding.
    """
    n_vars = frame.n_columns
    xy = _design(frame, k)
    t_eff = xy.shape[0]
    n_z2 = xy.shape[1] - 2 * n_vars
    search = _searched
    if search is not None and search.frame is frame and search.max_lag >= k:
        p = search.max_lag
        blocks = np.hsplit(search.r, range(1, 2 + n_vars * p, n_vars))
        stacked = np.vstack([_vecm_columns(blocks, k), xy[: p - k]])
        fit = OlsFit(xy, np.linalg.qr(stacked, mode="r"), n_z2, n_z2)
    else:
        fit = _factor(xy, n_z2)
    below_z2 = fit.augmented_r[n_z2:, n_z2:]
    r00, r1_block = below_z2[:n_vars, :n_vars], below_z2[:, n_vars:]
    _require_pivots(np.diag(r00), t_eff, "S00")
    q1, r1 = np.linalg.qr(r1_block)
    _require_pivots(np.diag(r1), t_eff, "S11")
    _, cosines, vt = np.linalg.svd(q1[:n_vars])
    lam = np.clip(cosines**2, 0.0, _EIGENVALUE_CEIL)
    sines_sq = np.maximum(np.sum((q1[n_vars:] @ vt.T) ** 2, axis=0), 1.0 - _EIGENVALUE_CEIL)
    logs = np.where(lam < 0.5, np.log1p(-lam), np.log(sines_sq))
    vectors = np.sqrt(t_eff) * np.linalg.solve(r1, vt.T)
    for shared in (lam, logs, vectors):
        shared.setflags(write=False)
    return _Concentration(lam, logs, vectors, t_eff, xy, fit.augmented_r, {})


def _require_pivots(diag: np.ndarray, t_eff: int, name: str) -> None:
    """Raise when a pivot diag[i]^2 / T of the product moment R'R / T is
    within PIVOT_TOL, naming the first such i."""
    small = np.flatnonzero(diag**2 / t_eff <= PIVOT_TOL)
    if small.size:
        raise SingularDesignError(f"{name} is singular (pivot {small[0]})")


@lru_cache(maxsize=1)
def _concentration(frame: Frame, k: int) -> _Concentration:
    """``_concentrate`` memoized for the last (frame, k) only, keyed by the
    frame's content, so the rank test and the fits on one panel share one
    concentration. A call that raises caches nothing."""
    return _concentrate(frame, k)


def johansen_trace(frame: Frame, k: int) -> JohansenResult:
    """Run the trace test on a levels frame with lag order k.

    T_eff is frame length minus k; eigenvalues come back descending and the
    trace statistic for each candidate rank is evaluated from them. A frame
    wider than ``TRACE_CRIT_5PCT`` covers raises ``DomainError`` before any
    data check or concentration runs.
    """
    n_vars = frame.n_columns
    if n_vars not in TRACE_CRIT_5PCT:
        raise DomainError(f"no trace critical value for K - r = {n_vars}; table covers 1..12")
    concentration = _concentration(frame, k)
    lam, t_eff = concentration.eigenvalues, concentration.t_eff
    stats = _trace_sums(concentration.log_complements, t_eff)
    crit = np.array([TRACE_CRIT_5PCT[n_vars - r] for r in range(n_vars)])
    return JohansenResult(
        names=frame.names,
        eigenvalues=lam,
        trace_stats=stats,
        critical_values_5pct=crit,
        t_eff=t_eff,
        lags=k,
    )


def select_rank(result: JohansenResult) -> int:
    """Smallest r whose trace statistic falls below its 5% critical value;
    K when every candidate rank is rejected."""
    n_vars = result.n_vars
    for r in range(n_vars):
        if result.trace_stats[r] < result.critical_values_5pct[r]:
            return r
    return n_vars


@dataclass(frozen=True)
class VecmFit:
    """Rank-restricted VECM estimate.

    beta is normalized so the block picked out by ``beta_pivot`` (the first
    r rows whenever they are nonsingular) is exactly the identity; alpha, the
    short-run matrices and the constant come from least squares of dX_t on
    [1, dX lags, beta' X_{t-1}]. Its arrays are read-only.
    """

    rank: int
    names: tuple[str, ...]
    lags: int
    alpha: np.ndarray  # K x r
    beta: np.ndarray  # K x r, normalized
    gammas: tuple[np.ndarray, ...]  # lags - 1 matrices, K x K
    const: np.ndarray  # (K,)
    residuals: np.ndarray  # T_eff x K
    sigma: np.ndarray  # K x K
    sample_start: QuarterIndex
    n_sample: int
    tail: np.ndarray  # lags x K, last levels rows
    beta_pivot: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        freeze_arrays(self)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def pi(self) -> np.ndarray:
        """Long-run matrix alpha @ beta'."""
        return self.alpha @ self.beta.T

    @cached_property
    def _levels_var(self) -> VarFit:
        """The levels VAR of ``vecm_to_levels_var``, built on first read and
        kept; a fit's arrays are read-only, so it stays valid."""
        g = [-(self.pi + np.eye(self.n_vars)), *self.gammas, 0.0]
        return VarFit(
            p=self.lags,
            names=self.names,
            coef_matrices=tuple(b - a for a, b in zip(g, g[1:])),
            const=self.const,
            residuals=self.residuals,
            sigma=self.sigma,
            sample_start=self.sample_start,
            n_sample=self.n_sample,
            tail=self.tail,
        )


def _first_independent_rows(beta: np.ndarray, r: int) -> tuple[int, ...]:
    """First (in row order) set of r rows of beta forming a nonsingular block.

    When the leading r rows have full rank, the greedy search below picks
    exactly them: the singular values of a row subset interlace those of
    the whole, and the rank tolerance shrinks with the largest singular
    value, so every leading prefix has full rank too. One rank check
    decides that common case."""
    if np.linalg.matrix_rank(beta[:r]) == r:
        return tuple(range(r))
    selected: list[int] = []
    for i in range(beta.shape[0]):
        candidate = beta[selected + [i], :]
        if np.linalg.matrix_rank(candidate) == len(selected) + 1:
            selected.append(i)
            if len(selected) == r:
                return tuple(selected)
    raise SingularDesignError("cointegrating vectors do not have full column rank")


def fit_vecm(frame: Frame, k: int, r: int) -> VecmFit:
    """Estimate a VECM of lag order k (in levels) with cointegration rank r.

    r must satisfy 0 < r < K: at r = 0 fit a VAR on differences instead,
    and at r = K fit a VAR in levels.

    The regression of z0 on [z2, z1 beta] is read off the concentration's
    R of [z2 | z0 | z1] = Q R: the design and z0 are Q times
    [R_z2, R_z1 beta, R_z0], so the QR of that small matrix (as many rows as
    R has) is a QR of [design | z0], and no T-row matrix is factored. R_z2
    is already triangular, so that QR leaves the z2 block as it is.

    The fit is kept per rank on the concentration record it reads, so a
    second call for an equal frame, k and r (while the memo holds that
    concentration) returns the same ``VecmFit`` object; a raising call keeps
    nothing.
    """
    n_vars = frame.n_columns
    if not 0 < r < n_vars:
        raise RankError(
            f"rank must lie strictly between 0 and {n_vars}; got {r}. "
            "Use a VAR in differences for r=0 or a levels VAR for r=K."
        )
    concentration = _concentration(frame, k)
    if r in concentration.fits:
        return concentration.fits[r]
    z2, z0, z1 = _split(concentration.xy, n_vars)
    beta_raw = concentration.eigenvectors[:, :r]
    pivot = _first_independent_rows(beta_raw, r)
    beta = beta_raw @ np.linalg.inv(beta_raw[list(pivot), :])
    beta[list(pivot)] = np.eye(r)  # exact, not identity to rounding

    # [1, dX lags, beta'X_{t-1} | dX_t], and the same columns in R's coordinates
    n_z2 = z2.shape[1]
    r_z2, r_z0, r_z1 = _split(concentration.r, n_vars)
    xy = np.hstack([z2, z1 @ beta, z0])
    r_xy = np.linalg.qr(np.hstack([r_z2, r_z1 @ beta, r_z0]), mode="r")
    fit = OlsFit(xy, r_xy, n_z2 + r, n_z2 + r)
    coef = fit.coefficients
    const = coef[0].copy()
    gammas = tuple(coef[1 + n_vars * (i - 1) : 1 + n_vars * i].T.copy() for i in range(1, k))
    alpha = coef[n_z2:].T.copy()

    vfit = VecmFit(
        rank=r,
        names=frame.names,
        lags=k,
        alpha=alpha,
        beta=beta,
        gammas=gammas,
        const=const,
        residuals=fit.residuals,
        sigma=fit.sigma,
        sample_start=frame.start,
        n_sample=len(frame),
        tail=frame.tail_rows(k),
        beta_pivot=pivot,
    )
    concentration.fits[r] = vfit
    return vfit


def vecm_to_levels_var(fit: VecmFit) -> VarFit:
    """Algebraically identical levels VAR(k): A_1 = Pi + I + Gamma_1,
    A_i = Gamma_i - Gamma_{i-1} for 1 < i < k, A_k = -Gamma_{k-1}, that is
    A_i = g_i - g_{i-1} over g = [-(Pi + I), Gamma_1 .. Gamma_{k-1}, 0].

    It is built once per fit and kept on it: every call returns the same
    ``VarFit``, so ``forecast_vecm``, ``vecm_stability`` and the IRF stacks
    kept on that ``VarFit`` are shared by every caller of one fit."""
    return fit._levels_var


def forecast_vecm(fit: VecmFit, horizon: int) -> Frame:
    """Dynamic forecasts from the converted levels VAR, starting one quarter
    after the sample end."""
    return forecast_var(vecm_to_levels_var(fit), horizon)
