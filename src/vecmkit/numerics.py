"""Dense linear-algebra and distribution primitives shared by the estimators.

Least squares factors the augmented matrix [X | Y] once, by one LAPACK
Householder QR (conditioning of near-collinear macro panels), and keeps only
the triangular factor R; no Q is formed. Q'[X | Y] = R, so the blocks of R
hold everything a fit on the first m columns of X needs: the leading m x m
block factors X[:, :m], the block beside it is the leading part of Q'Y, and
the trailing block of the Y columns, rows m onward, has the residual
cross-product as its Gram matrix. Residual covariances are read off R
without forming residuals, and nested models such as the VAR(j) of a lag
search, or the restricted and unrestricted fits of an LM test, all come
from one factorization of the widest design.

There is one factor step, ``_factor``, with two ways in. The estimators
build each design once, as one [X | Y] array in the layout that is
factored, and hand it over; ``ols(y, x)`` is the validating way in for
arrays from outside, which checks that they are finite and conformable and
copies them into one [X | Y] first.

Cholesky factors come from LAPACK, one batched call for a (..., n, n)
stack, so the log-determinants of many covariances (the lag search's, say)
cost one call. Positive definiteness is decided by pivots exceeding 1e-12,
and every failure takes one path: the slices LAPACK leaves in doubt (all of
them when it fails, else those whose smallest pivot is within that
tolerance) go, in order, through one column-by-column pivot search, which
names the first failing slice and pivot. Symmetry is checked per slice at
1e-8 relative tolerance.

Every array from outside the program comes in through one converter,
``_as_finite``: the public functions here, the residual diagnostics, the
ADF test, the trace statistics and the artifact decoder all take their
array arguments through it, so non-numeric, non-finite or misshapen input
raises ``DomainError`` naming the argument. (``quarterly``'s frames keep
their own ``NonNumericCellError`` family, raised by the same one cast,
``_float_array``.)
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    SingularDesignError,
)

SYMMETRY_RTOL = 1e-8
PIVOT_TOL = 1e-12

LOG_2PI = math.log(2.0 * math.pi)


def _float_array(a, error: type[Exception], name: str) -> np.ndarray:
    """``a`` read once as an array and cast to float: the one cast of input
    from outside. Complex entries, whose cast would drop the imaginary part,
    and entries with no float value raise ``error`` naming ``name``. An
    object array is tested for complex entries by the dtype numpy infers
    for its elements, so NumPy complex scalars are caught there too."""
    try:
        raw = np.asarray(a)
        if (np.array(raw.tolist()) if raw.dtype == object else raw).dtype.kind == "c":
            raise error(f"{name} must be real, got complex entries")
        return raw.astype(float, copy=False)
    except (TypeError, ValueError):
        raise error(f"{name} must be numeric") from None


def _as_finite(a, name: str, ndim: int = 2, stacked: bool = False) -> np.ndarray:
    """``a`` as a finite float array of ``ndim`` dimensions, or of more when
    ``stacked`` (a (..., n, n) stack of matrices, say): the one way in for
    arrays from outside, so bad input (complex input included) raises
    ``DomainError`` naming ``name``."""
    out = _float_array(a, DomainError, name)
    if out.ndim != ndim and not (stacked and out.ndim > ndim):
        raise DomainError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{name} contains non-finite entries")
    return out


def _require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """The symmetric part of a matrix or of each slice of a stack, after
    checking each is symmetric relative to its own largest entry."""
    if a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    if (np.abs(a - at).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale).any():
        raise DomainError(f"{name} is not symmetric within tolerance")
    return 0.5 * (a + at)


class OlsFit:
    """Equation-by-equation least squares fit of Y on the first m columns of X.

    The fit holds a read-only [X | Y] (T x (n + K), X first) and R,
    the upper-triangular factor of its Householder QR; Q is never formed.
    Because Q'[X | Y] = R, the rows of R split at m give every fit on a
    leading block of X:

    - ``R[:m, :m]`` is the triangular factor of X[:, :m], and ``R[:m, n:]``
      is the leading part of Q'Y, so the coefficients are the triangular
      solve of the one against the other;
    - the trailing block ``tail = R[m:, n:]`` holds the coordinates of the
      residuals in the orthogonal complement of X[:, :m], so
      ``tail' tail = E'E`` for the residual matrix E (Golub & Van Loan,
      Matrix Computations, 5.3).

    sigma is therefore read off R with the maximum-likelihood divisor T,
    and coefficients and residuals are computed only when first read. Every
    array the fit returns is read-only. ``log_likelihoods`` gives the
    Gaussian profile likelihood -(T/2)(K ln 2pi + K + ln|sigma|) of several
    leading fits from one stacked Cholesky, and ``log_likelihood`` is its
    one-width case; both raise on a degenerate (singular) sigma rather than
    returning -inf.

    R may come from any Q with orthonormal columns such that [X | Y] = Q R,
    not only from ``_factor``'s own QR: the blocks above hold for every such R.
    The fit marks the [X | Y] and R it is given read-only.
    """

    def __init__(self, xy: np.ndarray, r: np.ndarray, n_x: int, m: int):
        diag = np.abs(np.diag(r)[:m])
        if diag.min() <= max(xy.shape[0], m) * np.finfo(float).eps * max(diag.max(), 1.0):
            raise SingularDesignError(
                f"design matrix is rank deficient (column pivot {int(diag.argmin())})"
            )
        self._xy = _read_only(xy)  # [X | Y]
        self._r = _read_only(r)  # R of the QR of [X | Y]
        self._n_x = n_x  # columns of X in [X | Y]
        self._m = m  # regressors of this fit: the first m columns of X

    @property
    def nobs(self) -> int:
        return int(self._xy.shape[0])

    @property
    def r(self) -> np.ndarray:
        """The m x m upper-triangular factor of the design: X'X = R'R."""
        return self._r[: self._m, : self._m]

    @property
    def augmented_r(self) -> np.ndarray:
        """The read-only upper-triangular factor of all of [X | Y]."""
        return self._r

    def _sigma(self, m: int) -> np.ndarray:
        """sigma of the fit on the first m columns of X, off R's trailing block."""
        tail = self._r[m:, self._n_x :]
        s = tail.T @ tail / self.nobs
        return 0.5 * (s + s.T)

    @cached_property
    def sigma(self) -> np.ndarray:  # K x K
        return _read_only(self._sigma(self._m))

    @cached_property
    def coefficients(self) -> np.ndarray:  # m x K
        m = self._m
        return _read_only(np.linalg.solve(self._r[:m, :m], self._r[:m, self._n_x :]))

    @cached_property
    def residuals(self) -> np.ndarray:  # T x K
        y = self._xy[:, self._n_x :]
        return _read_only(y - self._xy[:, : self._m] @ self.coefficients)

    def log_likelihoods(self, widths) -> np.ndarray:
        """Log likelihoods of the fits on the first m columns of X, one per m
        in ``widths``: their sigmas, each read off R's trailing block below
        row m, are stacked and take one Cholesky call."""
        sigmas = np.stack([self._sigma(m) for m in widths])
        t, k = self.nobs, sigmas.shape[-1]
        try:
            ld = log_det(sigmas)
        except NotPositiveDefiniteError as exc:
            raise DegenerateInputError(
                "residual covariance is singular; log likelihood undefined "
                "(exact fit or collinear targets)"
            ) from exc
        return -0.5 * t * (k * LOG_2PI + k + ld)

    @cached_property
    def log_likelihood(self) -> float:
        return float(self.log_likelihoods([self._m])[0])

    def leading(self, m: int) -> "OlsFit":
        """The fit of Y on the first m columns of X: a view on the same R.

        Householder QR treats the columns in order, so the leading blocks of
        R factor X[:, :m] and its trailing block gives that fit's residual
        cross-product; the result matches ``ols(Y, X[:, :m])`` to rounding.
        """
        if not 1 <= m <= self._n_x:
            raise DomainError(f"leading width must lie in 1..{self._n_x}, got {m}")
        return OlsFit(self._xy, self._r, self._n_x, m)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _factor(xy: np.ndarray, n_x: int) -> OlsFit:
    """The fit of the last columns of ``xy`` on its first ``n_x``: the one
    factor step behind every least-squares fit.

    ``xy`` is a finite float [X | Y] that the caller built for this fit and
    hands over: it is kept, not copied, and the ``OlsFit`` marks it
    read-only. Raises on too few rows and on rank deficiency.
    """
    t = xy.shape[0]
    if t <= n_x:
        raise InsufficientDataError(f"need more observations ({t}) than regressors ({n_x})")
    return OlsFit(xy, np.linalg.qr(xy, mode="r"), n_x, n_x)


def ols(y, x) -> OlsFit:
    """Multivariate least squares via one QR of [X | Y]; raises on rank
    deficiency.

    The validating way into ``_factor``: Y and X must be finite matrices
    with equal row counts, and are copied into one [X | Y], so later writes
    to the caller's arrays change nothing. ``fit.leading(m)`` gives the fit
    on the first m regressors without factoring again.
    """
    y = _as_finite(y, "Y")
    x = _as_finite(x, "X")
    if y.shape[0] != x.shape[0]:
        raise DomainError(f"Y has {y.shape[0]} rows but X has {x.shape[0]}")
    return _factor(np.hstack([x, y]), x.shape[1])


def cholesky_lower(a) -> np.ndarray:
    """Lower-triangular L with L L' = A; reports the failing pivot otherwise.

    A may be a (..., n, n) stack, factored by one batched LAPACK call; when
    no slice is flagged, each slice of the result equals a call on that
    slice alone. Every failure takes one path. When LAPACK fails, every
    slice is flagged, since it does not say which one failed; otherwise a
    slice is flagged when its smallest pivot diag(L)^2 is within PIVOT_TOL.
    The flagged slices go, in order, through the pivot search below, which
    factors each or raises, so a rejected input names the same pivot
    whichever way it was found, and a stack names its first failing slice.
    """
    a = _require_symmetric(_as_finite(a, "A", stacked=True), "A")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        lower, flagged = np.empty_like(a), np.ones(a.shape[:-2], dtype=bool)
    else:
        flagged = lower.diagonal(0, -2, -1).min(axis=-1) ** 2 <= PIVOT_TOL
        if not flagged.any():
            return lower
    for at in np.ndindex(flagged.shape):
        if flagged[at]:
            lower[at] = _cholesky_pivots(a[at], at)
    return lower


def _cholesky_pivots(a: np.ndarray, at: tuple = ()) -> np.ndarray:
    """Column-by-column Cholesky that raises at the first pivot <= PIVOT_TOL;
    ``at`` is the slice's index in a stack, named in the error."""
    n = a.shape[0]
    lower = np.zeros_like(a)
    where = f" (slice {', '.join(map(str, at))})" if at else ""
    for j in range(n):
        d = a[j, j] - lower[j, :j] @ lower[j, :j]
        if d <= PIVOT_TOL:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite{where}: pivot {j} = {d:.3e}", pivot=j
            )
        lower[j, j] = math.sqrt(d)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def generalized_symmetric_eigen(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Solve A v = lambda B v for symmetric A and SPD B.

    B is reduced through its Cholesky factor to a standard symmetric
    eigenproblem, which guarantees real eigenvalues. Returns
    ``(eigenvalues, eigenvectors)``: the eigenvalues in descending order and
    the n x n eigenvectors as columns aligned with them.
    """
    a = _require_symmetric(_as_finite(a, "A"), "A")
    b = _as_finite(b, "B")
    if a.shape != b.shape:
        raise DomainError(f"A {a.shape} and B {b.shape} must have equal shape")
    lower = cholesky_lower(b)
    # C = L^-1 A L^-T, via two triangular solves
    tmp = np.linalg.solve(lower, a)
    c = np.linalg.solve(lower, tmp.T).T
    c = 0.5 * (c + c.T)
    vals, vecs = np.linalg.eigh(c)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = np.linalg.solve(lower.T, vecs[:, order])
    return vals, vecs


def log_det(a) -> float | np.ndarray:
    """ln|A| for positive-definite A, via 2 * sum(ln diag(chol(A))); a
    (..., n, n) stack gives the array of its slices' values from one
    ``cholesky_lower`` call."""
    lower = cholesky_lower(a)
    ld = 2.0 * np.sum(np.log(lower.diagonal(0, -2, -1)), axis=-1)
    return float(ld) if lower.ndim == 2 else ld


def eigen_moduli(a) -> np.ndarray:
    """Moduli of all (possibly complex) eigenvalues, descending."""
    a = _as_finite(a, "A")
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    Computed as the regularized upper incomplete gamma Q(df/2, x/2) using a
    power series for small arguments and a continued fraction otherwise;
    absolute accuracy is far below the 1e-6 contract.
    """
    try:
        if not math.isfinite(x) or x < 0:
            raise DomainError(f"chi-square statistic must be >= 0, got {x}")
        if df < 1 or df % 1:
            raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    except TypeError:
        raise DomainError(
            f"chi-square needs a real statistic and integer degrees of freedom, got {x!r}, {df!r}"
        ) from None
    return _regularized_gamma_q(df / 2.0, x / 2.0)


def _regularized_gamma_q(s: float, z: float) -> float:
    if z == 0.0:
        return 1.0
    if z < s + 1.0:
        return 1.0 - _gamma_p_series(s, z)
    return _gamma_q_contfrac(s, z)


def _gamma_p_series(s: float, z: float, max_iter: int = 500) -> float:
    # P(s, z) = z^s e^-z / Gamma(s) * sum_n z^n / (s(s+1)...(s+n))
    term = 1.0 / s
    total = term
    a = s
    for _ in range(max_iter):
        a += 1.0
        term *= z / a
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-z + s * math.log(z) - math.lgamma(s))


def _gamma_q_contfrac(s: float, z: float, max_iter: int = 500) -> float:
    # Q(s, z) via the Lentz continued fraction 1/(z+1-s- 1(1-s)/(z+3-s- ...))
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-z + s * math.log(z) - math.lgamma(s))
