"""Dense linear-algebra and distribution primitives shared by the estimators.

Least squares factors the augmented matrix [X | Y] once, by one LAPACK
Householder QR (conditioning of near-collinear macro panels), and keeps only
the triangular factor R; no Q is formed. Q'[X | Y] = R, so the blocks of R
hold everything a fit on the first m columns of X needs: the leading m x m
block factors X[:, :m], the block beside it is the leading part of Q'Y, and
the trailing block of the Y columns, rows m onward, has the residual
cross-product as its Gram matrix. Residual covariances are read off R
without forming residuals, so the covariances of nested models, such as the
VAR(j) of a lag search or the restricted fit of an LM test, all come from
one factorization of the widest design.

There is one factor step, ``_factor``, with two ways in. The estimators
build each design once, as one [X | Y] array in the layout that is
factored, and hand it over; ``ols(y, x)`` is the validating way in for
arrays from outside, which checks that they are finite and conformable and
copies them into one [X | Y] first.

Cholesky factors come from one step, ``_cholesky``: LAPACK, one batched
call for a (..., n, n) stack, so the log-determinants of many covariances
(the lag search's, say) cost one call. Positive definiteness is decided by
pivots exceeding 1e-12, and every failure takes one path: the slices LAPACK
leaves in doubt (all of them when it fails, else those whose smallest pivot
is within that tolerance) go, in order, through one column-by-column pivot
search, which names the first failing slice and pivot. The step takes
exactly symmetric slices and checks only that they are finite, since a
covariance built from finite data can still overflow. ``cholesky_lower`` is
its validating way in: it converts its argument through ``_as_finite``,
checks symmetry per slice at 1e-8 relative tolerance and factors the
symmetric part. The callers that build their covariance in the same call
use the step directly:

- ``OlsFit.log_likelihoods`` (the lag search), whose sigmas are read off R
  of a finite [X | Y] and symmetrized as 0.5 (S + S');
- ``diagnostics.lm_autocorrelation``, whose restricted sigma is read off
  the unrestricted fit's R the same way;
- ``diagnostics.normality_suite``, whose covariance is the cross-product of
  residuals it checked finite, symmetrized explicitly rather than trusting
  BLAS to return an exactly symmetric product.

``irf`` keeps the validating call: a ``VarFit`` is a public record anyone
can build, so its sigma is input from outside.

The chi-square tail, ``chi_square_sf``, is one family of Poisson-type terms
for the integer degrees of freedom every test passes, summed upward where
the tail is near 1 and downward from its largest term otherwise, so it has
no iteration cap.

Every array from outside the program comes in through one converter,
``_as_finite``: the public functions here, the residual diagnostics, the
ADF test and the trace statistics all take their array arguments through
it, so non-numeric, non-finite or misshapen input raises ``DomainError``
naming the argument. (``quarterly``'s frames keep their own
``NonNumericCellError`` family, raised by the same one cast,
``_float_array``.) Every count from outside (a lag order, a horizon, a
rank) comes in through ``_as_count``, so a fraction, a string or None
raises ``DomainError`` naming it rather than numpy's or Python's own error.
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


def _as_count(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an ``int``: a whole number (an int, a NumPy integer or a
    float such as 2.0) of at least ``minimum`` when one is given, or
    ``DomainError`` naming ``name``."""
    try:
        count = int(value) if value % 1 == 0 else None
    except (TypeError, ValueError):
        count = None
    if count is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {count}")
    return count


def _require_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    """The symmetric part of a matrix or of each slice of a stack, after
    checking each is symmetric relative to its own largest entry; an exactly
    symmetric input is returned as it is."""
    if a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    # 0.5 (a + a') of an exactly symmetric a is a itself, bit for bit, short
    # of entries so large that a + a' overflows
    if (a == at).all():
        return a
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    if (np.abs(a - at).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale).any():
        raise DomainError(f"{name} is not symmetric within tolerance")
    return 0.5 * (a + at)


class OlsFit:
    """Equation-by-equation least squares fit of Y on all of X.

    The fit holds a read-only [X | Y] (T x (n + K), X first) and R,
    the upper-triangular factor of its Householder QR; Q is never formed.
    Because Q'[X | Y] = R, the rows of R split at n give the fit:

    - ``R[:n, :n]`` is the triangular factor of X, and ``R[:n, n:]`` is the
      leading part of Q'Y, so the coefficients are the triangular solve of
      the one against the other;
    - the trailing block ``tail = R[n:, n:]`` holds the coordinates of the
      residuals in the orthogonal complement of X, so ``tail' tail = E'E``
      for the residual matrix E (Golub & Van Loan, Matrix Computations,
      5.3).

    sigma is therefore read off R with the maximum-likelihood divisor T,
    and coefficients and residuals are computed only when first read. Every
    array the fit returns is read-only. Householder QR treats the columns
    in order, so the same split at m < n gives the fit on the first m
    columns of X: ``log_likelihoods`` gives the Gaussian profile likelihood
    -(T/2)(K ln 2pi + K + ln|sigma|) of several such leading fits from one
    stacked Cholesky, and raises on a degenerate (singular) sigma rather
    than returning -inf.

    R may come from any Q with orthonormal columns such that [X | Y] = Q R,
    not only from ``_factor``'s own QR: the blocks above hold for every such R.
    The fit marks the [X | Y] and R it is given read-only.
    """

    def __init__(self, xy: np.ndarray, r: np.ndarray, n_x: int):
        # Column j of R has the norm of column j of X, so each pivot is
        # weighed against its own column's norm and no column's scale
        # swamps another's. A norm that overflows is infinite: a column too
        # large to square is flagged here, not left to overflow sigma. Every
        # caller has more rows T than columns of X, so the tolerance is
        # T eps.
        head = r[:n_x, :n_x]
        tol = len(xy) * np.finfo(float).eps
        with np.errstate(over="ignore"):
            small = np.abs(head.diagonal()) <= tol * np.sqrt(np.einsum("ij,ij->j", head, head))
        if small.any():
            raise SingularDesignError(
                f"design matrix is rank deficient (column pivot {small.argmax()})"
            )
        self._xy = _read_only(xy)  # [X | Y]
        self._r = _read_only(r)  # R of the QR of [X | Y]
        self._n_x = n_x  # columns of X in [X | Y]

    @property
    def nobs(self) -> int:
        return self._xy.shape[0]

    @property
    def r(self) -> np.ndarray:
        """The n x n upper-triangular factor of the design: X'X = R'R."""
        return self._r[: self._n_x, : self._n_x]

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
        return _read_only(self._sigma(self._n_x))

    @cached_property
    def coefficients(self) -> np.ndarray:  # n x K
        n = self._n_x
        return _read_only(np.linalg.solve(self._r[:n, :n], self._r[:n, n:]))

    @cached_property
    def residuals(self) -> np.ndarray:  # T x K
        n = self._n_x
        return _read_only(self._xy[:, n:] - self._xy[:, :n] @ self.coefficients)

    def log_likelihoods(self, widths) -> np.ndarray:
        """Log likelihoods of the fits on the first m columns of X, one per m
        in ``widths``: their sigmas, each read off R's trailing block below
        row m, are stacked and take one Cholesky call."""
        sigmas = np.stack([self._sigma(m) for m in widths])
        t, k = self.nobs, sigmas.shape[-1]
        try:
            ld = _log_det(_cholesky(sigmas))
        except NotPositiveDefiniteError as exc:
            raise DegenerateInputError(
                "residual covariance is singular; log likelihood undefined "
                "(exact fit or collinear targets)"
            ) from exc
        return -0.5 * t * (k * LOG_2PI + k + ld)


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
    return OlsFit(xy, np.linalg.qr(xy, mode="r"), n_x)


def ols(y, x) -> OlsFit:
    """Multivariate least squares via one QR of [X | Y]; raises on rank
    deficiency.

    The validating way into ``_factor``: Y and X must be finite matrices
    with equal row counts, and are copied into one [X | Y], so later writes
    to the caller's arrays change nothing.
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
    slice alone. A is input from outside: it must be finite and each slice
    symmetric within SYMMETRY_RTOL, and its symmetric part is factored by
    ``_cholesky``.
    """
    return _cholesky(_require_symmetric(_as_finite(a, "A", stacked=True), "A"))


def _cholesky(a: np.ndarray) -> np.ndarray:
    """The one Cholesky step, for a float (..., n, n) stack whose slices are
    exactly symmetric; callers that built ``a`` themselves call it directly.

    Entries that overflowed while ``a`` was built are still caught: a
    non-finite ``a`` raises the ``DomainError`` that ``cholesky_lower``
    gives. Every failure takes one path. When LAPACK fails, every slice is
    flagged, since it does not say which one failed; otherwise a slice is
    flagged when its smallest pivot diag(L)^2 is within PIVOT_TOL. The
    flagged slices go, in order, through the pivot search below, which
    factors each or raises, so a rejected input names the same pivot
    whichever way it was found, and a stack names its first failing slice.
    """
    if not np.isfinite(a).all():
        raise DomainError("A contains non-finite entries")
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


def _log_det(lower: np.ndarray) -> np.ndarray:
    """2 * sum(ln diag(L)) of each slice of a Cholesky factor stack."""
    return 2.0 * np.sum(np.log(lower.diagonal(0, -2, -1)), axis=-1)


def eigen_moduli(a) -> np.ndarray:
    """Moduli of all (possibly complex) eigenvalues, descending."""
    a = _as_finite(a, "A")
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability Q(df/2, x/2) of the chi-square distribution.

    With z = x/2, s = df/2 and the Poisson-type terms
    u(a) = e^-z z^a / Gamma(a + 1), each at most 1, an integer df gives
    (Abramowitz & Stegun 26.4.4-26.4.5)

        Q = sum of u(a) over a = s-1, s-2, ... >= 0, plus erfc(sqrt z) for odd df,
        P = 1 - Q = sum of u(a) over a = s, s+1, ...

    Below z = s + 1 the result is 1 - P, summed upward by
    u(a+1) = u(a) z/(a+1), a ratio below 1; otherwise Q, summed downward
    from its largest term by u(a-1) = u(a) a/z, at most ceil(df/2) terms.
    Each sum starts from a term taken in log space and stops once a term
    no longer changes it. Returning 1 - P where Q is near 1 keeps the
    result non-increasing in x and at most 1. Against 50-digit mpmath, on
    tails of at least 1e-290 with x lognormal about df, the worst relative
    error is 8.4e-14 over df 1..144 and 1.8e-12 over df 145..2000.
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
    z, s = x / 2.0, df / 2.0
    if z == 0.0:
        return 1.0
    upward = z < s + 1.0
    a = s if upward else s - 1.0
    term = math.exp(a * math.log(z) - z - math.lgamma(a + 1.0))
    total = 0.0
    while a >= 0 and total + term != total:
        total += term
        if upward:
            a += 1.0
            term *= z / a
        else:
            term *= a / z
            a -= 1.0
    if upward:
        return 1.0 - total
    return total + math.erfc(math.sqrt(z)) if df % 2 else total
