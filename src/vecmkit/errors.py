"""Exception hierarchy used across the toolkit.

Every failure raised by this package derives from :class:`VecmkitError`,
so callers (notably the CLI) can catch one type and still report the
specific failure class in machine-readable form.
"""

from __future__ import annotations


class VecmkitError(Exception):
    """Base class for all toolkit errors."""


class QuarterParseError(VecmkitError):
    """A quarter label does not match the YYYYQn format."""


class FrameError(VecmkitError):
    """Base class for panel ingestion and shape problems."""


class EmptyInputError(FrameError):
    """A CSV file or value sequence contained no data rows."""


class MissingColumnError(FrameError):
    """A required column is absent from the input header."""


class QuarterGapError(FrameError):
    """Quarter labels are not contiguous ascending."""


class NonNumericCellError(FrameError):
    """A data cell could not be parsed as a finite number."""


class InsufficientDataError(VecmkitError):
    """Too few observations for the requested lag structure or regression."""


class SingularDesignError(VecmkitError):
    """The regressor matrix is rank deficient."""


class NotPositiveDefiniteError(VecmkitError):
    """A matrix required to be positive definite failed its Cholesky pivot test."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class DegenerateInputError(VecmkitError):
    """Input carries no usable variation (zero residuals, singular covariance)."""


class DomainError(VecmkitError):
    """An argument lies outside the mathematical domain of the operation."""


class OutOfRangeError(VecmkitError):
    """A time index falls outside the span it must lie in."""


class CoverageError(VecmkitError):
    """Exogenous values do not cover every step the model touches."""


class RankError(VecmkitError):
    """Cointegration rank outside the open interval (0, K)."""


class ConfigError(VecmkitError):
    """A run configuration key is unknown, ill-typed, or missing."""


class PipelineStageError(VecmkitError):
    """An estimation step inside the multi-stage shock pipeline failed;
    ``detail``, when given, follows the cause's message."""

    def __init__(self, stage: int, cause: Exception, detail: str = ""):
        super().__init__(f"stage {stage} failed: {cause}{detail}")
        self.stage = stage
        self.cause = cause
