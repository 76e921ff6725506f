"""Exception types shared across the package."""

from __future__ import annotations


class OrthokitError(Exception):
    """Base class for all orthokit errors."""


class DimensionMismatch(OrthokitError):
    """Operands have incompatible shapes."""


class RankDeficient(OrthokitError):
    """A matrix that must have full column rank does not.

    ``col_index`` is the index, in input order, of the first column whose
    QR diagonal (its distance from the span of the columns before it) is
    at most ``linalg.RANK_RTOL`` times the largest column norm.  A matrix
    with no columns or fewer rows than columns raises ``DimensionMismatch``
    instead (``linalg.shape_error``).
    """

    def __init__(self, col_index: int, message: str | None = None):
        self.col_index = int(col_index)
        super().__init__(message or f"matrix is rank deficient at column {col_index}")


class DomainError(OrthokitError):
    """A response or mean value lies outside the family's domain."""


class DidNotConverge(OrthokitError):
    """An iterative fit hit its iteration budget before meeting tolerance.

    No orthokit function raises it: fits return their best iterate with
    ``converged=False`` instead.  It stays importable for callers that
    still catch it.  ``result`` carries a ``GlmFit`` or
    ``CorrectionOutcome`` when one is given.
    """

    def __init__(self, message: str, iterations: int = 0, result=None):
        self.iterations = int(iterations)
        self.result = result
        super().__init__(message)


class SingularInformation(OrthokitError):
    """The Fisher information matrix is numerically singular."""


class InvalidSpec(OrthokitError):
    """A generator/configuration object fails its validity checks."""
