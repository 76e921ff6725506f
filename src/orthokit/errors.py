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
    instead (``linalg.shape_error``).  The message names only the index.
    """

    def __init__(self, col_index: int):
        self.col_index = int(col_index)
        super().__init__(f"matrix is rank deficient at column {col_index}")


class DomainError(OrthokitError):
    """An input has a non-finite entry, or a response or mean value lies
    outside the family's domain."""


class DidNotConverge(OrthokitError):
    """Kept for callers that catch it; no orthokit function raises it."""


class SingularInformation(OrthokitError):
    """The Fisher information matrix is numerically singular."""


class InvalidSpec(OrthokitError):
    """A generator/configuration object fails its validity checks."""
