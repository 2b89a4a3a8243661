"""Exception types raised by the library.

Everything derives from :class:`CorruptLabError` so callers can catch the
whole surface with one clause.  The split between "bad input" and "numerical
failure" matters for the CLI exit codes (2 vs 3).
"""


class CorruptLabError(Exception):
    """Base class for all library errors."""


# -- input validation ---------------------------------------------------------

class LengthMismatch(CorruptLabError):
    """A vector or matrix dimension does not match the named space."""


class NegativeWeight(CorruptLabError):
    """A probability weight or kernel entry is negative."""


class NotNormalized(CorruptLabError):
    """Weights (or a kernel column) do not sum to 1 within tolerance."""


class SpaceMismatch(CorruptLabError):
    """Two objects live on different outcome spaces."""


class NotReconstructible(CorruptLabError):
    """The kernel admits no left inverse under the rank threshold."""


class RankDeficient(NotReconstructible):
    """The kernel's Gram matrix fails the relative pivot test."""


class InvalidParameter(CorruptLabError):
    """A scalar argument is outside its documented domain."""


class IndexOutOfRange(CorruptLabError):
    """A hypothesis or action reference does not resolve."""


class MissingStatistic(CorruptLabError):
    """An offer lacks a statistic required by the requested ranking."""


class UnknownOutcome(CorruptLabError):
    """A sample value is not an outcome of the expected space."""


class EmptySample(CorruptLabError):
    """An operation that averages over a sample received no data."""


class PreconditionFailed(CorruptLabError):
    """A documented precondition (e.g. separability) does not hold."""


class UnknownFamily(CorruptLabError):
    """The corruption family name is not in the catalog."""


class ParseError(CorruptLabError):
    """A JSON document does not match the expected schema."""


# -- numerical failure / guards -----------------------------------------------

class SizeGuardExceeded(CorruptLabError):
    """A kernel, grid or other materialized object would exceed its size guard."""


class CapacityGuardExceeded(CorruptLabError):
    """The integer-scaled knapsack capacity exceeds the DP guard."""


class InternalInconsistency(CorruptLabError):
    """Two formulas that must agree disagreed; signals a numeric bug."""


class DivergedObjective(CorruptLabError):
    """An optimization objective became NaN or infinite."""


#: Errors that indicate bad input (CLI exit code 2).
VALIDATION_ERRORS = (
    LengthMismatch, NegativeWeight, NotNormalized, SpaceMismatch,
    NotReconstructible, InvalidParameter, IndexOutOfRange, MissingStatistic,
    UnknownOutcome, EmptySample, PreconditionFailed, UnknownFamily, ParseError,
)

#: Errors that indicate a numerical failure or tripped guard (CLI exit code 3).
NUMERICAL_ERRORS = (
    SizeGuardExceeded, CapacityGuardExceeded, InternalInconsistency,
    DivergedObjective,
)
