"""Exception types raised by the library.

Everything derives from :class:`CorruptLabError` so callers can catch the
whole surface with one clause, and from exactly one of its two subclasses:
:class:`InvalidInput` for bad input and :class:`NumericalFailure` for a
numerical failure or a tripped guard.  The CLI exit code (2 vs 3) is read
from these two bases alone.
"""


class CorruptLabError(Exception):
    """Base class for all library errors."""


class InvalidInput(CorruptLabError):
    """Bad input; the CLI exits 2."""


class NumericalFailure(CorruptLabError):
    """A numerical failure or tripped guard; the CLI exits 3."""


# -- input validation ---------------------------------------------------------

class LengthMismatch(InvalidInput):
    """A vector or matrix dimension does not match the named space."""


class NegativeWeight(InvalidInput):
    """A probability weight or kernel entry is negative."""


class NotNormalized(InvalidInput):
    """Weights (or a kernel column) do not sum to 1 within tolerance."""


class SpaceMismatch(InvalidInput):
    """Two objects live on different outcome spaces."""


class NotReconstructible(InvalidInput):
    """The kernel admits no left inverse under the rank threshold."""


class RankDeficient(NotReconstructible):
    """The kernel's smallest singular value is below ``RANK_SV_RTOL`` of its
    largest, or it has fewer corrupted outcomes than clean ones."""


class InvalidParameter(InvalidInput):
    """A scalar argument is outside its documented domain."""


class IndexOutOfRange(InvalidInput):
    """A hypothesis or action reference does not resolve."""


class MissingStatistic(InvalidInput):
    """An offer lacks a statistic required by the requested ranking."""


class UnknownOutcome(InvalidInput):
    """A sample value is not an outcome of the expected space."""


class EmptySample(InvalidInput):
    """An operation that averages over a sample received no data."""


class PreconditionFailed(InvalidInput):
    """A documented precondition (e.g. separability) does not hold."""


class UnknownFamily(InvalidInput):
    """The corruption family name is not in the catalog."""


class ParseError(InvalidInput):
    """A JSON document does not match the expected schema."""


# -- numerical failure / guards -----------------------------------------------

class SizeGuardExceeded(NumericalFailure):
    """A kernel, grid or other materialized object would exceed its size guard."""


class CapacityGuardExceeded(NumericalFailure):
    """The integer-scaled knapsack capacity exceeds the DP guard."""


class InternalInconsistency(NumericalFailure):
    """Two formulas that must agree disagreed; signals a numeric bug."""


class DivergedObjective(NumericalFailure):
    """An optimization objective became NaN or infinite."""

