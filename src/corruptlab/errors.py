"""Exception types raised by the library.

Everything derives from :class:`CorruptLabError` so callers can catch the
whole surface with one clause, and from exactly one of its two subclasses:
:class:`InvalidInput` for bad input and :class:`NumericalFailure` for a
numerical failure or a tripped guard.  The CLI exit code (2 vs 3) is read
from these two bases alone.
"""

import math
from fractions import Fraction


def _shown(x) -> str:
    """``x`` for a message.  An integer or fraction whose parts reach 10**30 is
    rounded to a power of ten, since ``str`` slows with the digits and
    refuses more than 4,300 of them."""
    q = Fraction(x) if isinstance(x, (int, Fraction)) else None
    if q is None or max(abs(q.numerator), q.denominator) < 10**30:
        return str(x)
    return f"{'-' if q < 0 else ''}~1e{round(math.log10(abs(q.numerator)) - math.log10(q.denominator))}"


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
    """A field or argument has the wrong type (a string or boolean for a
    number, a ragged or non-finite array, a float for a count) or a scalar
    outside its documented domain."""


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
    """A JSON document, a command-line argument or a file does not have the
    expected shape: not JSON, a missing or unknown key, an object or list
    where another is expected.  A value of the wrong type inside a
    well-shaped document is an :class:`InvalidParameter`."""


# -- numerical failure / guards -----------------------------------------------

class SizeGuardExceeded(NumericalFailure):
    """A kernel, grid or other materialized object would exceed its size guard."""


class CapacityGuardExceeded(NumericalFailure):
    """The integer-scaled knapsack capacity exceeds the DP guard."""


class InternalInconsistency(NumericalFailure):
    """Two formulas that must agree disagreed; signals a numeric bug."""


class DivergedObjective(NumericalFailure):
    """An optimization objective became NaN or infinite."""

