"""Exception types raised by the library.

Everything derives from :class:`CorruptLabError` so callers can catch the
whole surface with one clause, and from exactly one of its two subclasses:
:class:`InvalidInput` for bad input and :class:`NumericalFailure` for a
numerical failure or a tripped guard.  The CLI exit code (2 vs 3) is read
from these two bases alone.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction


def _shown(x) -> str:
    """``x`` for a message.  An integer or fraction with a part reaching 10**30,
    and a decimal of magnitude below 1e-30 or from 1e30 on, or with nonzero
    digits past 1e-100, is shown by its first digit, truncated, and its power
    of ten: ``str`` slows with the digits and refuses more than 4,300 of them,
    and a decimal's fraction builds 10**-exponent.  A decimal's trailing zeros
    are dropped first, so 0.5 and 0.50 are shown alike."""
    if isinstance(x, int) and -10**30 < x < 10**30:  # the common case, without a Fraction
        return str(x)
    if isinstance(x, Decimal) and x.is_finite():
        sign, digits, exponent = x.as_tuple()
        zeros = len(digits) - len(bytes(digits).rstrip(b"\0"))
        if not (-31 < x.adjusted() < 30 and exponent + zeros > -100):
            return f"{'-' if x < 0 else ''}~{digits[0]}e{x.adjusted()}"
        x = Fraction(Decimal((sign, digits[:len(digits) - zeros], exponent + zeros)))  # exact
    q = Fraction(x) if isinstance(x, (int, Fraction)) else None
    if q is None or max(abs(q.numerator), q.denominator) < 10**30:
        return str(x)
    n, d = abs(q.numerator), q.denominator
    e = math.floor(math.log10(n) - math.log10(d)) - 1  # the float may be one off either way
    top = str(n * 10**max(-e, 0) // (d * 10**max(e, 0)))  # so |q| / 10**e has 1 to 3 digits
    return f"{'-' if q < 0 else ''}~{top[0]}e{e + len(top) - 1}"


def _escaped(text) -> str:
    """``str(text)`` escaped as inside a JSON string, and so are the line
    separators JSON leaves as they are (U+0085, U+2028, U+2029): a message
    that holds it stays on one line.  Text with no control character, double
    quote or backslash reads as itself."""
    return json.dumps(str(text), ensure_ascii=False)[1:-1].translate({0x85: "\\u0085", 0x2028: "\\u2028",
                                                                 0x2029: "\\u2029"})


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
    """A count past its guard: the size of an object that would be
    materialized (a kernel's entries, a grid's points, a sample) or the work
    a command would do (``tables``, ``simulate`` and the exact plan's DP)."""


class CapacityGuardExceeded(NumericalFailure):
    """The integer-scaled knapsack capacity exceeds the DP guard."""


def guard(count, bound, what: str, error: type[NumericalFailure] = SizeGuardExceeded) -> None:
    """Refuse ``count`` past ``bound`` with ``error``, worded ``<what>
    <count> exceeds guard <bound>``.  Every size guard of the library comes
    here, after the input it counts has been checked."""
    if count > bound:
        raise error(f"{what} {_shown(count)} exceeds guard {bound}")


class InternalInconsistency(NumericalFailure):
    """Two formulas that must agree disagreed; signals a numeric bug."""


class DivergedObjective(NumericalFailure):
    """An optimization objective became NaN or infinite."""

