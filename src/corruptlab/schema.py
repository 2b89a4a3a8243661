"""Field kinds, which every value type reads its fields with, and the shape
of the JSON wire formats.

A field kind is the error class that refuses a value, a description for the
message and a reader.  The value kinds (``STR``, ``INT``, ``NUM``,
``PROBABILITY``, ``NONNEGATIVE``, ``POSITIVE``, ``COUNT``,
``POSITIVE_COUNT``, ``NAMES``, the arrays ``VECTOR`` and ``MATRIX``,
:func:`instance_of`, :func:`maybe`, :func:`list_of` and :func:`within`) are
how each value type reads its own fields, and each function its own scalar
arguments, through :func:`read_fields` or :func:`typed`, the same way
whether it is built in Python or from a document.  A range, each end open or
closed, is part of a field's kind, and so is a list's being non-empty: every
:func:`list_of` kind refuses an empty sequence.  So a wrong type and a value
outside the range are both refused there, once, with a one-line
:class:`InvalidParameter`.

Each ``*_from_json`` reads only a document's shape through :func:`fields`:
objects, non-empty lists, required and unknown keys and the ``{num, den}``
cost form, each refused with a one-line :class:`ParseError` that names the
document and the key.  Every other field is passed on as it is to the value
type that owns it.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .errors import InvalidParameter, ParseError, _escaped, _shown


def _need(ok: bool, value):
    if not ok:
        raise ValueError
    return value


class _OutOfRange(ValueError):
    """A value of the right type outside its kind's range; :func:`typed` words it."""


def list_of(kind, description: str):
    """The kind of any sequence but a string, or an array of at least one
    dimension, read as a tuple of its entries each read as ``kind``;
    ``description`` describes it in messages, and an empty one is refused as
    ``must be non-empty``."""
    read = kind[2]

    def reader(v):
        _need(type(v) in (list, tuple) or isinstance(v, Sequence) and not isinstance(v, (str, bytes))
              or isinstance(v, np.ndarray) and v.ndim > 0, v)
        if not len(v):
            raise _OutOfRange("non-empty")
        return tuple(map(read, v))
    return (kind[0], description, reader)


def _rational(v) -> Fraction:
    if type(v) is int:
        return Fraction(v)
    num, den = fields(_need(isinstance(v, dict), v), "cost", ("num", INT), optional=(("den", INT, 1),))
    if den == 0:
        raise ParseError('cost "den" must not be 0')
    return Fraction(num, den)


_INTEGERS = (int, np.integer)
_REALS = (int, float, Fraction, np.integer, np.floating)

#: Field kinds: the error class that refuses a value, a description for its
#: message, and a reader that returns the value read or raises ValueError
#: (OverflowError for an integer past a double's range).  Python and numpy
#: integers count as integers and, like their reals, as numbers; booleans,
#: ``np.bool_`` included, as neither; a Fraction is a number too.
STR = (InvalidParameter, "a string", lambda v: _need(isinstance(v, str), v))
INT = (InvalidParameter, "an integer", lambda v: int(_need(isinstance(v, _INTEGERS) and not isinstance(v, bool), v)))
NUM = (InvalidParameter, "a finite number",
       lambda v: float(_need(isinstance(v, _REALS) and not isinstance(v, bool) and math.isfinite(v), v)))
NAMES = list_of(STR, "a list of strings")
OBJECT = (ParseError, "an object", lambda v: _need(isinstance(v, dict), v))
LIST = (ParseError, "a non-empty list", lambda v: _need(isinstance(v, list) and len(v) > 0, v))
RATIONAL = (ParseError, 'an integer or {"num": integer, "den": integer}', _rational)


def _array(values, ndim: int) -> np.ndarray:
    a = np.asarray(values)  # numpy refuses ragged rows with a ValueError too
    _need(a.ndim == ndim and a.dtype.kind in "iuf" and bool(np.isfinite(a).all()), a)
    if not isinstance(values, np.ndarray):
        entries = itertools.chain.from_iterable(values) if ndim == 2 else values
        _need(not {bool, np.bool_} & set(map(type, entries)), a)
    a = a.astype(np.float64, copy=not isinstance(values, (list, tuple)))
    a.setflags(write=False)
    return a


#: The array kinds: a read-only float64 array, 1- or 2-dimensional, that no
#: caller holds.  The one reader of every array a value keeps: a list is
#: converted once and anything else, an array included, copied.  Ragged
#: rows, strings, nulls, booleans and non-finite entries are refused.  A
#: boolean array has a dtype of its own, but numpy reads a boolean among
#: numbers as 0 or 1, so the entries of anything but an array have their
#: types looked at.
VECTOR = (InvalidParameter, "a list of finite numbers", lambda v: _array(v, 1))
MATRIX = (InvalidParameter, "a list of equal-length rows of finite numbers", lambda v: _array(v, 2))


def instance_of(*classes: type):
    """The kind of an instance of one of ``classes``."""
    return (InvalidParameter, "a " + " or ".join(c.__name__ for c in classes),
            lambda v: _need(isinstance(v, classes), v))


def within(kind, low, high=math.inf, ends="[]", inside=None):
    """``kind`` with its values between ``low`` and ``high``, each end closed
    or open as ``ends`` writes it in interval notation (``"(]"``: above low,
    at most high).  A value of the right type outside is refused as ``must be
    in [low, high], got <value>``, or as ``must be >= low`` (``> low``) when
    ``high`` is infinite.  ``inside``, when given, is the test of a value
    read that holds exactly on that range, for a kind whose values compare
    slowly with its ends (a Fraction with a float)."""
    read = kind[2]
    opened = tuple(end for end, bracket in ((low, ends[0]), (high, ends[1])) if bracket in "()")
    rule = (f"{'>' if ends[0] == '(' else '>='} {_shown(low)}" if high == math.inf
            else f"in {ends[0]}{_shown(low)}, {_shown(high)}{ends[1]}")
    if inside is None:
        def inside(v):
            return low <= v <= high and v not in opened

    def reader(v):
        v = read(v)
        if not inside(v):
            raise _OutOfRange(f"{rule}, got {_shown(v)}")
        return v
    return (kind[0], kind[1], reader)


PROBABILITY = within(NUM, 0, 1)
NONNEGATIVE = within(NUM, 0)
POSITIVE = within(NUM, 0, ends="()")
COUNT = within(INT, 0)
POSITIVE_COUNT = within(INT, 1)


def maybe(kind):
    """``kind``, or None."""
    return (kind[0], f"{kind[1]} or None", lambda v: None if v is None else kind[2](v))


def read_fields(value, what: str, **kinds) -> None:
    """Set each field of the frozen dataclass ``value`` named in ``kinds`` to
    itself read as its kind, in order; ``what`` names ``value`` in messages."""
    for name, kind in kinds.items():
        object.__setattr__(value, name, typed(getattr(value, name), what, kind, name))


def typed(value, what: str, kind, key=None):
    """``value`` read as ``kind``; ``what`` names it in the error message,
    followed by ``"key"`` when ``key`` is given."""
    try:
        return kind[2](value)
    except _OutOfRange as exc:
        rule = exc
    except (ValueError, OverflowError):
        rule = kind[1]
    if key is not None:
        what = f'{what} "{key}"'
    raise kind[0](f"{what} must be {rule}") from None


def fields(obj, what: str, *required, optional=()) -> list:
    """The values of the keys ``required`` of the JSON object ``obj``, in
    order, then those of the ``(key, default)`` pairs in ``optional``.  A key
    is passed on as it is, or read as ``kind`` when given as ``(key, kind)``
    or ``(key, kind, default)``.  An optional key that is missing or null
    reads as its default.  A key that is neither is refused, after every
    known key has been read."""
    obj = typed(obj, what, OBJECT)
    values, known = [], set()
    for key in required:
        key, kind = (key, None) if isinstance(key, str) else key
        if key not in obj:
            raise ParseError(f'{what} needs key "{key}"')
        values.append(obj[key] if kind is None else typed(obj[key], what, kind, key))
        known.add(key)
    for key, *kind, default in optional:
        value = obj.get(key)
        values.append(default if value is None else typed(value, what, *kind, key) if kind else value)
        known.add(key)
    if not obj.keys() <= known:  # a misspelt optional key would read as its default
        unknown = next(key for key in obj if key not in known)
        raise ParseError(f'{what} has unknown key "{_escaped(unknown)}"; known: {", ".join(sorted(known))}')
    return values


def load_json(path: str):
    """Parse the JSON file at ``path``; bare ``NaN`` and ``Infinity`` are
    rejected.  Messages show the path escaped, so they stay on one line."""
    def reject(name: str):
        raise ParseError(f"{_escaped(path)} is not valid JSON: {name} is not a number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ParseError(f"cannot read {_escaped(path)}: {exc}") from exc
    # ValueError: bad syntax, bad UTF-8 or an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{_escaped(path)} is not valid JSON: {exc}") from exc
