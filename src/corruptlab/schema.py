"""Typed fields of the JSON wire formats.

Each ``*_from_json`` reads its document through :func:`fields`, which checks
presence, type and finiteness, refuses keys it does not know and raises a
one-line :class:`ParseError` naming the document and the key.  Range checks
stay in the constructors.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from .errors import ParseError


def _need(ok: bool, value):
    if not ok:
        raise ValueError
    return value


def _array(v, ndim: int) -> np.ndarray:
    # One conversion for the whole array: strings, nulls, ragged rows and a
    # list of booleans alone give a dtype other than integer or float.
    a = np.asarray(v)
    _need(a.ndim == ndim and a.dtype.kind in "iuf" and bool(np.isfinite(a).all()), a)
    # numpy reads a boolean among numbers as 0 or 1, so look at the entries' types.
    _need(bool not in set(map(type, itertools.chain.from_iterable(v) if ndim == 2 else v)), a)
    return a.astype(np.float64, copy=False)


def _list_of(ok):
    return lambda v: tuple(_need(isinstance(v, list) and all(map(ok, v)), v))


def _rational(v) -> Fraction:
    if type(v) is int:
        return Fraction(v)
    num, den = fields(_need(isinstance(v, dict), v), "cost", ("num", INT), optional=(("den", INT, 1),))
    if den == 0:
        raise ParseError('cost "den" must not be 0')
    return Fraction(num, den)


#: Field kinds: a description for messages, and a reader that returns the
#: parsed value or raises ValueError (OverflowError for a huge integer).
#: JSON gives exact types, so ``type(v) is int`` also turns booleans away.
STR = ("a string", lambda v: _need(isinstance(v, str), v))
INT = ("an integer", lambda v: _need(type(v) is int, v))
NUM = ("a finite number", lambda v: float(_need(type(v) in (int, float) and math.isfinite(v), v)))
NAMES = ("a list of strings", _list_of(lambda x: isinstance(x, str)))
INTS = ("a list of integers", _list_of(lambda x: type(x) is int))
VECTOR = ("a list of finite numbers", lambda v: _array(v, 1))
MATRIX = ("a list of equal-length rows of finite numbers", lambda v: _array(v, 2))
OBJECT = ("an object", lambda v: _need(isinstance(v, dict), v))
LIST = ("a non-empty list", lambda v: _need(isinstance(v, list) and len(v) > 0, v))
RATIONAL = ('an integer or {"num": integer, "den": integer}', _rational)


def typed(value, what: str, kind):
    """``value`` read as ``kind``; ``what`` names it in the error message."""
    try:
        return kind[1](value)
    except (ValueError, OverflowError):
        raise ParseError(f"{what} must be {kind[0]}") from None


def fields(obj, what: str, *required, optional=()) -> list:
    """The values of the ``(key, kind)`` pairs of the JSON object ``obj``, in
    order, then those of the ``(key, kind, default)`` triples in ``optional``.
    An optional key that is missing or null reads as its default.  A key that
    is neither is refused, after every known key has been read."""
    obj = typed(obj, what, OBJECT)
    values = []
    for key, kind in required:
        if key not in obj:
            raise ParseError(f'{what} needs key "{key}"')
        values.append(typed(obj[key], f'{what} "{key}"', kind))
    for key, kind, default in optional:
        value = obj.get(key)
        values.append(default if value is None else typed(value, f'{what} "{key}"', kind))
    known = [key for key, *_ in (*required, *optional)]
    unknown = next((key for key in obj if key not in known), None)
    if unknown is not None:  # a misspelt optional key would read as its default
        raise ParseError(f'{what} has unknown key "{unknown}"; known: {", ".join(sorted(known))}')
    return values


def load_json(path: str):
    """Parse the JSON file at ``path``; bare ``NaN`` and ``Infinity`` are rejected."""
    def reject(name: str):
        raise ParseError(f"{path} is not valid JSON: {name} is not a number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError: bad syntax, bad UTF-8 or an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
