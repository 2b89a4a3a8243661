"""Parametric corruption families with closed-form statistics.

Each family is one row of :data:`FAMILIES`: its parameter names, the kernel
they build and, where a closed form exists, its contraction coefficient and
reconstruction norms, so the generic machinery can be cross-checked against
it.  Norms with no closed form (or at a degenerate parameter) are reported as
``None`` and must be computed numerically via :mod:`corruptlab.reconstruct`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameter, SizeGuardExceeded, UnknownFamily
from .kernels import PRODUCT_ENTRY_GUARD, Kernel, Space
from .schema import INT, OBJECT, PROBABILITY, STR, fields, typed, within

BINARY = "binary_label_noise"
SYMMETRIC = "symmetric_label_noise"
SEMI_SUPERVISED = "semi_supervised"
PARTIAL = "partial_labels"

#: The kind of ``classes``: a count of at least 2.
_CLASSES = within(INT, 2)


@dataclass(frozen=True, eq=True)
class CorruptionSpec:
    """A family and its parameters, as (name, value) pairs in the family's
    order.  However it is built, the family must be known, each of its
    parameters given once and none other, and each value valid; they are
    checked in the family's order."""

    family: str
    params: tuple[tuple[str, float], ...]

    def __post_init__(self):
        names = family(self.family).params
        try:
            given = dict(self.params)
            repeated = len(given) != len(self.params)
        except (TypeError, ValueError):  # not a sized sequence of (name, value) pairs
            given, repeated = {}, True
        if repeated or given.keys() != set(names):
            raise InvalidParameter(f"{self.family} takes the parameters {', '.join(names)}, "
                                   "each once, as (name, value) pairs")
        object.__setattr__(self, "params", tuple((key, _check(key, given[key])) for key in names))


@dataclass(frozen=True)
class ClosedFormStats:
    """Closed-form contraction and norm statistics; ``None`` where no
    closed form is available for the family or parameter."""

    alpha: float
    row_norm: float | None
    corrected01_norm: float | None


def _binary_kernel(sn: float, sp: float) -> Kernel:
    space = Space(["-1", "+1"])
    return Kernel(space, space, [[1.0 - sn, sp], [sn, 1.0 - sp]])


def _binary_stats(sn: float, sp: float) -> ClosedFormStats:
    gap = abs(1.0 - sn - sp)
    if gap == 0.0:
        return ClosedFormStats(alpha=0.0, row_norm=None, corrected01_norm=None)
    return ClosedFormStats(
        alpha=gap,
        row_norm=max(1.0 - sn + sp, 1.0 - sp + sn) / gap,
        corrected01_norm=max(1.0 - sn, 1.0 - sp, sn, sp) / gap,
    )


def _symmetric_kernel(k: int, s: float) -> Kernel:
    space = Space([str(i + 1) for i in range(k)])
    matrix = np.full((k, k), s / (k - 1))
    np.fill_diagonal(matrix, 1.0 - s)
    return Kernel(space, space, matrix)


def _symmetric_stats(k: int, s: float) -> ClosedFormStats:
    a = abs(1.0 - k * s / (k - 1))
    gap = abs(2.0 - 3.0 * s)
    if k != 3 or gap == 0.0:
        return ClosedFormStats(alpha=a, row_norm=None, corrected01_norm=None)
    return ClosedFormStats(
        alpha=a,
        row_norm=(2.0 + s) / gap,
        corrected01_norm=2.0 * max(s, 1.0 - s) / gap,
    )


def _semi_supervised_kernel(sn: float, sp: float) -> Kernel:
    return Kernel(
        Space(["-1", "+1"]),
        Space(["-1", "+1", "?"]),
        [[sn, 0.0], [0.0, sp], [1.0 - sn, 1.0 - sp]],
    )


def _semi_supervised_stats(sn: float, sp: float) -> ClosedFormStats:
    # The printed corrected-0-1 norm for the symmetric case looks garbled
    # at the source, so it is never hard-coded here; compare numerically.
    row_norm = 1.0 / sn if sn == sp and sn > 0.0 else None
    return ClosedFormStats(alpha=max(sn, sp), row_norm=row_norm, corrected01_norm=None)


#: Output space of the partial-labels kernel: indicator triples over the
#: three classes in binary counting order, the all-empty set excluded.
PARTIAL_LABEL_SETS = ("001", "010", "011", "100", "101", "110", "111")


def _partial_kernel(s: float) -> Kernel:
    matrix = np.zeros((7, 3))
    for j in range(3):
        for i, bits in enumerate(PARTIAL_LABEL_SETS):
            if bits[j] != "1":
                continue  # the true label is always included
            spurious = sum(1 for b, bit in enumerate(bits) if bit == "1" and b != j)
            matrix[i, j] = s**spurious * (1.0 - s) ** (2 - spurious)
    return Kernel(Space(["1", "2", "3"]), Space(PARTIAL_LABEL_SETS), matrix)


def _partial_stats(s: float) -> ClosedFormStats:
    return ClosedFormStats(alpha=1.0 - s, row_norm=None, corrected01_norm=None)


class Family(NamedTuple):
    """Parameter names in spec order; kernel and closed forms take them in that order."""

    params: tuple[str, ...]
    kernel: Callable[..., Kernel]
    stats: Callable[..., ClosedFormStats]


FAMILIES = {
    BINARY: Family(("sigma_neg", "sigma_pos"), _binary_kernel, _binary_stats),
    SYMMETRIC: Family(("classes", "sigma"), _symmetric_kernel, _symmetric_stats),
    SEMI_SUPERVISED: Family(("sigma_neg", "sigma_pos"), _semi_supervised_kernel, _semi_supervised_stats),
    PARTIAL: Family(("sigma",), _partial_kernel, _partial_stats),
}


def family(name: str) -> Family:
    try:
        return FAMILIES[typed(name, 'corruption "family"', STR)]
    except KeyError:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}") from None


def _check(name: str, value):
    """``classes`` is a count of at least 2 under the entry guard; every other
    parameter is a probability."""
    if name != "classes":
        return typed(value, name, PROBABILITY)
    value = typed(value, name, _CLASSES)
    if value**2 > PRODUCT_ENTRY_GUARD:  # before the k x k matrix
        raise SizeGuardExceeded(f"more than {math.isqrt(PRODUCT_ENTRY_GUARD)} classes exceed the entry guard")
    return value


def make_spec(name: str, **params) -> CorruptionSpec:
    """The spec of family ``name`` with the parameters ``params``."""
    return CorruptionSpec(name, tuple(params.items()))


def binary_label_noise(sigma_neg: float, sigma_pos: float) -> CorruptionSpec:
    """Binary labels; class i flips with probability sigma_i."""
    return make_spec(BINARY, sigma_neg=sigma_neg, sigma_pos=sigma_pos)


def symmetric_label_noise(classes: int, sigma: float) -> CorruptionSpec:
    """k classes; the label flips to each wrong class with prob sigma/(k-1)."""
    return make_spec(SYMMETRIC, classes=classes, sigma=sigma)


def semi_supervised(sigma_neg: float, sigma_pos: float) -> CorruptionSpec:
    """Class i keeps its label with probability sigma_i, else it is erased."""
    return make_spec(SEMI_SUPERVISED, sigma_neg=sigma_neg, sigma_pos=sigma_pos)


def partial_labels(sigma: float) -> CorruptionSpec:
    """Three classes; the label set always contains the truth and each
    spurious label independently with probability sigma."""
    return make_spec(PARTIAL, sigma=sigma)


def build_kernel(spec: CorruptionSpec) -> Kernel:
    return family(spec.family).kernel(*(value for _, value in spec.params))


def closed_form_stats(spec: CorruptionSpec) -> ClosedFormStats:
    return family(spec.family).stats(*(value for _, value in spec.params))


# -- JSON wire format -----------------------------------------------------------

def spec_to_json(spec: CorruptionSpec) -> dict:
    return {"family": spec.family, "params": dict(spec.params)}


def spec_from_json(obj: dict) -> CorruptionSpec:
    name, params = fields(obj, "corruption", "family", optional=(("params", OBJECT, {}),))
    names = family(name).params
    probabilities = [key for key in names if key != "classes"]
    # the probabilities are read first, then the optional class count
    values = fields(params, f"{name} params", *probabilities,
                    optional=(("classes", 3),) if "classes" in names else ())
    return make_spec(name, **dict(zip([*probabilities, "classes"], values)))
