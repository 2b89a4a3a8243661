"""Parametric corruption families with closed-form statistics.

Each family builds an explicit kernel and, where a closed form exists,
reports its contraction coefficient and reconstruction norms so the generic
machinery can be cross-checked against it.  Norms with no closed form (or at
a degenerate parameter) are reported as ``None`` and must be computed
numerically via :mod:`corruptlab.reconstruct`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import InvalidParameter, SizeGuardExceeded, UnknownFamily
from .kernels import PRODUCT_ENTRY_GUARD, Kernel, Space
from .schema import INT, NUM, OBJECT, STR, fields

BINARY = "binary_label_noise"
SYMMETRIC = "symmetric_label_noise"
SEMI_SUPERVISED = "semi_supervised"
PARTIAL = "partial_labels"

FAMILIES = (BINARY, SYMMETRIC, SEMI_SUPERVISED, PARTIAL)


@dataclass(frozen=True, eq=True)
class CorruptionSpec:
    family: str
    params: tuple[tuple[str, float], ...]

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise InvalidParameter(f"{self.family} has no parameter {name!r}")


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise InvalidParameter(f"{name} must be in [0, 1], got {value!r}")
    return value


def binary_label_noise(sigma_neg: float, sigma_pos: float) -> CorruptionSpec:
    """Binary labels; class i flips with probability sigma_i."""
    return CorruptionSpec(BINARY, (
        ("sigma_neg", _check_prob("sigma_neg", sigma_neg)),
        ("sigma_pos", _check_prob("sigma_pos", sigma_pos)),
    ))


def symmetric_label_noise(classes: int, sigma: float) -> CorruptionSpec:
    """k classes; the label flips to each wrong class with prob sigma/(k-1)."""
    classes = int(classes)
    if classes < 2:
        raise InvalidParameter(f"need at least 2 classes, got {classes}")
    if classes**2 > PRODUCT_ENTRY_GUARD:  # before float(classes) and the k x k matrix
        raise SizeGuardExceeded(f"more than {math.isqrt(PRODUCT_ENTRY_GUARD)} classes exceed the entry guard")
    return CorruptionSpec(SYMMETRIC, (
        ("classes", float(classes)),
        ("sigma", _check_prob("sigma", sigma)),
    ))


def semi_supervised(sigma_neg: float, sigma_pos: float) -> CorruptionSpec:
    """Class i keeps its label with probability sigma_i, else it is erased."""
    return CorruptionSpec(SEMI_SUPERVISED, (
        ("sigma_neg", _check_prob("sigma_neg", sigma_neg)),
        ("sigma_pos", _check_prob("sigma_pos", sigma_pos)),
    ))


def partial_labels(sigma: float) -> CorruptionSpec:
    """Three classes; the label set always contains the truth and each
    spurious label independently with probability sigma."""
    return CorruptionSpec(PARTIAL, (("sigma", _check_prob("sigma", sigma)),))


#: Output space of the partial-labels kernel: indicator triples over the
#: three classes in binary counting order, the all-empty set excluded.
PARTIAL_LABEL_SETS = ("001", "010", "011", "100", "101", "110", "111")


def build_kernel(spec: CorruptionSpec) -> Kernel:
    if spec.family == BINARY:
        sn, sp = spec.param("sigma_neg"), spec.param("sigma_pos")
        space = Space(["-1", "+1"])
        return Kernel(space, space, [[1.0 - sn, sp], [sn, 1.0 - sp]])

    if spec.family == SYMMETRIC:
        k = int(spec.param("classes"))
        s = spec.param("sigma")
        space = Space([str(i + 1) for i in range(k)])
        off = s / (k - 1)
        matrix = np.full((k, k), off)
        np.fill_diagonal(matrix, 1.0 - s)
        return Kernel(space, space, matrix)

    if spec.family == SEMI_SUPERVISED:
        sn, sp = spec.param("sigma_neg"), spec.param("sigma_pos")
        return Kernel(
            Space(["-1", "+1"]),
            Space(["-1", "+1", "?"]),
            [[sn, 0.0], [0.0, sp], [1.0 - sn, 1.0 - sp]],
        )

    if spec.family == PARTIAL:
        s = spec.param("sigma")
        domain = Space(["1", "2", "3"])
        codomain = Space(PARTIAL_LABEL_SETS)
        matrix = np.zeros((7, 3))
        for j in range(3):
            for i, bits in enumerate(PARTIAL_LABEL_SETS):
                if bits[j] != "1":
                    continue  # the true label is always included
                spurious = sum(1 for b, bit in enumerate(bits) if bit == "1" and b != j)
                matrix[i, j] = s**spurious * (1.0 - s) ** (2 - spurious)
        return Kernel(domain, codomain, matrix)

    raise UnknownFamily(f"unknown corruption family {spec.family!r}")


@dataclass(frozen=True)
class ClosedFormStats:
    """Closed-form contraction and norm statistics; ``None`` where no
    closed form is available for the family or parameter."""

    alpha: float
    row_norm: float | None
    corrected01_norm: float | None


def closed_form_stats(spec: CorruptionSpec) -> ClosedFormStats:
    if spec.family == BINARY:
        sn, sp = spec.param("sigma_neg"), spec.param("sigma_pos")
        gap = abs(1.0 - sn - sp)
        if gap == 0.0:
            return ClosedFormStats(alpha=0.0, row_norm=None, corrected01_norm=None)
        return ClosedFormStats(
            alpha=gap,
            row_norm=max(1.0 - sn + sp, 1.0 - sp + sn) / gap,
            corrected01_norm=max(1.0 - sn, 1.0 - sp, sn, sp) / gap,
        )

    if spec.family == SYMMETRIC:
        k = int(spec.param("classes"))
        s = spec.param("sigma")
        a = abs(1.0 - k * s / (k - 1))
        if k != 3:
            return ClosedFormStats(alpha=a, row_norm=None, corrected01_norm=None)
        gap = abs(2.0 - 3.0 * s)
        if gap == 0.0:
            return ClosedFormStats(alpha=a, row_norm=None, corrected01_norm=None)
        return ClosedFormStats(
            alpha=a,
            row_norm=(2.0 + s) / gap,
            corrected01_norm=2.0 * max(s, 1.0 - s) / gap,
        )

    if spec.family == SEMI_SUPERVISED:
        sn, sp = spec.param("sigma_neg"), spec.param("sigma_pos")
        # The printed corrected-0-1 norm for the symmetric case looks garbled
        # at the source, so it is never hard-coded here; compare numerically.
        row_norm = 1.0 / sn if sn == sp and sn > 0.0 else None
        return ClosedFormStats(alpha=max(sn, sp), row_norm=row_norm, corrected01_norm=None)

    if spec.family == PARTIAL:
        s = spec.param("sigma")
        return ClosedFormStats(alpha=1.0 - s, row_norm=None, corrected01_norm=None)

    raise UnknownFamily(f"unknown corruption family {spec.family!r}")


# -- JSON wire format -----------------------------------------------------------

def spec_to_json(spec: CorruptionSpec) -> dict:
    params = {k: (int(v) if k == "classes" else v) for k, v in spec.params}
    return {"family": spec.family, "params": params}


def spec_from_json(obj: dict) -> CorruptionSpec:
    family, params = fields(obj, "corruption", ("family", STR), optional=(("params", OBJECT, {}),))
    what = f"{family} params"
    if family == BINARY:
        return binary_label_noise(*fields(params, what, ("sigma_neg", NUM), ("sigma_pos", NUM)))
    if family == SYMMETRIC:
        sigma, classes = fields(params, what, ("sigma", NUM), optional=(("classes", INT, 3),))
        return symmetric_label_noise(classes, sigma)
    if family == SEMI_SUPERVISED:
        return semi_supervised(*fields(params, what, ("sigma_neg", NUM), ("sigma_pos", NUM)))
    if family == PARTIAL:
        return partial_labels(*fields(params, what, ("sigma", NUM)))
    raise UnknownFamily(f"unknown corruption family {family!r}")
