"""Parametric corruption families with closed-form statistics.

Each family is one row of :data:`FAMILIES`: its parameter names, the kernel
matrices they build and, where a closed form exists, its contraction
coefficient and reconstruction norms, so the generic machinery can be
cross-checked against it.  Both take a whole grid of parameter values at
once, as arrays, so ``tables`` builds a grid as one (G, k, m) stack
(:func:`build_kernels`); :func:`build_kernel` and :func:`closed_form_stats`
are their one-point cases, so each formula is written once.  Norms with no
closed form (or at a degenerate parameter) are reported as ``None`` (NaN in
a stack) and must be computed numerically via :mod:`corruptlab.reconstruct`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParameter, UnknownFamily, _shown, guard
from .kernels import PRODUCT_ENTRY_GUARD, Kernel, Space, check_stochastic
from .schema import INT, OBJECT, PROBABILITY, STR, fields, typed, within

BINARY = "binary_label_noise"
SYMMETRIC = "symmetric_label_noise"
SEMI_SUPERVISED = "semi_supervised"
PARTIAL = "partial_labels"

#: The kind of ``classes``: a count of at least 2; every other parameter is
#: a probability.
_CLASSES = within(INT, 2)


@dataclass(frozen=True, eq=True)
class CorruptionSpec:
    """A family and its parameters, as (name, value) pairs in the family's
    order.  However it is built, the family must be known, each of its
    parameters given once and none other, and each value valid; they are
    checked in the family's order, and only then is ``classes`` held to the
    entry guard."""

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
        params = tuple((key, typed(given[key], key, _CLASSES if key == "classes" else PROBABILITY)) for key in names)
        k = dict(params).get("classes", 1)
        guard(k * k, PRODUCT_ENTRY_GUARD, f"kernel entries, {_shown(k)}x{_shown(k)} =")  # before the k x k matrix
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class ClosedFormStats:
    """Closed-form contraction and norm statistics; ``None`` where no
    closed form is available for the family or parameter."""

    alpha: float
    row_norm: float | None
    corrected01_norm: float | None


def _stack(g: int, rows) -> np.ndarray:
    """The (G, k, m) stack of G matrices whose entry (i, j) is ``rows[i][j]``,
    an array of G values or a number."""
    matrices = np.empty((g, len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            matrices[:, i, j] = entry
    return matrices


def _over(x, gap: np.ndarray) -> np.ndarray:
    """``x / gap``, and NaN (no closed form) where ``gap`` is 0."""
    return np.divide(x, gap, out=np.full_like(gap, np.nan), where=gap != 0.0)


def _binary_matrices(sn: np.ndarray, sp: np.ndarray) -> tuple[Space, Space, np.ndarray]:
    space = Space(["-1", "+1"])
    return space, space, _stack(len(sn), [[1.0 - sn, sp], [sn, 1.0 - sp]])


def _binary_stats(sn: np.ndarray, sp: np.ndarray) -> tuple[np.ndarray, ...]:
    gap = np.abs(1.0 - sn - sp)
    return gap, _over(np.maximum(1.0 - sn + sp, 1.0 - sp + sn), gap), _over(
        np.maximum.reduce([1.0 - sn, 1.0 - sp, sn, sp]), gap)


def _symmetric_matrices(k: int, s: np.ndarray) -> tuple[Space, Space, np.ndarray]:
    space = Space([str(i + 1) for i in range(k)])
    matrices = np.empty((len(s), k, k))
    matrices[:] = (s / (k - 1))[:, None, None]
    matrices.reshape(len(s), k * k)[:, ::k + 1] = (1.0 - s)[:, None]  # the diagonals
    return space, space, matrices


def _symmetric_stats(k: int, s: np.ndarray) -> tuple[np.ndarray, ...]:
    gap = np.abs(2.0 - 3.0 * s) if k == 3 else np.zeros_like(s)  # the norms' closed forms are for 3 classes
    return np.abs(1.0 - k * s / (k - 1)), _over(2.0 + s, gap), _over(2.0 * np.maximum(s, 1.0 - s), gap)


def _semi_supervised_matrices(sn: np.ndarray, sp: np.ndarray) -> tuple[Space, Space, np.ndarray]:
    matrices = _stack(len(sn), [[sn, 0.0], [0.0, sp], [1.0 - sn, 1.0 - sp]])
    return Space(["-1", "+1"]), Space(["-1", "+1", "?"]), matrices


def _semi_supervised_stats(sn: np.ndarray, sp: np.ndarray) -> tuple[np.ndarray, ...]:
    # The printed corrected-0-1 norm for the symmetric case looks garbled
    # at the source, so it is never hard-coded here; compare numerically.
    return np.maximum(sn, sp), _over(1.0, np.where(sn == sp, sn, 0.0)), np.full_like(sn, np.nan)


#: Output space of the partial-labels kernel: indicator triples over the
#: three classes in binary counting order, the all-empty set excluded.
PARTIAL_LABEL_SETS = ("001", "010", "011", "100", "101", "110", "111")

#: Python's float power, libm's ``pow``, on each entry.  numpy's ``x**2`` is
#: ``x*x`` and its ``power`` has loops of its own; both round some squares
#: otherwise (0.0397**2 is 0.0015760899999999998, 0.0397*0.0397 0.00157609).
_pow = np.frompyfunc(pow, 2, 1)


def _partial_matrices(s: np.ndarray) -> tuple[Space, Space, np.ndarray]:
    # the true label is always in the set, and each of the other two with probability s
    weight = [(_pow(s, spurious) * _pow(1.0 - s, 2 - spurious)).astype(float) for spurious in range(3)]
    rows = [[weight[bits.count("1") - 1] if bit == "1" else 0.0 for bit in bits] for bits in PARTIAL_LABEL_SETS]
    return Space(["1", "2", "3"]), Space(PARTIAL_LABEL_SETS), _stack(len(s), rows)


def _partial_stats(s: np.ndarray) -> tuple[np.ndarray, ...]:
    return 1.0 - s, np.full_like(s, np.nan), np.full_like(s, np.nan)


class Family(NamedTuple):
    """Parameter names in spec order; the matrices and closed forms take them
    in that order, ``classes`` as a count and each probability as an array
    of G values.  ``matrices`` gives the domain, the codomain and the
    (G, k, m) stack of the G kernels' matrices; ``stats`` the G values of
    alpha, the row norm and the corrected 0-1 norm, NaN where there is no
    closed form."""

    params: tuple[str, ...]
    matrices: Callable[..., tuple[Space, Space, np.ndarray]]
    stats: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]


FAMILIES = {
    BINARY: Family(("sigma_neg", "sigma_pos"), _binary_matrices, _binary_stats),
    SYMMETRIC: Family(("classes", "sigma"), _symmetric_matrices, _symmetric_stats),
    SEMI_SUPERVISED: Family(("sigma_neg", "sigma_pos"), _semi_supervised_matrices, _semi_supervised_stats),
    PARTIAL: Family(("sigma",), _partial_matrices, _partial_stats),
}


def family(name: str) -> Family:
    try:
        return FAMILIES[typed(name, 'corruption "family"', STR)]
    except KeyError:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}") from None


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


def build_kernels(name: str, *values) -> tuple[Space, Space, np.ndarray]:
    """The domain, the codomain and the (G, k, m) matrix stack of family
    ``name`` at its parameters ``values``, in order: ``classes`` a count and
    each probability an array of G values, all valid.  The stack is checked
    once, as a :class:`Kernel` checks its matrix."""
    domain, codomain, matrices = family(name).matrices(*values)
    check_stochastic(matrices)
    return domain, codomain, matrices


def _points(spec: CorruptionSpec, count: int = 1) -> list:
    """The parameters of ``spec``, each probability as an array of ``count`` copies of its value."""
    return [value if key == "classes" else np.full(count, value) for key, value in spec.params]


def build_kernel(spec: CorruptionSpec) -> Kernel:
    """The kernel of ``spec``: the one-point stack of :func:`build_kernels`."""
    domain, codomain, matrices = family(spec.family).matrices(*_points(spec))
    return Kernel(domain, codomain, matrices[0])


def spaces(spec: CorruptionSpec) -> tuple[Space, Space]:
    """The domain and the codomain of ``spec``'s kernel, from its family's
    stack of no kernels, so no matrix is built."""
    return family(spec.family).matrices(*_points(spec, 0))[:2]


def closed_form_stats(spec: CorruptionSpec) -> ClosedFormStats:
    """The closed forms of ``spec``: the one-point case of its family's ``stats``."""
    stats = [float(values[0]) for values in family(spec.family).stats(*_points(spec))]
    return ClosedFormStats(*(None if math.isnan(value) else value for value in stats))


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
