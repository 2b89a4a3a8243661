"""Finite probability distributions and Markov kernels.

A kernel from a space X (size m) to a space Y (size k) is stored as a dense
k x m column-stochastic matrix: column j is the distribution of the output
given input x_j.  Composition is matrix multiplication, parallel combination
is the Kronecker product, and the adjoint (transpose) pulls functions on Y
back to functions on X.

All values are immutable after construction: each keeps its own read-only
copy of the numbers it was given, read by ``schema``'s array kinds like its
other fields, so a caller who later writes to the array passed in changes
nothing.  Every operation is a pure function, so values are safe to share
across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (
    InvalidParameter,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
    SpaceMismatch,
    guard,
)
from .schema import MATRIX, NAMES, POSITIVE_COUNT, VECTOR, fields, instance_of, list_of, read_fields, typed

#: Absolute tolerance on "sums to one" checks at construction time.
STOCHASTIC_ATOL = 1e-9

#: Most matrix entries a kernel may have.  A product kernel is refused before
#: its matrix is built, any other once its matrix is read and checked.
PRODUCT_ENTRY_GUARD = 10**6

#: Separator used to build product-space outcome names, e.g. "a⊗b".
PRODUCT_SEP = "⊗"


@dataclass(frozen=True)
class Space:
    """An ordered finite set of distinct outcome names."""

    labels: tuple[str, ...]

    def __post_init__(self):
        read_fields(self, "space", labels=NAMES)
        if len(set(self.labels)) != len(self.labels):
            raise InvalidParameter(f"duplicate outcome names in {self.labels!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise SpaceMismatch(f"{name!r} is not an outcome of {self.labels!r}") from None

    def __iter__(self):
        return iter(self.labels)


#: The kind of a :class:`Space` field.
SPACE = instance_of(Space)


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability vector over a named finite space."""

    space: Space
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        read_fields(self, "distribution", space=SPACE, weights=VECTOR)
        w = self.weights
        if w.shape != (len(self.space),):
            raise LengthMismatch(f"{w.shape} weights for {len(self.space)} outcomes")
        if (w < 0).any():
            raise NegativeWeight("distribution weights must be non-negative")
        if not abs(float(w.sum()) - 1.0) <= STOCHASTIC_ATOL:
            raise NotNormalized(f"weights sum to {float(w.sum())!r}, not 1")

    def __getitem__(self, name: str) -> float:
        return float(self.weights[self.space.index(name)])


#: The kind of a :class:`Dist` argument.
DIST = instance_of(Dist)


@dataclass(frozen=True, eq=False)
class Kernel:
    """A Markov kernel domain ⇝ codomain as a column-stochastic matrix.

    ``matrix[i, j]`` is the probability of codomain outcome i given domain
    outcome j; every column sums to 1.  One of more than
    ``PRODUCT_ENTRY_GUARD`` entries is refused once its matrix is read and
    checked, before any superlinear work on it.
    """

    domain: Space
    codomain: Space
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        read_fields(self, "kernel", domain=SPACE, codomain=SPACE, matrix=MATRIX)
        m = self.matrix
        if m.shape != (shape := (len(self.codomain), len(self.domain))):
            raise LengthMismatch(f"kernel matrix has shape {m.shape}, expected {shape}")
        check_stochastic(m)
        guard(m.size, PRODUCT_ENTRY_GUARD, f"kernel entries, {shape[0]}x{shape[1]} =")

    def column(self, j: int) -> Dist:
        """The output distribution for the j-th domain outcome."""
        return Dist(self.codomain, self.matrix[:, j])


#: The kind of a :class:`Kernel` field.
KERNEL = instance_of(Kernel)


def check_stochastic(matrices: np.ndarray) -> None:
    """Refuse a k x m matrix, or the first matrix of a (G, k, m) stack, that
    has a negative entry or a column whose sum is off 1 by more than
    ``STOCHASTIC_ATOL``."""
    negative = matrices < 0
    sums = matrices.sum(axis=-2)
    bad = np.abs(sums - 1.0) > STOCHASTIC_ATOL
    if negative.any() or bad.any():
        sums, bad = sums.reshape(-1, matrices.shape[-1]), bad.reshape(-1, matrices.shape[-1])
        negative = negative.reshape(len(sums), -1).any(axis=1)
        g = int(np.argmax(negative | bad.any(axis=1)))
        if negative[g]:
            raise NegativeWeight("kernel entries must be non-negative")
        j = int(np.argmax(bad[g]))
        raise NotNormalized(f"column {j} sums to {sums[g, j]!r}, not 1")


def make_dist(space: Space, weights: Sequence[float]) -> Dist:
    """Validate weights into a :class:`Dist`.  Never normalizes silently."""
    return Dist(space, weights)


def normalized(weights: Sequence[float]) -> np.ndarray:
    """Explicitly rescale non-negative weights to sum to 1."""
    w = typed(weights, "weights", VECTOR)
    if np.any(w < 0):
        raise NegativeWeight("cannot normalize negative weights")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total == np.inf:  # finite weights summing past the largest double
        w = w / w.max()
        total = float(w.sum())
    if total <= 0:
        raise NotNormalized("cannot normalize an all-zero weight vector")
    return w / total


def point_mass(space: Space, name: str) -> Dist:
    w = np.zeros(len(space))
    w[space.index(name)] = 1.0
    return Dist(space, w)


def uniform(space: Space) -> Dist:
    return Dist(space, np.full(len(space), 1.0 / len(space)))


def identity(space: Space) -> Kernel:
    return Kernel(space, space, np.eye(len(space)))


def compose(t2: Kernel, t1: Kernel) -> Kernel:
    """The kernel ``t2 ∘ t1`` (first t1, then t2) via matrix product."""
    t2, t1 = typed(t2, "t2", KERNEL), typed(t1, "t1", KERNEL)
    if t1.codomain != t2.domain:
        raise SpaceMismatch(
            f"cannot compose: inner codomain {t1.codomain.labels!r} != "
            f"outer domain {t2.domain.labels!r}"
        )
    return Kernel(t1.domain, t2.codomain, t2.matrix @ t1.matrix)


def pushforward(t: Kernel, p: Dist) -> Dist:
    """The image distribution T(P)."""
    t, p = typed(t, "t", KERNEL), typed(p, "p", DIST)
    if p.space != t.domain:
        raise SpaceMismatch("distribution is not on the kernel's domain")
    return Dist(t.codomain, t.matrix @ p.weights)


def pullback(t: Kernel, f: Sequence[float]) -> np.ndarray:
    """The adjoint action on functions: (T* f)(x) = E_{y~T(x)} f(y).

    Satisfies <T(P), f> == <P, pullback(T, f)> for every P.
    """
    t, f = typed(t, "t", KERNEL), typed(f, "f", VECTOR)
    if f.shape != (len(t.codomain),):
        raise LengthMismatch(f"function has {f.shape[0]} values for {len(t.codomain)} outcomes")
    return t.matrix.T @ f


def product_space(spaces: Sequence[Space]) -> Space:
    """Cartesian product with deterministic names ``a⊗b⊗...``."""
    combos = itertools.product(*(s.labels for s in spaces))
    return Space([PRODUCT_SEP.join(c) for c in combos])


def parallel_product(ts: Sequence[Kernel]) -> Kernel:
    """Run kernels in parallel on the product of their domains.

    The matrix is the Kronecker product of the factors, taken in order, so
    the first factor varies slowest in the product-space outcome order.
    """
    ts = typed(ts, "parallel_product factors", list_of(KERNEL, "a list of kernels"))
    rows = cols = 1
    for t in ts:  # stop at the first factor past the guard, while the counts are small
        rows *= len(t.codomain)
        cols *= len(t.domain)
        guard(rows * cols, PRODUCT_ENTRY_GUARD, f"product kernel entries, at least {rows}x{cols} =")
    if len(ts) == 1:
        return ts[0]
    matrix = reduce(np.kron, (t.matrix for t in ts))
    return Kernel(
        product_space([t.domain for t in ts]),
        product_space([t.codomain for t in ts]),
        matrix,
    )


def replicate(t: Kernel, n: int) -> Kernel:
    """The n-fold parallel product of a kernel with itself.

    Once ``t`` reads as a kernel, a count past log2 of the guard is refused
    before any factor is listed, whatever its size: a kernel of two or more
    entries has at least 2**n of them, and a 1x1 kernel gains nothing but a
    longer outcome name.
    """
    t, n = typed(t, "t", KERNEL), typed(n, "replication count", POSITIVE_COUNT)
    guard(n, PRODUCT_ENTRY_GUARD.bit_length() - 1, "replication count")
    return parallel_product([t] * n)


# -- JSON wire formats ---------------------------------------------------------

def kernel_to_json(t: Kernel) -> dict:
    return {
        "from": list(t.domain.labels),
        "to": list(t.codomain.labels),
        "matrix": t.matrix.tolist(),
    }


def kernel_from_json(obj: dict) -> Kernel:
    """The kernel a document describes, read as a :class:`Kernel`: one of
    more than ``PRODUCT_ENTRY_GUARD`` entries is refused once its labels and
    matrix are read and checked, so a malformed document is bad input
    whatever its size."""
    domain, codomain, matrix = fields(obj, "kernel", "from", "to", "matrix")
    return Kernel(Space(domain), Space(codomain), matrix)


def dist_to_json(p: Dist) -> dict:
    return {"space": list(p.space.labels), "weights": p.weights.tolist()}


def dist_from_json(obj: dict) -> Dist:
    space, weights = fields(obj, "distribution", "space", "weights")
    return Dist(Space(space), weights)
