"""Reconstructions (left inverses) of corruption kernels and corrected losses.

A corruption T is reconstructible when some linear map R satisfies RT = I.
Expectations against the clean distribution can then be taken with corrupted
samples by replacing a loss ell with the corrected loss R* ell, which is
unbiased: <P, ell_a> = <T(P), corrected_a> for every P.  Corrected losses may
be negative even when ell is not; nothing here clamps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import divergence
from .errors import InvalidParameter, LengthMismatch, NotReconstructible, RankDeficient, SpaceMismatch
from .kernels import Kernel, Space, _freeze
from .schema import MATRIX, NAMES, fields

#: Left-inverse residual allowed before a Reconstruction is rejected.
RESIDUAL_ATOL = 1e-9

#: A pivot below this fraction of the largest pivot marks the Gram matrix
#: singular for reconstruction purposes.
RANK_PIVOT_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class LossTable:
    """A loss ell: outcomes x actions -> R as a dense matrix."""

    outcomes: Space
    actions: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __init__(self, outcomes: Space, actions: Iterable[str], values):
        actions = tuple(str(a) for a in actions)
        if not actions:
            raise LengthMismatch("a loss table needs at least one action")
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (len(outcomes), len(actions)):
            raise LengthMismatch(
                f"loss values have shape {v.shape}, expected "
                f"({len(outcomes)}, {len(actions)})"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParameter("loss entries must be finite")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "values", _freeze(v))

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def column(self, action: str) -> np.ndarray:
        """The curried loss ell_a as a vector over outcomes."""
        try:
            j = self.actions.index(action)
        except ValueError:
            raise SpaceMismatch(f"{action!r} is not an action of this table") from None
        return self.values[:, j]


def zero_one_loss(space: Space) -> LossTable:
    """0-1 loss with one action per outcome, in outcome order."""
    n = len(space)
    return LossTable(space, space.labels, 1.0 - np.eye(n))


def _eliminate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Forward elimination with partial pivoting; returns (U, b', pivots)."""
    a = a.copy()
    b = b.copy()
    n = a.shape[0]
    pivots: list[float] = []
    for col in range(n):
        lead = col + int(np.argmax(np.abs(a[col:, col])))
        pivots.append(float(abs(a[lead, col])))
        if lead != col:
            a[[col, lead]] = a[[lead, col]]
            b[[col, lead]] = b[[lead, col]]
        if a[col, col] != 0.0:
            factors = a[col + 1:, col] / a[col, col]
            a[col + 1:, col:] -= np.outer(factors, a[col, col:])
            b[col + 1:] -= np.outer(factors, b[col])
    return a, b, pivots


def _pivots_ok(pivots: Sequence[float]) -> bool:
    largest = max(pivots)
    return largest > 0.0 and min(pivots) >= RANK_PIVOT_RTOL * largest


def is_reconstructible(t: Kernel) -> bool:
    """True when T has full column rank under the relative pivot threshold."""
    gram = t.matrix.T @ t.matrix
    _, _, pivots = _eliminate(gram, np.zeros((gram.shape[0], 1)))
    return _pivots_ok(pivots)


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """A validated left inverse R of a corruption kernel (RT = I).

    ``matrix`` is |domain| x |codomain|; ``residual`` is the largest absolute
    entry of RT - I and must not exceed 1e-9.  External R matrices are
    accepted through the same validation.
    """

    kernel: Kernel
    matrix: np.ndarray = field(repr=False)
    residual: float = field(init=False)

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=np.float64)
        m, k = len(self.kernel.domain), len(self.kernel.codomain)
        if r.shape != (m, k):
            raise LengthMismatch(f"reconstruction has shape {r.shape}, expected ({m}, {k})")
        residual = float(np.abs(r @ self.kernel.matrix - np.eye(m)).max())
        if not residual <= RESIDUAL_ATOL:
            raise NotReconstructible(
                f"matrix is not a left inverse: residual {residual:.3e} > {RESIDUAL_ATOL:.0e}"
            )
        object.__setattr__(self, "matrix", _freeze(r))
        object.__setattr__(self, "residual", residual)

    def to_json(self) -> dict:
        return {
            "matrix": [[float(x) for x in row] for row in self.matrix],
            "residual": self.residual,
        }


def pseudoinverse(t: Kernel) -> Reconstruction:
    """The Moore-Penrose left inverse R = (T^t T)^{-1} T^t; raises
    :class:`RankDeficient` when the pivots fail the rank test."""
    gram = t.matrix.T @ t.matrix
    u, rhs, pivots = _eliminate(gram, t.matrix.T.copy())
    if not _pivots_ok(pivots):
        raise RankDeficient(
            "kernel has (numerically) dependent columns; no left inverse"
        )
    n = gram.shape[0]
    r = np.zeros_like(rhs)
    for row in range(n - 1, -1, -1):
        r[row] = (rhs[row] - u[row, row + 1:] @ r[row + 1:]) / u[row, row]
    return Reconstruction(kernel=t, matrix=r)


def corrected_loss(r: Reconstruction, loss: LossTable) -> LossTable:
    """Transfer a loss to the corrupted space: corrected_a = R* ell_a.

    The result satisfies <P, ell_a> = <T(P), corrected_a> for all P.
    """
    if loss.outcomes != r.kernel.domain:
        raise SpaceMismatch("loss outcomes must match the corruption's domain")
    return LossTable(r.kernel.codomain, loss.actions, r.matrix.T @ loss.values)


def op_norm_row_sum(r: Reconstruction) -> float:
    """Operator 1-norm of R: the maximum absolute column sum.

    Equals the infinity-norm (max absolute row sum) of the adjoint R*, the
    worst-case blow-up factor for corrected sup norms.
    """
    return float(np.abs(r.matrix).sum(axis=0).max())


def corrected_sup_norm(r: Reconstruction, loss: LossTable) -> float:
    """Sup norm of the corrected loss R* ell."""
    return corrected_loss(r, loss).sup_norm


@dataclass(frozen=True)
class SandwichReport:
    alpha: float
    inv_alpha: float
    row_norm: float
    holds: bool


def sandwich_report(t: Kernel) -> SandwichReport:
    """Check 1/alpha(T) <= ||R*||_inf for the Moore-Penrose reconstruction."""
    r = pseudoinverse(t)
    a = divergence.alpha(t)
    inv = 1.0 / a if a > 0.0 else float("inf")
    norm = op_norm_row_sum(r)
    return SandwichReport(alpha=a, inv_alpha=inv, row_norm=norm, holds=inv <= norm + RESIDUAL_ATOL)


# -- JSON wire format -----------------------------------------------------------

def loss_to_json(loss: LossTable) -> dict:
    return {
        "outcomes": list(loss.outcomes.labels),
        "actions": list(loss.actions),
        "values": [[float(x) for x in row] for row in loss.values],
    }


def loss_from_json(obj: dict) -> LossTable:
    outcomes, actions, values = fields(
        obj, "loss", ("outcomes", NAMES), ("actions", NAMES), ("values", MATRIX))
    return LossTable(Space(outcomes), actions, values)
