"""Reconstructions (left inverses) of corruption kernels and corrected losses.

A corruption T is reconstructible when some linear map R satisfies RT = I.
Expectations against the clean distribution can then be taken with corrupted
samples by replacing a loss ell with the corrected loss R* ell, which is
unbiased: <P, ell_a> = <T(P), corrected_a> for every P.  Corrected losses may
be negative even when ell is not; nothing here clamps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import divergence
from .errors import LengthMismatch, NotReconstructible, RankDeficient, SpaceMismatch
from .kernels import KERNEL, SPACE, Kernel, Space
from .schema import MATRIX, NAMES, fields, instance_of, read_fields, typed

#: Left-inverse residual allowed before a Reconstruction is rejected.
RESIDUAL_ATOL = 1e-9

#: A singular value below this fraction of the largest marks the kernel's
#: columns dependent for reconstruction purposes.
RANK_SV_RTOL = 1e-5


@dataclass(frozen=True, eq=False)
class LossTable:
    """A loss ell: outcomes x actions -> R as a dense matrix, with its sup
    norm max |ell| computed once."""

    outcomes: Space
    actions: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    sup_norm: float = field(init=False)

    def __post_init__(self):
        read_fields(self, "loss", outcomes=SPACE, actions=NAMES, values=MATRIX)
        if self.values.shape != (shape := (len(self.outcomes), len(self.actions))):
            raise LengthMismatch(f"loss values have shape {self.values.shape}, expected {shape}")
        object.__setattr__(self, "sup_norm", float(np.abs(self.values).max()))


#: The kind of a :class:`LossTable` argument.
LOSS = instance_of(LossTable)


def zero_one_loss(space: Space) -> LossTable:
    """0-1 loss with one action per outcome, in outcome order."""
    space = typed(space, "space", SPACE)
    return LossTable(space, space.labels, 1.0 - np.eye(len(space)))


def left_inverses(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pseudoinverses R = V diag(1/s) U^t of the k x m matrices on the
    last two axes of ``matrices``, from one stacked thin SVD, and whether
    each passes the rank test: m singular values, the smallest at least
    ``RANK_SV_RTOL`` of the largest.  A matrix that fails it divides by ones
    instead, so its R is finite but no left inverse."""
    u, s, vt = np.linalg.svd(matrices, full_matrices=False)
    # fewer corrupted outcomes than clean ones leave fewer than m singular values
    full = (s[..., -1] >= RANK_SV_RTOL * s[..., 0]) & (s.shape[-1] == matrices.shape[-1])
    if not full.all():  # where every matrix passes, the mask would select s itself
        s = np.where(full[..., None], s, 1.0)
    return (vt.swapaxes(-1, -2) / s[..., None, :]) @ u.swapaxes(-1, -2), full


def statistics(matrices: np.ndarray, loss: np.ndarray | None) -> tuple:
    """The left-inverse residual, the largest absolute entry of RT - I, the
    row norm of R (as :func:`op_norm_row_sum`) and the sup norm of ``loss``
    (an m x a array, or None) corrected by R (as :func:`corrected_sup_norm`),
    for the pseudoinverse R of :func:`left_inverses`: one value each for one
    k x m matrix, an array of one value per matrix for a (G, k, m) stack.
    The residual is 0 and both norms are NaN where the rank test fails, and
    the last is None without a loss.  Nothing is checked here."""
    rec, full = left_inverses(matrices)
    residual = np.abs(rec @ matrices - np.eye(matrices.shape[-1])).max(axis=(-2, -1))
    row_norm = np.abs(rec).sum(axis=-2).max(axis=-1)
    corrected = None if loss is None else np.abs(rec.swapaxes(-1, -2) @ loss).max(axis=(-2, -1))
    if full.all():  # the masks below would select every value as it is
        return residual, row_norm, corrected
    return (np.where(full, residual, 0.0), np.where(full, row_norm, np.nan),
            corrected if corrected is None else np.where(full, corrected, np.nan))


def is_reconstructible(t: Kernel) -> bool:
    """True when T has full column rank under the relative singular-value threshold."""
    return bool(left_inverses(typed(t, "t", KERNEL).matrix)[1])


def check_residual(residual: float) -> float:
    """A left inverse's ``residual``, the largest absolute entry of RT - I,
    once it is at most ``RESIDUAL_ATOL``."""
    if not residual <= RESIDUAL_ATOL:
        raise NotReconstructible(f"matrix is not a left inverse: residual {residual:.3e} > {RESIDUAL_ATOL:.0e}")
    return residual


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
        read_fields(self, "reconstruction", kernel=KERNEL, matrix=MATRIX)
        r = self.matrix
        m, k = len(self.kernel.domain), len(self.kernel.codomain)
        if r.shape != (m, k):
            raise LengthMismatch(f"reconstruction has shape {r.shape}, expected ({m}, {k})")
        residual = float(np.abs(r @ self.kernel.matrix - np.eye(m)).max())
        object.__setattr__(self, "residual", check_residual(residual))

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "residual": self.residual,
        }


#: The kind of a :class:`Reconstruction` argument.
RECONSTRUCTION = instance_of(Reconstruction)


def pseudoinverse(t: Kernel) -> Reconstruction:
    """The Moore-Penrose left inverse R = V diag(1/s) U^t of T, from
    :func:`left_inverses`; raises :class:`RankDeficient` when T fails the
    rank test."""
    t = typed(t, "t", KERNEL)
    rec, full = left_inverses(t.matrix)
    if not full:
        raise RankDeficient("kernel has (numerically) dependent columns; no left inverse")
    return Reconstruction(kernel=t, matrix=rec)


def check_loss(t: Kernel, loss: LossTable) -> None:
    """Raise SpaceMismatch unless the loss is over the kernel's clean outcomes."""
    if loss.outcomes != t.domain:
        raise SpaceMismatch("loss outcomes must match the corruption's domain")


def corrected_loss(r: Reconstruction, loss: LossTable) -> LossTable:
    """Transfer a loss to the corrupted space: corrected_a = R* ell_a.

    The result satisfies <P, ell_a> = <T(P), corrected_a> for all P.
    """
    r, loss = typed(r, "r", RECONSTRUCTION), typed(loss, "loss", LOSS)
    check_loss(r.kernel, loss)
    return LossTable(r.kernel.codomain, loss.actions, r.matrix.T @ loss.values)


def op_norm_row_sum(r: Reconstruction) -> float:
    """Operator 1-norm of R: the maximum absolute column sum.

    Equals the infinity-norm (max absolute row sum) of the adjoint R*, the
    worst-case blow-up factor for corrected sup norms.
    """
    return float(np.abs(typed(r, "r", RECONSTRUCTION).matrix).sum(axis=0).max())


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
        "values": loss.values.tolist(),
    }


def loss_from_json(obj: dict) -> LossTable:
    outcomes, actions, values = fields(obj, "loss", "outcomes", "actions", "values")
    return LossTable(Space(outcomes), actions, values)
