"""Risk bounds: Le Cam two-point lower bounds, PAC-Bayes complexity terms,
and fast-rate diagnostics.

The lower-bound family is built on one identity: corrupting an experiment
with a kernel of contraction coefficient ``alpha`` is exactly as hard as
running the clean experiment with the real-valued effective sample count
``alpha * n`` (and ``sum_i alpha_i * n_i`` for a mix of corruptions).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import divergence
from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    MissingStatistic,
    SpaceMismatch,
    _shown,
)
from .kernels import DIST, KERNEL, Dist, Kernel, Space, kernel_from_json
from .reconstruct import LOSS, LossTable, Reconstruction, corrected_loss
from .schema import (INT, LIST, NONNEGATIVE, NUM, OBJECT, POSITIVE, PROBABILITY, fields, instance_of, list_of, maybe,
                     read_fields, typed, within)

#: Risks, expectations and squared differences at or below this count as
#: zero: in the Bernstein and compatibility ratios (the boundary between "no
#: excess risk" and "some") and in the fast-rate separability test.
EXCESS_TOL = 1e-12

#: Most action pairs times corrupted times clean outcomes that
#: ``eta_compatibility`` holds in one array pass, so a pass's arrays take at
#: most 512 KB each.  Measured on a 2-core Xeon with 200 actions on a 16 x 16
#: kernel (best of 5, 3 runs), passes of 2^16 entries take 14 to 17 ms and
#: passes of 2^18 to 2^20, at 4 to 16 times the memory, 12 to 15 ms; 2^14
#: take 23 ms and one pass of all 5.1 million entries 28 to 32 ms.
ETA_CHUNK_ENTRIES = 2**16

#: A mixed source's count, and PAC-Bayes's n: at most a double's largest
#: value, so alpha * count and kl / n stay floats.
_SOURCE_COUNT = within(INT, 0, sys.float_info.max)
_PACBAYES_N = within(INT, 1, sys.float_info.max)

#: The fast-rate curvature: positive, and at most the log of a double's
#: largest value, so e**beta stays a float.
_BETA = within(NUM, 0, math.log(sys.float_info.max), "(]")

#: Below this beta, e**beta - 1 - beta cancels in more bits than its series
#: loses, so gamma sums the series up to beta**16 / 17!, whose first term left
#: out is below an ulp of the sum there.
_GAMMA_SERIES_BELOW = 0.5
_GAMMA_SERIES_TERMS = 17


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """A loss over hypotheses x actions plus an experiment kernel.

    The hypotheses, actions and loss are checked and frozen as a
    :class:`LossTable` over the hypothesis space, whose labels, actions and
    values the problem keeps; the one rule of its own is that the
    experiment's domain lists the hypotheses in order.
    """

    thetas: tuple[str, ...]
    actions: tuple[str, ...]
    loss: np.ndarray = field(repr=False)
    experiment: Kernel = field(repr=False)

    def __post_init__(self):
        read_fields(self, "problem", experiment=KERNEL)
        table = LossTable(Space(self.thetas), self.actions, self.loss)
        if self.experiment.domain != table.outcomes:
            raise SpaceMismatch("experiment domain must list the hypotheses in order")
        object.__setattr__(self, "thetas", table.outcomes.labels)
        object.__setattr__(self, "actions", table.actions)
        object.__setattr__(self, "loss", table.values)

    def theta_index(self, ref: int | str) -> int:
        return _resolve(self.thetas, ref, "hypothesis")

    def action_index(self, ref: int | str) -> int:
        return _resolve(self.actions, ref, "action")


#: The kind of a :class:`DecisionProblem` argument.
PROBLEM = instance_of(DecisionProblem)


def _resolve(names: tuple[str, ...], ref: int | str, kind: str) -> int:
    if isinstance(ref, str):
        if ref in names:
            return names.index(ref)
        raise IndexOutOfRange(f"unknown {kind} {ref!r}")
    i = typed(ref, f"{kind} index", INT)
    if not 0 <= i < len(names):
        raise IndexOutOfRange(f"{kind} index {_shown(i)} out of range [0, {len(names)})")
    return i


def regret(problem: DecisionProblem, theta: int | str, action: int | str) -> float:
    """Loss of an action relative to the best action for that hypothesis."""
    problem = typed(problem, "problem", PROBLEM)
    i = problem.theta_index(theta)
    j = problem.action_index(action)
    row = problem.loss[i]
    return float(row[j] - row.min())


def separation(problem: DecisionProblem, theta1: int | str, theta2: int | str) -> float:
    """Minimal combined regret against two hypotheses at once.

    Small separation means one action serves both hypotheses; large
    separation makes them worth distinguishing.
    """
    problem = typed(problem, "problem", PROBLEM)
    i = problem.theta_index(theta1)
    j = problem.theta_index(theta2)
    r1 = problem.loss[i] - problem.loss[i].min()
    r2 = problem.loss[j] - problem.loss[j].min()
    return float((r1 + r2).min())


def lecam_replicated(
    problem: DecisionProblem,
    theta1: int | str,
    theta2: int | str,
    n: float,
    clamped: bool = True,
) -> float:
    """Two-point lower bound for n replicates: rho * (1/4 - (n/4) V).

    ``n`` may be any finite non-negative real; corrupted variants pass
    effective counts alpha * n.  The clamp at zero drops the vacuous negative
    branch; pass ``clamped=False`` to see the raw value, which only this
    function gives (``lecam_bound``, ``lecam_corrupted`` and ``lecam_mixed``
    always clamp).
    """
    problem, n = typed(problem, "problem", PROBLEM), typed(n, "replication count", NONNEGATIVE)
    i = problem.theta_index(theta1)
    j = problem.theta_index(theta2)
    rho = separation(problem, i, j)
    v = divergence.variational(problem.experiment.column(i), problem.experiment.column(j))
    value = rho * (0.25 - 0.25 * n * v)
    return max(0.0, value) if clamped else value


def lecam_bound(
    problem: DecisionProblem,
    theta1: int | str,
    theta2: int | str,
) -> float:
    """Single-observation two-point lower bound: rho * (1 - V) / 4."""
    return lecam_replicated(problem, theta1, theta2, 1.0)


def check_corruption(problem: DecisionProblem, *kernels: Kernel | None) -> None:
    """Raise SpaceMismatch unless each kernel, ``None`` aside, corrupts the experiment's outputs."""
    for t in kernels:
        if t is not None and t.domain != problem.experiment.codomain:
            raise SpaceMismatch("corruption domain must be the experiment's output space")


def lecam_corrupted(
    problem: DecisionProblem,
    t: Kernel,
    theta1: int | str,
    theta2: int | str,
    n: float,
) -> float:
    """Lower bound after corrupting each replicate by ``t``.

    Identical to ``lecam_replicated`` at the effective count alpha(t) * n.
    """
    check_corruption(typed(problem, "problem", PROBLEM), typed(t, "t", KERNEL))
    return lecam_replicated(problem, theta1, theta2, divergence.alpha(t) * typed(n, "replication count", NUM))


@dataclass(frozen=True, eq=False)
class MixedSource:
    """One corruption stream inside a mixed data set.

    ``alpha`` falls back to the kernel's contraction coefficient when not
    given; ``corrected_sup`` is the sup norm of that source's corrected loss
    and is only needed by the PAC-Bayes side.
    """

    count: int
    kernel: Kernel | None = None
    alpha: float | None = None
    corrected_sup: float | None = None

    def __post_init__(self):
        read_fields(self, "mixed source", count=_SOURCE_COUNT,
                    kernel=maybe(KERNEL), alpha=maybe(PROBABILITY), corrected_sup=maybe(NONNEGATIVE))
        if self.alpha is None and self.kernel is not None:
            object.__setattr__(self, "alpha", divergence.alpha(self.kernel))


@dataclass(frozen=True, eq=False)
class MixedCorruption:
    sources: tuple[MixedSource, ...]

    def __post_init__(self):
        read_fields(self, "mixed corruption", sources=list_of(instance_of(MixedSource), "a list of MixedSource"))
        if self.total < 1:
            raise InvalidParameter("total sample count must be at least 1")

    @property
    def total(self) -> int:
        return sum(s.count for s in self.sources)

    def effective_count(self) -> float:
        """sum_i alpha_i * n_i, the clean-sample equivalent of the mix."""
        if any(s.alpha is None for s in self.sources):
            raise MissingStatistic("source lacks alpha (and has no kernel)")
        return sum(s.alpha * s.count for s in self.sources)

    def mixing_constant(self) -> float:
        """sqrt(sum_i r_i ||corrected_i||_inf^2) with r_i = n_i / n."""
        if any(s.corrected_sup is None for s in self.sources):
            raise MissingStatistic("source lacks corrected_sup")
        n = self.total  # as the norm of the sqrt(r_i) * sup_i, so no square overflows
        return math.hypot(*(math.sqrt(s.count / n) * s.corrected_sup for s in self.sources))


def lecam_mixed(
    problem: DecisionProblem,
    mix: MixedCorruption,
    theta1: int | str,
    theta2: int | str,
) -> float:
    """Lower bound for a mixed data set via its effective clean count."""
    mix = typed(mix, "mix", instance_of(MixedCorruption))
    check_corruption(typed(problem, "problem", PROBLEM), *(s.kernel for s in mix.sources))
    return lecam_replicated(problem, theta1, theta2, mix.effective_count())


def pacbayes_upper(
    corrected_sup: float, n: int, kl: float, delta: float | None = None
) -> float:
    """PAC-Bayes complexity term ||corrected||_inf * sqrt(2 kl / n).

    ``delta`` switches to the high-probability form by adding log(1/delta)
    to the divergence budget.
    """
    corrected_sup, kl = typed(corrected_sup, "corrected_sup", NONNEGATIVE), typed(kl, "kl", NONNEGATIVE)
    n, delta = typed(n, "n", _PACBAYES_N), typed(delta, "delta", maybe(within(NUM, 0, 1, "()")))
    if delta is not None:
        kl = kl - math.log(delta)  # 1 / delta overflows for a subnormal delta
    return corrected_sup * math.sqrt(2.0 * kl / n)


def pacbayes_mixed(mix: MixedCorruption, kl: float, delta: float | None = None) -> float:
    """Complexity term for mixed data: mixing_constant * sqrt(2 kl / n)."""
    mix = typed(mix, "mix", instance_of(MixedCorruption))
    return pacbayes_upper(mix.mixing_constant(), mix.total, kl, delta=delta)


def bernstein_constant(p: Dist, loss: LossTable) -> float:
    """Smallest K with E(ell_a - ell_best)^2 <= K E(ell_a - ell_best) for all a.

    Ties for the best action go to the lowest index.  Actions with zero
    excess risk but positive second moment make the condition fail (inf);
    with a single action the condition is vacuous and K = 0.
    """
    p, loss = typed(p, "p", DIST), typed(loss, "loss", LOSS)
    if loss.outcomes != p.space:
        raise SpaceMismatch("loss outcomes must match the distribution's space")
    risks = p.weights @ loss.values
    best = int(np.argmin(risks))
    diffs = loss.values - loss.values[:, best:best + 1]
    excess = p.weights @ diffs
    second = p.weights @ diffs**2
    counted = excess > EXCESS_TOL
    if np.any(~counted & (second > EXCESS_TOL)):
        return math.inf
    return float(np.max(second[counted] / excess[counted], initial=0.0))


def eta_compatibility(loss: LossTable, r: Reconstruction) -> float:
    """Distribution-free compatibility constant between a loss and the
    corruption T = ``r.kernel`` that the reconstruction R inverts.

    Returns the smallest eta such that, for every clean outcome z and action
    pair, the corrected-loss difference squared stays within
    eta * (clean difference)^2 at every corrupted outcome T can produce from
    z.  Pairs whose clean losses tie while the corrected ones do not force
    eta to infinity (the condition cannot hold).  The action pairs are
    checked together, in passes of at most ``ETA_CHUNK_ENTRIES`` pairs times
    corrupted times clean outcomes.
    """
    return _eta(loss, corrected_loss(r, loss).values, r.kernel)  # r is checked before r.kernel is read


def _eta(loss: LossTable, corrected: np.ndarray, t: Kernel) -> float:
    """:func:`eta_compatibility` of ``loss`` and the corruption ``t``, given
    ``corrected``, the values of the loss corrected by a reconstruction of
    ``t``."""
    support = t.matrix[:, None, :] > 0.0
    # the pairs a1 < a2 in np.triu_indices(n, 1)'s order, at a third of its cost
    first, second = np.nonzero(~np.tri(len(loss.actions), dtype=bool))
    per_pass = max(1, ETA_CHUNK_ENTRIES // t.matrix.size)
    eta = 0.0
    for start in range(0, len(first), per_pass):
        a1, a2 = first[start:start + per_pass], second[start:start + per_pass]
        clean_sq = ((loss.values.take(a1, axis=1) - loss.values.take(a2, axis=1)) ** 2).T
        # every column has support, so zeros off it leave each maximum as it is
        corr_sq = np.where(support, ((corrected.take(a1, axis=1) - corrected.take(a2, axis=1)) ** 2)[:, :, None],
                           0.0).max(axis=0)
        counted = clean_sq > EXCESS_TOL
        if np.any(~counted & (corr_sq > EXCESS_TOL)):
            return math.inf
        eta = max(eta, float(np.max(corr_sq[counted] / clean_sq[counted], initial=0.0)))
    return eta


def fastrate_gamma(beta: float, sup_norm: float) -> float:
    """gamma = (e^beta - 1 - beta) / (beta * ||ell||_inf), the curvature
    factor in the fast-rate PAC-Bayes bound."""
    beta, sup_norm = typed(beta, "beta", _BETA), typed(sup_norm, "sup_norm", POSITIVE)
    if beta >= _GAMMA_SERIES_BELOW:
        return (math.expm1(beta) - beta) / beta / sup_norm  # beta * sup_norm may underflow to 0
    ratio = 1.0  # (e^beta - 1 - beta) / beta = beta/2! + beta^2/3! + ..., by Horner's rule
    for k in range(_GAMMA_SERIES_TERMS, 2, -1):
        ratio = 1.0 + ratio * beta / k
    return beta / 2.0 * ratio / sup_norm


# -- JSON wire formats -----------------------------------------------------------

def problem_from_json(obj: dict) -> DecisionProblem:
    thetas, actions, loss, experiment = fields(obj, "problem", "thetas", "actions", "loss",
                                               ("experiment", OBJECT))
    return DecisionProblem(thetas=thetas, actions=actions, loss=loss,
                           experiment=kernel_from_json(experiment))


def mixed_from_json(obj: list) -> MixedCorruption:
    sources = []
    for i, entry in enumerate(typed(obj, "mixed corruption", LIST)):
        count, kernel, alpha, corrected_sup = fields(entry, f"mixed source {i}", "count", optional=(
            ("kernel", OBJECT, None), ("alpha", None), ("corrected_sup", None)))
        kernel = kernel_from_json(kernel) if kernel is not None else None
        sources.append(MixedSource(count, kernel, alpha, corrected_sup))
    return MixedCorruption(sources)
