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
from typing import Sequence

import numpy as np

from . import divergence
from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    MissingStatistic,
    SpaceMismatch,
)
from .kernels import Kernel, Dist, kernel_from_json, _freeze
from .reconstruct import LossTable, Reconstruction
from .schema import INT, LIST, MATRIX, NAMES, NUM, OBJECT, fields, typed

#: Expectations below this threshold count as zero in Bernstein/compatibility
#: ratios (the tie boundary between "no excess risk" and "some excess risk").
EXCESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """A loss over hypotheses x actions plus an experiment kernel."""

    thetas: tuple[str, ...]
    actions: tuple[str, ...]
    loss: np.ndarray = field(repr=False)
    experiment: Kernel = field(repr=False)

    def __post_init__(self):
        thetas = tuple(str(t) for t in self.thetas)
        actions = tuple(str(a) for a in self.actions)
        loss = np.asarray(self.loss, dtype=np.float64)
        if not thetas or not actions:
            raise InvalidParameter("need at least one hypothesis and one action")
        if loss.shape != (len(thetas), len(actions)):
            raise InvalidParameter(
                f"loss has shape {loss.shape}, expected ({len(thetas)}, {len(actions)})"
            )
        if not np.all(np.isfinite(loss)):
            raise InvalidParameter("loss entries must be finite")
        if self.experiment.domain.labels != thetas:
            raise SpaceMismatch("experiment domain must list the hypotheses in order")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "loss", _freeze(loss))

    def theta_index(self, ref: int | str) -> int:
        return _resolve(self.thetas, ref, "hypothesis")

    def action_index(self, ref: int | str) -> int:
        return _resolve(self.actions, ref, "action")


def _resolve(names: tuple[str, ...], ref: int | str, kind: str) -> int:
    if isinstance(ref, str):
        if ref in names:
            return names.index(ref)
        raise IndexOutOfRange(f"unknown {kind} {ref!r}")
    i = int(ref)
    if not 0 <= i < len(names):
        raise IndexOutOfRange(f"{kind} index {i} out of range [0, {len(names)})")
    return i


def regret(problem: DecisionProblem, theta: int | str, action: int | str) -> float:
    """Loss of an action relative to the best action for that hypothesis."""
    i = problem.theta_index(theta)
    j = problem.action_index(action)
    row = problem.loss[i]
    return float(row[j] - row.min())


def separation(problem: DecisionProblem, theta1: int | str, theta2: int | str) -> float:
    """Minimal combined regret against two hypotheses at once.

    Small separation means one action serves both hypotheses; large
    separation makes them worth distinguishing.
    """
    i = problem.theta_index(theta1)
    j = problem.theta_index(theta2)
    r1 = problem.loss[i] - problem.loss[i].min()
    r2 = problem.loss[j] - problem.loss[j].min()
    return float((r1 + r2).min())


def _experiment_v(problem: DecisionProblem, i: int, j: int) -> float:
    e = problem.experiment
    return divergence.variational(e.column(i), e.column(j))


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
    branch; pass ``clamped=False`` to see the raw value.
    """
    if not 0.0 <= n < math.inf:
        raise InvalidParameter(f"replication count must be finite and >= 0, got {n!r}")
    i = problem.theta_index(theta1)
    j = problem.theta_index(theta2)
    rho = separation(problem, i, j)
    v = _experiment_v(problem, i, j)
    value = rho * (0.25 - 0.25 * n * v)
    return max(0.0, value) if clamped else value


def lecam_bound(
    problem: DecisionProblem,
    theta1: int | str,
    theta2: int | str,
    clamped: bool = True,
) -> float:
    """Single-observation two-point lower bound: rho * (1 - V) / 4."""
    return lecam_replicated(problem, theta1, theta2, 1.0, clamped=clamped)


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
    clamped: bool = True,
) -> float:
    """Lower bound after corrupting each replicate by ``t``.

    Identical to ``lecam_replicated`` at the effective count alpha(t) * n.
    """
    check_corruption(problem, t)
    return lecam_replicated(problem, theta1, theta2, divergence.alpha(t) * n, clamped=clamped)


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
        if self.count > sys.float_info.max:  # alpha * count must stay a float
            raise InvalidParameter(f"count must be at most {sys.float_info.max!r}")
        if int(self.count) != self.count or self.count < 0:
            raise InvalidParameter(f"count must be a non-negative integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        if self.alpha is None and self.kernel is not None:
            object.__setattr__(self, "alpha", divergence.alpha(self.kernel))
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise InvalidParameter(f"alpha must be in [0, 1], got {self.alpha!r}")
        if self.corrected_sup is not None and self.corrected_sup < 0.0:
            raise InvalidParameter("corrected_sup must be non-negative")


@dataclass(frozen=True, eq=False)
class MixedCorruption:
    sources: tuple[MixedSource, ...]

    def __init__(self, sources: Sequence[MixedSource]):
        sources = tuple(sources)
        if not sources:
            raise InvalidParameter("a mixed corruption needs at least one source")
        if sum(s.count for s in sources) < 1:
            raise InvalidParameter("total sample count must be at least 1")
        object.__setattr__(self, "sources", sources)

    @property
    def total(self) -> int:
        return sum(s.count for s in self.sources)

    def effective_count(self) -> float:
        """sum_i alpha_i * n_i, the clean-sample equivalent of the mix."""
        total = 0.0
        for s in self.sources:
            if s.alpha is None:
                raise MissingStatistic("source lacks alpha (and has no kernel)")
            total += s.alpha * s.count
        return total

    def mixing_constant(self) -> float:
        """sqrt(sum_i r_i ||corrected_i||_inf^2) with r_i = n_i / n."""
        n = self.total
        acc = 0.0
        for s in self.sources:
            if s.corrected_sup is None:
                raise MissingStatistic("source lacks corrected_sup")
            acc += (s.count / n) * s.corrected_sup**2
        return math.sqrt(acc)


def lecam_mixed(
    problem: DecisionProblem,
    mix: MixedCorruption,
    theta1: int | str,
    theta2: int | str,
    clamped: bool = True,
) -> float:
    """Lower bound for a mixed data set via its effective clean count."""
    check_corruption(problem, *(s.kernel for s in mix.sources))
    return lecam_replicated(problem, theta1, theta2, mix.effective_count(), clamped=clamped)


def pacbayes_upper(
    corrected_sup: float, n: int, kl: float, delta: float | None = None
) -> float:
    """PAC-Bayes complexity term ||corrected||_inf * sqrt(2 kl / n).

    ``delta`` switches to the high-probability form by adding log(1/delta)
    to the divergence budget.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n!r}")
    if kl < 0.0:
        raise InvalidParameter(f"kl must be >= 0, got {kl!r}")
    if corrected_sup < 0.0:
        raise InvalidParameter("corrected_sup must be >= 0")
    if delta is not None:
        if not 0.0 < delta < 1.0:
            raise InvalidParameter(f"delta must be in (0, 1), got {delta!r}")
        kl = kl + math.log(1.0 / delta)
    return corrected_sup * math.sqrt(2.0 * kl / n)


def pacbayes_mixed(mix: MixedCorruption, kl: float, delta: float | None = None) -> float:
    """Complexity term for mixed data: mixing_constant * sqrt(2 kl / n)."""
    return pacbayes_upper(mix.mixing_constant(), mix.total, kl, delta=delta)


def bernstein_constant(p: Dist, loss: LossTable) -> float:
    """Smallest K with E(ell_a - ell_best)^2 <= K E(ell_a - ell_best) for all a.

    Ties for the best action go to the lowest index.  Actions with zero
    excess risk but positive second moment make the condition fail (inf);
    with a single action the condition is vacuous and K = 0.
    """
    if loss.outcomes != p.space:
        raise SpaceMismatch("loss outcomes must match the distribution's space")
    if len(loss.actions) == 1:
        return 0.0
    risks = p.weights @ loss.values
    best = int(np.argmin(risks))
    diffs = loss.values - loss.values[:, best:best + 1]
    excess = p.weights @ diffs
    second = p.weights @ diffs**2
    k = 0.0
    for a in range(len(loss.actions)):
        if excess[a] > EXCESS_TOL:
            k = max(k, float(second[a] / excess[a]))
        elif second[a] > EXCESS_TOL:
            return math.inf
    return k


def eta_compatibility(loss: LossTable, t: Kernel, r: Reconstruction) -> float:
    """Distribution-free compatibility constant between a loss and a corruption.

    Returns the smallest eta such that, for every clean outcome z and action
    pair, the corrected-loss difference squared stays within
    eta * (clean difference)^2 at every corrupted outcome the kernel can
    produce from z.  Pairs whose clean losses tie while the corrected ones do
    not force eta to infinity (the condition cannot hold).
    """
    if loss.outcomes != t.domain:
        raise SpaceMismatch("loss outcomes must match the corruption's domain")
    if r.kernel.domain != t.domain or r.kernel.codomain != t.codomain:
        raise SpaceMismatch("reconstruction spaces do not match the corruption")
    Reconstruction(kernel=t, matrix=r.matrix)  # NotReconstructible unless R is a left inverse of t
    corrected = r.matrix.T @ loss.values
    n_actions = len(loss.actions)
    eta = 0.0
    for z in range(len(t.domain)):
        support = t.matrix[:, z] > 0.0
        for a1 in range(n_actions):
            for a2 in range(a1 + 1, n_actions):
                clean_sq = float(loss.values[z, a1] - loss.values[z, a2]) ** 2
                corr_sq = float(
                    np.max((corrected[support, a1] - corrected[support, a2]) ** 2)
                )
                if clean_sq > EXCESS_TOL:
                    eta = max(eta, corr_sq / clean_sq)
                elif corr_sq > EXCESS_TOL:
                    return math.inf
    return eta


def fastrate_gamma(beta: float, sup_norm: float) -> float:
    """gamma = (e^beta - 1 - beta) / (beta * ||ell||_inf), the curvature
    factor in the fast-rate PAC-Bayes bound."""
    if beta <= 0.0:
        raise InvalidParameter(f"beta must be > 0, got {beta!r}")
    if sup_norm <= 0.0:
        raise InvalidParameter(f"sup_norm must be > 0, got {sup_norm!r}")
    return (math.expm1(beta) - beta) / (beta * sup_norm)


# -- JSON wire formats -----------------------------------------------------------

def problem_from_json(obj: dict) -> DecisionProblem:
    thetas, actions, loss, experiment = fields(
        obj, "problem", ("thetas", NAMES), ("actions", NAMES), ("loss", MATRIX),
        ("experiment", OBJECT))
    return DecisionProblem(thetas=thetas, actions=actions, loss=loss,
                           experiment=kernel_from_json(experiment))


def mixed_from_json(obj: list) -> MixedCorruption:
    sources = []
    for i, entry in enumerate(typed(obj, "mixed corruption", LIST)):
        count, kernel, alpha, corrected_sup = fields(entry, f"mixed source {i}", ("count", INT), optional=(
            ("kernel", OBJECT, None), ("alpha", NUM, None), ("corrected_sup", NUM, None)))
        kernel = kernel_from_json(kernel) if kernel is not None else None
        sources.append(MixedSource(count, kernel, alpha, corrected_sup))
    return MixedCorruption(sources)
