"""f-divergences and the contraction coefficient of a Markov kernel.

The coefficient ``alpha`` here is the Dobrushin coefficient of ergodicity:
one minus the minimal overlap between any two columns of the kernel.  It is
the tightest factor that works in a strong data processing inequality for
*every* f-divergence at once:

    D_f(T(P), T(Q)) <= alpha(T) * D_f(P, Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInconsistency, InvalidParameter, SpaceMismatch
from .kernels import Dist, Kernel, pushforward

#: Agreement tolerance between the two alpha formulas before we flag a bug.
ALPHA_CONSISTENCY_ATOL = 1e-9

#: Slack used when checking stochastic-ordering inequalities numerically.
SDPI_ATOL = 1e-9


@dataclass(frozen=True)
class FGenerator:
    """A convex generator f with f(1) = 0 defining an f-divergence.

    ``limit_at_zero`` is lim_{t->0+} f(t) and ``slope_at_infinity`` is
    lim_{t->inf} f(t)/t; either may be ``math.inf``.  These supply the
    standard conventions for zero-mass terms.
    """

    name: str
    f: Callable[[float], float]
    limit_at_zero: float
    slope_at_infinity: float

    def __post_init__(self):
        if self.f(1.0) != 0.0:
            raise InvalidParameter(f"generator {self.name!r} has f(1) = {self.f(1.0)!r}, need 0")

    def is_midpoint_convex(self, grid: np.ndarray, atol: float = 1e-12) -> bool:
        """Check f((s+t)/2) <= (f(s)+f(t))/2 on all grid pairs."""
        vals = {float(t): self.f(float(t)) for t in grid}
        for s in grid:
            for t in grid:
                mid = self.f((float(s) + float(t)) / 2.0)
                if mid > (vals[float(s)] + vals[float(t)]) / 2.0 + atol:
                    return False
        return True


#: Variational (total variation) generator, f(t) = |t - 1| / 2, so that the
#: induced divergence lands in [0, 1].
VARIATIONAL = FGenerator(
    name="variational",
    f=lambda t: 0.5 * abs(t - 1.0),
    limit_at_zero=0.5,
    slope_at_infinity=0.5,
)

#: KL generator under the dQ/dP-against-dP orientation used throughout:
#: f(t) = -log t gives D_f(P, Q) = KL(P || Q).
KL = FGenerator(
    name="kl",
    f=lambda t: -math.log(t),
    limit_at_zero=math.inf,
    slope_at_infinity=0.0,
)


def variational(p: Dist, q: Dist) -> float:
    """Half the L1 distance between two distributions on the same space."""
    if p.space != q.space:
        raise SpaceMismatch("variational divergence needs a common space")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


def f_divergence(p: Dist, q: Dist, gen: FGenerator) -> float:
    """D_f(P, Q) = sum_z p_z f(q_z / p_z) with the usual zero conventions.

    Terms with p_z = 0 < q_z contribute q_z * slope_at_infinity; terms with
    p_z = q_z = 0 contribute nothing.  Returns ``math.inf`` as soon as any
    term is infinite.
    """
    if p.space != q.space:
        raise SpaceMismatch("f-divergence needs a common space")
    total = 0.0
    for pz, qz in zip(p.weights, q.weights):
        pz, qz = float(pz), float(qz)
        if pz > 0.0:
            term = pz * (gen.f(qz / pz) if qz > 0.0 else gen.limit_at_zero)
        elif qz > 0.0:
            term = qz * gen.slope_at_infinity
        else:
            continue
        if math.isinf(term):
            return math.inf
        total += term
    return total


def _pair_extremes(t: Kernel) -> tuple[float, float]:
    """(max total variation, min overlap) over all column pairs, in one pass.

    Column i meets every later column in one slab, so each step holds
    O(m k) memory.  The two must add up to 1 within 1e-9; a disagreement
    signals a numeric bug and raises :class:`InternalInconsistency`.  A
    single column gives (0.0, 1.0): nothing to distinguish.
    """
    cols = np.ascontiguousarray(t.matrix.T)
    if len(cols) == 1:
        return 0.0, 1.0
    worst, best = 0.0, math.inf  # an overlap may exceed 1 by rounding
    for i, col in enumerate(cols[:-1]):
        rest = cols[i + 1:]
        worst = max(worst, 0.5 * float(np.abs(rest - col).sum(axis=1).max()))
        best = min(best, float(np.minimum(rest, col).sum(axis=1).min()))
    if abs((1.0 - best) - worst) > ALPHA_CONSISTENCY_ATOL:
        raise InternalInconsistency(
            f"alpha formulas disagree: 1-lambda={1.0 - best!r}, max column V={worst!r}"
        )
    return worst, best


def lambda_coeff(t: Kernel) -> float:
    """Minimal column overlap: min over column pairs of sum_k min(T_ki, T_kj)."""
    return _pair_extremes(t)[1]


def alpha(t: Kernel) -> float:
    """Contraction coefficient: the maximum variational divergence between
    two columns, equal to 1 - lambda(T) (both come from one pass)."""
    return _pair_extremes(t)[0]


@dataclass(frozen=True)
class SdpiReport:
    lhs: float
    rhs: float
    holds: bool


def sdpi_check(t: Kernel, p: Dist, q: Dist, gen: FGenerator) -> SdpiReport:
    """Evaluate both sides of D_f(T(P), T(Q)) <= alpha(T) D_f(P, Q)."""
    if p.space != t.domain or q.space != t.domain:
        raise SpaceMismatch("distributions must live on the kernel's domain")
    lhs = f_divergence(pushforward(t, p), pushforward(t, q), gen)
    base = f_divergence(p, q, gen)
    rhs = alpha(t) * base if not math.isinf(base) else math.inf
    holds = math.isinf(rhs) or lhs <= rhs + SDPI_ATOL
    return SdpiReport(lhs=lhs, rhs=rhs, holds=holds)
