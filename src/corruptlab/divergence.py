"""f-divergences and the contraction coefficient of a Markov kernel.

The coefficient ``alpha`` here is the Dobrushin coefficient of ergodicity:
one minus the minimal overlap between any two columns of the kernel.  It is
the tightest factor that works in a strong data processing inequality for
*every* f-divergence at once:

    D_f(T(P), T(Q)) <= alpha(T) * D_f(P, Q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInconsistency, InvalidParameter, SpaceMismatch
from .kernels import DIST, KERNEL, Dist, Kernel, pushforward
from .schema import instance_of, typed

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

    def is_midpoint_convex(self, grid: np.ndarray) -> bool:
        """Check f((s+t)/2) <= (f(s)+f(t))/2 + 1e-12 on all grid pairs."""
        vals = {float(t): self.f(float(t)) for t in grid}
        for s in grid:
            for t in grid:
                mid = self.f((float(s) + float(t)) / 2.0)
                if mid > (vals[float(s)] + vals[float(t)]) / 2.0 + 1e-12:
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
    p, q = typed(p, "p", DIST), typed(q, "q", DIST)
    if p.space != q.space:
        raise SpaceMismatch("variational divergence needs a common space")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


def f_divergence(p: Dist, q: Dist, gen: FGenerator) -> float:
    """D_f(P, Q) = sum_z p_z f(q_z / p_z) with the usual zero conventions.

    Terms with p_z = 0 < q_z contribute q_z * slope_at_infinity; terms with
    p_z = q_z = 0 contribute nothing.  Returns ``math.inf`` as soon as any
    term is infinite.
    """
    p, q, gen = typed(p, "p", DIST), typed(q, "q", DIST), typed(gen, "gen", instance_of(FGenerator))
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


#: Stacks whose matrices' first slab of column pairs, (m - 1) k entries,
#: holds at least this many are screened.  A measured cost crossover (see
#: :func:`stacked_extremes`), not a knob: no result depends on it.
_SCREEN_ENTRIES = 2048

#: Matrices of more rows are never screened: the float32 error bound of
#: :func:`stacked_extremes` needs (k - 1) 2**-24 <= 1/4.
_SCREEN_ROWS = 2**22

#: Most entries of a screened slab, b columns of every matrix against the
#: later columns of its own, and of the exact sums' buffer.  A measured cost crossover (see
#: :func:`stacked_extremes`), not a knob: no result depends on it.
_SLAB_ENTRIES = 2**18


def _exact_extremes(rows: np.ndarray, col: np.ndarray, out: np.ndarray) -> tuple:
    """(max total variation, min overlap) of ``col`` against each row, over
    the last two axes: of one slab, or of each slab of a stack.  Each row is
    summed on its own, along its last axis.  Every step is taken in ``out``,
    a float64 array of the rows' shape: the same sums, no temporary."""
    # halving is monotone under rounding, so it commutes with the max; the
    # arguments are positional where numpy allows it, as keywords cost a
    # microsecond a call
    tv = np.maximum.reduce(np.add.reduce(np.abs(np.subtract(rows, col, out), out), -1), -1)
    return 0.5 * tv, np.minimum.reduce(np.add.reduce(np.minimum(rows, col, out=out), -1), -1)


def _row_sums(maxima: np.ndarray) -> np.ndarray:
    """The float32 sum of each row of a screened slab, in one BLAS matvec."""
    return maxima @ np.ones(maxima.shape[1], np.float32)


def check_extremes(worst: float, best: float) -> None:
    """The two extremes must add up to 1 within ``ALPHA_CONSISTENCY_ATOL``."""
    if abs((1.0 - best) - worst) > ALPHA_CONSISTENCY_ATOL:
        raise InternalInconsistency(
            f"alpha formulas disagree: 1-lambda={1.0 - best!r}, max column V={worst!r}"
        )


def stacked_extremes(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max total variation, min overlap) over the column pairs of each
    matrix of the (G, k, m) stack ``matrices``, unchecked, in one pass.  A
    single column gives (0.0, 1.0): nothing to distinguish.

    For columns a and b with sums s_a and s_b, in exact arithmetic,

        sum max(a, b) = (s_a + s_b)/2 + TV(a, b),
        sum min(a, b) = (s_a + s_b)/2 - TV(a, b).

    So the score u = sum max(a, b) - (s_a + s_b)/2 is TV, and a pair can have
    the least overlap only if its TV is within 2 max|s - 1| of the largest.
    A stack whose matrices' first slab, column 0 against the m - 1 others,
    holds at least ``_SCREEN_ENTRIES`` entries is screened with that one
    reduction, taken over float32 copies of the columns made once per pass;
    s stays float64.

    Slabs.  A slab is b columns i, ..., i + b - 1 of all G matrices against
    every column after i of their own matrix: G b (m - 1 - i) k entries, with
    b the most that ``_SLAB_ENTRIES`` allows, at least 1.  Its maxima take
    one numpy call and its row sums one BLAS matvec against a ones vector
    (:func:`_row_sums`); the pairs of column i + p with a column not after
    it, on and below the slab's diagonal, are masked.  Each matrix has its
    own slack and its own cut, the largest u or exact TV it has seen so far
    minus its slack, taken over its part of the slab; a cut only rises, and
    only the pairs at or above it reach the exact float64 reductions of
    :func:`_exact_extremes`.  A pair below the cut holds neither extreme of
    its matrix or ties it, and each row is summed on its own, so each result
    is bit for bit that of the exact reductions on every pair.  The kept
    pairs are gathered, in chunks of at most ``_SLAB_ENTRIES`` entries (or
    of one pair) for both columns and the work together, into one float64
    buffer reused over the pass, so each step holds O(``_SLAB_ENTRIES`` +
    G m k) memory.

    The bound.  The slack is 2 max|s - 1| plus twice the error of the
    computed s, of u and of both exact sums.  Every summand is non-negative,
    so a k-term sum at unit roundoff r errs, in any order, by at most
    (k - 1) r / (1 - (k - 1) r) times its value, which is at most 2 M for
    M = max s.  Let e = 2**-53 and f = 2**-24 be the unit roundoffs of float64
    and float32, and eps32 = 2 f.  Then s errs by (k - 1) e M, each exact TV
    and overlap by (k + 1) e M, and u, as follows, for k <= ``_SCREEN_ROWS``,
    where (k - 1) f <= 1/4:

    - casting an entry to float32 moves it by at most f times its value
      plus 2**-126, which covers gradual underflow and flush-to-zero alike,
      and max(a, b) moves by no more than its arguments: 2 f M + k 2**-126
      over the row;
    - the BLAS sum of the maxima, in whatever order and blocking it takes,
      at float32 or a wider precision: each product with the ones vector is
      exact, so a fused multiply-add rounds once, as an addition does, and
      the sum errs by (4/3)(k - 1) f (1 + f) 2 M, plus (k - 1) 2**-126 if it
      flushes subnormal partial sums to zero, plus k 2**-126 if it reads
      subnormal entries as zero, plus under 1/3 of the cast's k 2**-126;
    - the halved float64 sums (k - 1) e M, and the two float64
      subtractions 6 e M.

    So u errs by less than (3/2)(k + 1) eps32 M + (10/3) k 2**-126, and twice
    the total of all four is under the 8 (k + 2) eps32 M + k 2**-123 used.
    Taller matrices, and those whose first slab is below ``_SCREEN_ENTRIES``,
    are not screened: the pass runs the exact reductions from its start.
    For the tall ones the slack would pass 4 M anyway.

    Switch-off.  Per entry of a pair (2-core Intel Xeon, numpy 2.4, one BLAS
    thread, k = m = 128 to 512), the screen costs 0.55 to 0.61 ns, and the
    exact sums 2.0 to 3.4 ns on contiguous rows and 2.9 to 3.9 ns on
    gathered ones.  Screening slabs that keep a share q of their pairs so
    costs 0.6 + 3.3 q ns against about 2.7 unscreened, and loses once q
    passes 0.5 to 0.76.  So once the screened slabs of the whole stack have
    seen at least 4 m pairs per matrix and kept more than half of them, the
    rest of the pass runs the exact reductions on contiguous slabs: column i
    of all G matrices against every later column, in chunks of the buffer.
    Symmetric noise, whose pairs all tie, keeps every pair: at 300 classes
    only the first three slabs are screened, and a stack of 7 matrices of
    46 classes screens its first slab only.

    Per pass, unscreened against screened (best of 6 to 54 runs, same
    machine): a random 7x7 kernel 46 against 36 us, binary products of 32,
    64, 128 and 512 columns 0.28 against 0.063, 0.79 against 0.20, 3.3
    against 0.74 and 208 against 32 ms; 3-class symmetric products of 81
    and 243 columns, whose columns each tie exactly with 16 and 32 others,
    1.2 against 0.46 and 16.6 against 6.9 ms; symmetric noise of 64 and 300
    classes 0.80 against 0.67 and 30.2 against 29.4 ms.  A slab of 2**16
    or 2**20 entries costs more than 2**18 at 128 columns (0.92 and 0.98
    against 0.69 ms), and 2**20 at 512 (39 against 29 ms) and on the
    243-column product (7.9 against 6.3 ms).  One kernel of 7 or more
    columns is thus cheaper screened at every size measured, but not a small
    one: a random 2x2 kernel costs 10 us unscreened against 34 us screened,
    and a 3x3 one 20 against 38 us.  ``_SCREEN_ENTRIES`` keeps the stacks of
    ``tables`` below 46 classes, thousands of small kernels a chunk, on the
    exact sums: screened, symmetric noise of 7, 20 and 30 classes costs 2.3,
    1.34 and 1.22 times as much per unit of ``tables`` work.  The kernels
    of ``lecam`` and small ``analyze`` calls stay below it too.  On stacks
    of symmetric noise from 46 to 100 classes the screen costs 5 to 12% more
    than the exact sums alone (4.4 against 3.9 ns a unit at 46 classes, on
    a loaded machine), because a stack's first slab, 18 columns of each of 7
    matrices at 46 classes, holds two thirds of the pairs before the
    switch-off can act.
    """
    cols = np.ascontiguousarray(np.swapaxes(matrices, 1, 2))
    g, m, k = cols.shape
    if m == 1:
        return np.zeros(g), np.ones(g)
    worst, best = [0.0] * g, [math.inf] * g  # an overlap may exceed 1 by rounding
    pairs = max(1, _SLAB_ENTRIES // (3 * k))  # per exact chunk: both gathers and the work fit the buffer
    n = min(m - 1, max(1, 3 * pairs // g))  # rows of each matrix per exact chunk
    screen = (m - 1) * k >= _SCREEN_ENTRIES and k <= _SCREEN_ROWS
    buffer = np.empty(max(3 * pairs if screen else 0, g * n) * k)
    i = seen = kept = 0
    if screen:
        sums = cols.sum(axis=2)
        half = 0.5 * sums
        rounding = 8 * (k + 2) * float(np.finfo(np.float32).eps) * sums.max(axis=1) + k * 2.0**-123
        slack = (2.0 * np.abs(sums - 1.0).max(axis=1) + rounding).tolist()
        cut = [-math.inf] * g
        cols32 = cols.astype(np.float32)
        maxima = np.empty(max(_SLAB_ENTRIES, g * (m - 1) * k), np.float32)
        work = buffer[:3 * pairs * k].reshape(3, pairs, k)
    while screen and i < m - 1 and not (seen >= 4 * m * g and 2 * kept > seen):
        r = m - 1 - i
        b = min(r, max(1, _SLAB_ENTRIES // (g * r * k)))
        slab = np.maximum(cols32[:, i:i + b, None], cols32[:, None, i + 1:],
                          out=maxima[:g * b * r * k].reshape(g, b, r, k))
        u = _row_sums(slab.reshape(g * b * r, k)).reshape(g, b, r) - half[:, None, i + 1:]
        u -= half[:, i:i + b, None]
        if b > 1:
            np.copyto(u, -math.inf, where=np.tri(b, r, -1, bool))  # column i + p meets only the columns after it
        for h, (scores, own) in enumerate(zip(u, cols)):  # each matrix against its own cut
            cut[h] = max(cut[h], float(scores.max()) - slack[h], worst[h] - slack[h])
            p, q = np.nonzero(scores >= cut[h])
            kept += len(p)
            for s in range(0, len(p), pairs):
                a, j = p[s:s + pairs] + i, q[s:s + pairs] + (i + 1)
                rows = np.take(own, j, axis=0, out=work[0, :len(a)], mode="clip")
                col = np.take(own, a, axis=0, out=work[1, :len(a)], mode="clip")
                tv, overlap = _exact_extremes(rows, col, work[2, :len(a)])
                worst[h], best[h] = max(worst[h], float(tv)), min(best[h], float(overlap))
        seen += g * (b * r - b * (b - 1) // 2)
        i += b
    worst, best = np.array(worst), np.array(best)
    for i in range(i, m - 1):  # unscreened, or the screen keeps most pairs: exact, in contiguous slabs
        for s in range(i + 1, m, n):
            rest = cols[:, s:s + n]
            tv, overlap = _exact_extremes(rest, cols[:, i, None], buffer[:rest.size].reshape(rest.shape))
            worst, best = np.maximum(worst, tv), np.minimum(best, overlap)
    return worst, best


@functools.lru_cache(maxsize=1)
def _pair_extremes(t: Kernel) -> tuple[float, float]:
    """(max total variation, min overlap) over all column pairs, in one pass:
    :func:`stacked_extremes` on a stack of one.

    The result for the last kernel is kept, so ``alpha`` and then
    ``lambda_coeff`` on one kernel, as ``analyze`` calls them, cost one pass.
    A :class:`Kernel` is compared by identity and holds a read-only matrix
    of its own, so the kept result cannot go stale; an exception is never
    kept.

    The two extremes must add up to 1 within 1e-9; a disagreement signals a
    numeric bug and raises :class:`InternalInconsistency`.
    """
    worst, best = (float(v[0]) for v in stacked_extremes(t.matrix[None]))
    check_extremes(worst, best)
    return worst, best


def lambda_coeff(t: Kernel) -> float:
    """Minimal column overlap: min over column pairs of sum_k min(T_ki, T_kj).
    Computed once per kernel, together with ``alpha``."""
    return _pair_extremes(typed(t, "kernel", KERNEL))[1]  # checked first: an array is no key of the kept result


def alpha(t: Kernel) -> float:
    """Contraction coefficient: the maximum variational divergence between
    two columns, equal to 1 - lambda(T).  Both come from one pass, run once
    per kernel: the second of the two calls reads the kept result."""
    return _pair_extremes(typed(t, "kernel", KERNEL))[0]


@dataclass(frozen=True)
class SdpiReport:
    lhs: float
    rhs: float
    holds: bool


def sdpi_check(t: Kernel, p: Dist, q: Dist, gen: FGenerator) -> SdpiReport:
    """Evaluate both sides of D_f(T(P), T(Q)) <= alpha(T) D_f(P, Q)."""
    t, p, q = typed(t, "t", KERNEL), typed(p, "p", DIST), typed(q, "q", DIST)
    if p.space != t.domain or q.space != t.domain:
        raise SpaceMismatch("distributions must live on the kernel's domain")
    lhs = f_divergence(pushforward(t, p), pushforward(t, q), gen)
    base = f_divergence(p, q, gen)
    rhs = alpha(t) * base if not math.isinf(base) else math.inf
    holds = math.isinf(rhs) or lhs <= rhs + SDPI_ATOL
    return SdpiReport(lhs=lhs, rhs=rhs, holds=holds)
