"""Seeded Monte-Carlo validation of corrected-loss learning.

Randomness contract
-------------------
All sampling uses numpy's Philox counter-based generator.  Substreams are
derived with splitmix64, a fixed 64-bit mixing function: trial ``t`` at the
``k``-th sample size is cell ``i = k * trials + t``, with stream
``Philox(key=seed XOR splitmix64(i))`` regardless of execution order.  Cells
are therefore independent and could run concurrently; results are aggregated
in cell order so repeated runs are bit-identical.  Each thread holds one
generator, made at its first curve with its fresh state read once, and every
curve it runs re-keys that generator for each cell: Philox is
counter-based, so a stream is fixed by its key and counter, and resetting the
counter and the buffers under the cell's key gives that cell's stream bit for
bit, without the cost of a new generator.  No stream is shared between
threads, and no curve opens a stream of its own.  The keys of a pass's cells
are derived together, by splitmix64 in wrapping uint64 arithmetic.

Corrected ERM reads a corrupted sample only through its outcome counts,
which follow Multinomial(n, T·p), so each cell draws them in one
``multinomial`` call on its stream and costs the same at every n.  A
curve's cells are drawn in cell order, in passes that may span sample sizes;
a pass's counts are stacked into one float64 array and scored together by
the rule of ``erm_indices``, one matrix product and the tie rule applied row
by row, without its argument checks, which drawn counts pass by construction.
Every size's mean and standard error come from the ufunc reductions that
``ndarray.mean`` and ``ndarray.std`` run, bit for bit.  ``sample``,
``corrupt`` and ``erm`` work outcome by outcome, each on a generator of its
own; the tests use them as the oracle.  ``risk_curve`` and
``fastrate_curve`` share one pipeline; the fast-rate mode only adds its two
precondition checks and the halving ratios.

Excess risk is always scored against the true clean distribution (it is
available analytically here); this is a validation lab for bound formulas,
not a benchmark harness.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import catalog
from .bounds import EXCESS_TOL, _eta
from .errors import (
    DivergedObjective,
    EmptySample,
    InvalidParameter,
    LengthMismatch,
    PreconditionFailed,
    SpaceMismatch,
    UnknownOutcome,
    _shown,
    guard,
)
from .kernels import DIST, KERNEL, Dist, Kernel, Space, dist_from_json, kernel_from_json
from .reconstruct import LOSS, LossTable, Reconstruction, corrected_loss, loss_from_json, pseudoinverse
from .schema import (COUNT, INT, MATRIX, OBJECT, POSITIVE, POSITIVE_COUNT, VECTOR, fields, instance_of, list_of,
                     read_fields, typed)

_MASK64 = (1 << 64) - 1

#: Empirical risks within this fraction of the loss's sup norm of the
#: smallest count as tied in ``erm``, so rounding cannot break an exact tie.
ERM_TIE_RTOL = 1e-12

#: Largest sample size a config, or a call of :func:`sample`, may ask for.
SAMPLE_SIZE_GUARD = 10**7

#: Most cells, trials times sample sizes, a config may ask for.  A cell is one
#: multinomial draw and its share of one batched ERM, whatever its n.  Its
#: marginal cost is 1.8 to 1.9 microseconds with 2 outcomes and actions, 3.9
#: to 4.0 with 16 and 0.09 to 0.11 ms with 1,000: the difference of two
#: ``risk_curve`` times at n = 1,000, 20,000 and 2,000 cells (2,000 and 200
#: at 1,000 outcomes), best of 5, over 4 runs on a 2-core Xeon, numpy 2.4.6,
#: one OpenBLAS thread.
CELL_GUARD = 10**6

#: Most work a config may ask for: cells times corrupted outcomes times
#: actions, counted before anything is drawn.  A cell's multinomial costs
#: about 0.08 to 0.12 microseconds per corrupted outcome at n = 10^7, and
#: its ERM far less per outcome and action, so a unit costs at most about
#: 0.12 microseconds once a cell holds 100 units.  The longest run admitted
#: is about 12 s: 1,000 cells of one action and 10^5 corrupted outcomes took
#: 12.1 s, 10^6 cells of 100 outcomes 9.6 s and 10^5 cells of 1,000 outcomes
#: 8.5 s, at n = 10^7 on a 2-core Xeon, numpy 2.4.6, one OpenBLAS thread.
#: Below 100 units a cell, ``CELL_GUARD`` binds first.
CELL_WORK_GUARD = 10**8

#: Most cells times the larger of the outcome and action counts drawn and
#: scored in one array pass, so a pass's counts and risks take at most 512 KB
#: each.  Measured per cell on a 2-core Xeon, passes of 2^16 entries score
#: within 10% of the best pass size at 2 to 1000 outcomes and actions;
#: smaller passes cost more below 2^14, larger ones gain nothing.
SCORE_CHUNK_ENTRIES = 2**16


def splitmix64(x) -> np.ndarray:
    """The splitmix64 mixer, the repo's stream-splitting hash, of each of the
    integers in [0, 2**64) that ``x`` holds, as an array of at least one
    dimension: numpy wraps array arithmetic silently, but warns when a
    scalar overflows."""
    z = np.array(x, dtype=np.uint64, ndmin=1) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=typed(seed, "seed", INT) & _MASK64))


def _fresh_state(rng: np.random.Generator) -> dict:
    """The state of ``rng``, a Philox generator before its first draw (counter
    zero, empty buffer, no pending 32-bit half), with its counter, key and
    buffer as lists of Python ints: the state setter reads a uint64 array
    entry by entry, building a numpy scalar for each, and a list hands it
    the ints themselves.  Read once per thread, by ``_vehicle``: a read
    costs 3 to 5 µs, a cell about 2 µs at 2 outcomes (``CELL_GUARD``)."""
    state = rng.bit_generator.state
    return state | {"state": {name: words.tolist() for name, words in state["state"].items()},
                    "buffer": state["buffer"].tolist()}


def _rekey(rng: np.random.Generator, fresh: dict, key: int) -> np.random.Generator:
    """``rng``, a Philox generator, moved to the start of ``Philox(key=key)``'s
    stream.  ``fresh`` is a state from ``_fresh_state``; only the low word
    of its key is replaced, as the key's high word stays 0, so ``rng`` and
    ``fresh`` must belong to one thread, as ``_vehicle`` hands them out.
    This costs about a twentieth of a new generator, for which numpy
    gathers OS entropy even when the key is given: 0.6 to 0.9 µs against 11
    to 18 µs, the best of 7 loops of 20,000 keys on a 2-core Xeon, numpy
    2.4.6."""
    fresh["state"]["key"][0] = key
    rng.bit_generator.state = fresh
    return rng


_streams = threading.local()


def _vehicle() -> tuple[np.random.Generator, dict]:
    """This thread's Philox generator and its fresh state, made at the
    thread's first curve and re-keyed by ``_rekey`` for every cell of every
    curve after, so a curve pays neither a new generator (11 to 18 µs, as
    numpy gathers OS entropy even when the key is given) nor a state read."""
    vehicle = getattr(_streams, "vehicle", None)
    if vehicle is None:
        rng = np.random.Generator(np.random.Philox(key=0))
        vehicle = _streams.vehicle = rng, _fresh_state(rng)
    return vehicle


def _trial_seeds(seed: int, cells: range) -> list[int]:
    """The stream key ``seed XOR splitmix64(i)`` of each cell ``i``, all in one pass."""
    return (np.uint64(seed & _MASK64) ^ splitmix64(np.arange(cells.start, cells.stop, dtype=np.uint64))).tolist()


def _as_indices(space: Space, sample: Sequence) -> np.ndarray:
    values = np.asarray(sample)
    if values.dtype.kind in "iu":
        idx = values.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(space)):
            raise UnknownOutcome(f"sample index outside [0, {len(space)})")
        return idx
    try:
        return np.asarray([space.labels.index(str(v)) for v in values], dtype=np.int64)
    except ValueError:
        raise UnknownOutcome(f"sample value not in space {space.labels!r}") from None


def sample(p: Dist, n: int, seed: int) -> np.ndarray:
    """Draw n iid outcome indices by inverse CDF over the space's order; n
    past ``SAMPLE_SIZE_GUARD`` is refused before anything is drawn."""
    p, n = typed(p, "p", DIST), typed(n, "sample size", COUNT)
    guard(n, SAMPLE_SIZE_GUARD, "sample size")
    cum = np.cumsum(p.weights)
    u = _generator(seed).random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(p.space) - 1).astype(np.int64)


def corrupt(t: Kernel, clean: Sequence, seed: int) -> np.ndarray:
    """Independently push each clean outcome through the corruption kernel."""
    t = typed(t, "t", KERNEL)
    idx = _as_indices(t.domain, clean)
    cum = np.cumsum(t.matrix, axis=0)
    u = _generator(seed).random(idx.shape[0])
    out = np.empty_like(idx)
    for j in np.unique(idx):
        here = idx == j
        out[here] = np.searchsorted(cum[:, j], u[here], side="right")
    return np.minimum(out, len(t.codomain) - 1)


def erm_indices(counts, loss: LossTable) -> np.ndarray:
    """Per row of the (rows x outcomes) ``counts``, the index of the action
    minimizing average loss over those outcome counts, which must be finite
    numbers >= 0, with a positive total in each row.  Risks within
    ``ERM_TIE_RTOL`` times the loss's sup norm of a row's minimum are tied,
    and ties go to the lowest action index.  The checks are this function's;
    the rule is ``_erm_rows``, which the curves call on their drawn counts.

    A row's risks may differ in their last bits with the number of rows, as
    the BLAS picks its kernel by the product's shape: on random losses at 2
    to 64 outcomes and actions, rows scored in one array of 4,000 and one at
    a time differed by up to 5e-16 times the sup norm (1.7e-16 at 2 outcomes
    and 10 actions).  ``ERM_TIE_RTOL`` is 2,000 times that, so an exact tie
    stays tied whatever the row count, and a chosen action can move only if
    another action's risk lies within those bits of the tie cut."""
    counts, loss = typed(counts, "counts", MATRIX), typed(loss, "loss", LOSS)
    if counts.shape[1] != len(loss.outcomes):
        raise LengthMismatch(f"counts of shape {counts.shape} for {len(loss.outcomes)} outcomes")
    if (counts < 0).any():
        raise InvalidParameter("counts must be >= 0")
    if not counts.sum(axis=1).all():
        raise EmptySample("empirical risk minimization needs at least one observation")
    return _erm_rows(counts, loss)


def _erm_rows(counts: np.ndarray, loss: LossTable) -> np.ndarray:
    """The rule of ``erm_indices`` on a float64 array of counts that passes its
    checks, read in place."""
    risks = (counts / counts.sum(axis=1, keepdims=True)) @ loss.values
    return np.argmax(risks <= risks.min(axis=1, keepdims=True) + ERM_TIE_RTOL * loss.sup_norm, axis=1)


def erm(sample_values: Sequence, loss: LossTable) -> str:
    """The action minimizing average loss on the sample (see ``erm_indices``)."""
    idx = _as_indices(typed(loss, "loss", LOSS).outcomes, sample_values)
    return loss.actions[erm_indices([np.bincount(idx, minlength=len(loss.outcomes))], loss)[0]]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    clean_dist: Dist
    loss: LossTable
    corruption: catalog.CorruptionSpec | Kernel
    sample_sizes: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self):
        read_fields(self, "config", clean_dist=DIST, loss=LOSS,
                    corruption=instance_of(catalog.CorruptionSpec, Kernel),
                    sample_sizes=list_of(POSITIVE_COUNT, "a list of integers"), trials=POSITIVE_COUNT, seed=INT)
        sizes = self.sample_sizes
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidParameter("sample sizes must be strictly increasing")
        if self.loss.outcomes != self.clean_dist.space:
            raise InvalidParameter("loss outcomes must match the clean distribution")
        corruption = self.corruption
        domain, codomain = ((corruption.domain, corruption.codomain) if isinstance(corruption, Kernel)
                            else catalog.spaces(corruption))
        if domain != self.clean_dist.space:  # bad input, so checked before the guards
            raise SpaceMismatch("loss outcomes must match the corruption's domain")
        guard(sizes[-1], SAMPLE_SIZE_GUARD, "sample size")  # checked before anything is drawn
        cells = self.trials * len(sizes)
        guard(cells, CELL_GUARD, f"simulate cells, {_shown(self.trials)} trials x {len(sizes)} sample sizes =")
        outcomes, actions = len(codomain), len(self.loss.actions)
        guard(cells * outcomes * actions, CELL_WORK_GUARD,
              f"simulate work, {cells} cells x {outcomes} outcomes x {actions} actions =")

    def kernel(self) -> Kernel:
        if isinstance(self.corruption, Kernel):
            return self.corruption
        return catalog.build_kernel(self.corruption)


@dataclass(frozen=True)
class RiskPoint:
    n: int
    mean_excess_risk: float
    std_error: float
    envelope: float


@dataclass(frozen=True)
class RiskCurve:
    rows: tuple[RiskPoint, ...]

    def to_csv(self) -> str:
        lines = ["n,mean_excess_risk,std_error,envelope"]
        for r in self.rows:
            lines.append(f"{r.n},{r.mean_excess_risk!r},{r.std_error!r},{r.envelope!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FastRateReport:
    """Risk curve plus halving ratios mean_excess(2n) / mean_excess(n).

    A ratio is omitted when the denominator is zero (the excess already
    collapsed); ``mean_ratio`` averages the remaining ratios and is 0.0 when
    every pair collapsed.
    """

    curve: RiskCurve
    ratios: tuple[tuple[int, float], ...]
    mean_ratio: float


def _curve(config: ExperimentConfig, rec: Reconstruction, table: LossTable) -> RiskCurve:
    """The risk curve of both modes, scored with ``table``, the loss corrected
    by ``rec``, in one pass over all its cells in cell order: cell ``i``
    draws ``multinomial(sizes[i // trials], q)`` on its stream, and the cells
    are drawn and scored by corrected ERM in array passes of at most
    ``SCORE_CHUNK_ENTRIES``, which may span sample sizes.
    The excess risks form one (sizes x trials) array, and every size's mean
    and standard error come from the reductions ``ndarray.mean`` and
    ``ndarray.std(ddof=1)`` run along its rows, called as ufuncs, which
    reduce each row as the same call on that row alone would.

    A pass's row count moves the last bits of its risks, up to 5e-16 times
    the loss's sup norm; the tie rule of ``erm_indices`` is 2,000 times wider,
    so the pass sizes leave the chosen actions as they are.  The counts are
    multinomial draws, >= 0 and summing to n >= 1, so they are scored by
    ``_erm_rows`` without ``erm_indices``' checks."""
    p, sizes, trials = config.clean_dist, config.sample_sizes, config.trials
    clean_risks = p.weights @ config.loss.values
    best = float(clean_risks.min())
    # A Dist and a kernel column sum to 1 only within STOCHASTIC_ATOL, and
    # multinomial refuses probabilities summing past 1 + 1e-12.
    q = rec.kernel.matrix @ p.weights
    q = q / q.sum()
    kl = math.log(len(config.loss.actions))
    rng, fresh = _vehicle()
    per_pass = max(1, SCORE_CHUNK_ENTRIES // max(len(q), len(table.actions)))
    cells = range(len(sizes) * trials)
    passes = (cells[i:i + per_pass] for i in range(0, len(cells), per_pass))
    chosen = np.concatenate([_erm_rows(np.array([_rekey(rng, fresh, key).multinomial(sizes[i // trials], q)
                                                 for i, key in zip(part, _trial_seeds(config.seed, part))],
                                                dtype=np.float64), table)
                             for part in passes])
    excess = (clean_risks[chosen] - best).reshape(len(sizes), trials)
    means, stderrs = _summary(excess)
    return RiskCurve(tuple(RiskPoint(n, mean, stderr, table.sup_norm * math.sqrt(2.0 * kl / n))
                           for n, mean, stderr in zip(sizes, means, stderrs)))


def _summary(excess: np.ndarray) -> tuple[list[float], list[float]]:
    """Each row's mean and standard error, ``std(ddof=1) / sqrt(trials)``, 0.0
    for one trial: the ufunc reductions ``ndarray.mean`` and ``ndarray.std``
    run, bit for bit, without their Python wrappers: 7.4 to 7.8 µs against
    13.3 to 14.1 µs on 3 sizes of 4 trials."""
    trials = excess.shape[1]
    means = np.add.reduce(excess, axis=1, keepdims=True) / trials
    if trials == 1:
        return means[:, 0].tolist(), [0.0] * len(excess)
    deviations = excess - means
    np.multiply(deviations, deviations, out=deviations)
    stds = np.sqrt(np.add.reduce(deviations, axis=1) / (trials - 1))
    return means[:, 0].tolist(), (stds / math.sqrt(trials)).tolist()


def risk_curve(config: ExperimentConfig) -> RiskCurve:
    """Corrected-loss ERM excess risk versus the PAC-Bayes envelope.

    For each sample size, ``trials`` independent replicates draw the outcome
    counts of a corrupted sample, run ERM with the corrected loss on them and
    score the true excess risk.  The envelope is
    ||corrected||_inf * sqrt(2 ln|A| / n), the uniform-prior complexity term.
    """
    rec = pseudoinverse(config.kernel())
    return _curve(config, rec, corrected_loss(rec, config.loss))


def fastrate_curve(config: ExperimentConfig) -> FastRateReport:
    """The same pipeline for separable problems, reporting decay ratios.

    Requires a separable clean distribution (some action has zero risk) and
    a corruption compatible with the loss (finite eta), the regime where
    corrected ERM keeps a fast rate.
    """
    if float((config.clean_dist.weights @ config.loss.values).min()) > EXCESS_TOL:
        raise PreconditionFailed("clean distribution is not separable for this loss")
    rec = pseudoinverse(config.kernel())
    table = corrected_loss(rec, config.loss)  # built once, for eta and for the curve
    if math.isinf(_eta(config.loss, table.values, rec.kernel)):
        raise PreconditionFailed("loss and corruption are not compatible (eta is infinite)")
    curve = _curve(config, rec, table)
    means = {r.n: r.mean_excess_risk for r in curve.rows}
    ratios = tuple((n, means[2 * n] / means[n]) for n in config.sample_sizes
                   if 2 * n in means and means[n] > 0.0)
    mean_ratio = sum(r for _, r in ratios) / len(ratios) if ratios else 0.0
    return FastRateReport(curve=curve, ratios=ratios, mean_ratio=mean_ratio)


# -- corrected proper-loss minimization ------------------------------------------

@dataclass(frozen=True)
class CanonicalProperLoss:
    """A canonical-form proper loss ell(z, v) = v[z] + psi(v).

    ``psi`` must be convex with ``grad`` its gradient; convexity is probed
    by randomized midpoint tests rather than assumed.
    """

    name: str
    psi: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    def midpoint_convex(self, dim: int, trials: int, seed: int) -> bool:
        """Check psi((v1+v2)/2) <= (psi(v1)+psi(v2))/2 + 1e-9 on ``trials``
        seeded pairs of N(0, 3^2) vectors of length ``dim``."""
        dim, trials = typed(dim, "dim", POSITIVE_COUNT), typed(trials, "trials", COUNT)
        rng = _generator(seed)
        for _ in range(trials):
            v1 = rng.normal(0.0, 3.0, dim)
            v2 = rng.normal(0.0, 3.0, dim)
            if self.psi(0.5 * (v1 + v2)) > 0.5 * (self.psi(v1) + self.psi(v2)) + 1e-9:
                return False
        return True


def log_loss() -> CanonicalProperLoss:
    """Log loss in canonical form: psi(v) = log sum_z exp(-v[z]).

    The minimizer of <p, v> + psi(v) satisfies softmax(-v) = p, so the fitted
    link recovers the data distribution.
    """
    def psi(v: np.ndarray) -> float:
        m = float(np.max(-v))
        return m + math.log(float(np.exp(-v - m).sum()))

    def grad(v: np.ndarray) -> np.ndarray:
        e = np.exp(-v + v.min())
        return -(e / e.sum())

    return CanonicalProperLoss(name="log", psi=psi, grad=grad)


@dataclass(frozen=True)
class FitResult:
    link: np.ndarray
    objective: float


def _objective_parts(corrected: bool, t: Kernel, sample_values: Sequence):
    space = t.codomain if corrected else t.domain
    idx = _as_indices(space, sample_values)
    if idx.size == 0:
        raise EmptySample("cannot fit to an empty sample")
    freq = np.bincount(idx, minlength=len(space)) / idx.size
    return pseudoinverse(t).matrix @ freq if corrected else freq


def fit_proper(
    corrected: bool,
    t: Kernel,
    sample_values: Sequence,
    psi: CanonicalProperLoss,
    steps: int = 500,
    rate: float = 1.0,
) -> FitResult:
    """Gradient descent on the (optionally corruption-corrected) empirical
    canonical objective.

    The clean objective is mean v[z] + psi(v); the corrected one replaces the
    empirical clean frequencies with their reconstruction from corrupted
    counts, which preserves convexity.  The step size halves whenever a step
    would increase the objective (at most 30 halvings per step), so the
    objective sequence is non-increasing.
    """
    t, steps, rate = typed(t, "t", KERNEL), typed(steps, "steps", COUNT), typed(rate, "rate", POSITIVE)
    linear = _objective_parts(corrected, t, sample_values)
    v = np.zeros(len(t.domain))

    def g(x: np.ndarray) -> float:
        return float(linear @ x) + psi.psi(x)

    current = g(v)
    if not math.isfinite(current):
        raise DivergedObjective(f"objective is {current!r} at the start")
    step = rate
    for _ in range(steps):
        grad = linear + psi.grad(v)
        if not np.all(np.isfinite(grad)):
            raise DivergedObjective("gradient left the finite range")
        moved = False
        for _ in range(30):
            candidate = v - step * grad
            value = g(candidate)
            # overflow counts as an increase: shrink the step instead
            if math.isfinite(value) and value <= current:
                v, current, moved = candidate, value, True
                break
            step *= 0.5
        if not moved:
            break
    return FitResult(link=v, objective=current)


def gradient_check(psi: CanonicalProperLoss, t: Kernel, at: np.ndarray) -> float:
    """Central-difference check, with step 1e-5, of the gradient of the
    corrected objective at uniform corrupted-outcome frequencies.  Returns the
    worst coordinate-wise relative error."""
    h = 1e-5
    t, at = typed(t, "t", KERNEL), typed(at, "at", VECTOR)
    if at.shape != (len(t.domain),):
        raise LengthMismatch(f"gradient point has {at.shape[0]} values for {len(t.domain)} outcomes")
    linear = pseudoinverse(t).matrix @ np.full(len(t.codomain), 1.0 / len(t.codomain))

    def g(x: np.ndarray) -> float:
        return float(linear @ x) + psi.psi(x)

    analytic = linear + psi.grad(at)
    worst = 0.0
    for i in range(at.shape[0]):
        bump = np.zeros_like(at)
        bump[i] = h
        numeric = (g(at + bump) - g(at - bump)) / (2.0 * h)
        worst = max(worst, abs(numeric - analytic[i]) / max(1.0, abs(analytic[i])))
    return worst


# -- JSON wire format -------------------------------------------------------------

def config_from_json(obj: dict) -> ExperimentConfig:
    clean, loss, corr, sample_sizes, trials, seed = fields(
        obj, "config", ("clean", OBJECT), ("loss", OBJECT), ("corruption", OBJECT), "sample_sizes", "trials", "seed")
    corruption = (kernel_from_json(*fields(corr, "corruption", ("kernel", OBJECT))) if "kernel" in corr
                  else catalog.spec_from_json(corr))
    return ExperimentConfig(dist_from_json(clean), loss_from_json(loss), corruption,
                            sample_sizes, trials, seed)
