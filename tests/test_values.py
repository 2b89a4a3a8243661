"""Each value type reads its own fields: a bad value called from Python ends in
one InvalidInput line, as it does from a document, and never in a bare numpy
or Python error or a silent misreading."""

import math
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from corruptlab import (  # noqa: E402
    CorruptionSpec,
    DecisionProblem,
    Dist,
    ExperimentConfig,
    Kernel,
    LossTable,
    MixedCorruption,
    MixedSource,
    Reconstruction,
    SourceOffer,
    Space,
    VARIATIONAL,
    alpha,
    bernstein_constant,
    binary_label_noise,
    compose,
    corrected_loss,
    corrected_sup_norm,
    corrupt,
    eta_compatibility,
    exact_plan,
    f_divergence,
    fastrate_curve,
    fastrate_gamma,
    fit_proper,
    gradient_check,
    greedy_plan,
    is_reconstructible,
    lambda_coeff,
    lecam_corrupted,
    lecam_replicated,
    log_loss,
    normalized,
    op_norm_row_sum,
    pacbayes_mixed,
    pacbayes_upper,
    parallel_product,
    partial_labels,
    pseudoinverse,
    pullback,
    pushforward,
    rank_sources_lower,
    rank_sources_upper,
    regret,
    replicate,
    sample,
    sandwich_report,
    sdpi_check,
    semi_supervised,
    separation,
    symmetric_label_noise,
    variational,
    zero_one_loss,
)
from corruptlab.catalog import make_spec  # noqa: E402
from corruptlab.bounds import lecam_mixed  # noqa: E402
from corruptlab.schema import INT, NUM, RATIONAL, typed, within  # noqa: E402
from corruptlab.simlab import erm, erm_indices  # noqa: E402
from corruptlab.errors import (  # noqa: E402
    CapacityGuardExceeded,
    InvalidInput,
    InvalidParameter,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
    ParseError,
    PreconditionFailed,
    SizeGuardExceeded,
    SpaceMismatch,
    guard,
)

from helpers import binary_noise, patch_guards  # noqa: E402
from test_fuzz import scalars  # noqa: E402

#: Integers stay small: ``fit_proper`` and ``midpoint_convex`` do work linear
#: in a count that no guard bounds, and ``sample`` draws up to 10^7 outcomes.
_SCALARS = scalars(st.integers(-3, 40))

S = Space(["-1", "+1"])
T = binary_noise(0.2)
PROBLEM = dict(thetas=["-1", "+1"], actions=["a0", "a1"], loss=[[0.0, 1.0], [1.0, 0.0]], experiment=T)
CONFIG = dict(clean_dist=Dist(S, [0.3, 0.7]), loss=zero_one_loss(S), corruption=binary_label_noise(0.2, 0.3),
              sample_sizes=(10, 20), trials=3, seed=5)
OFFERS = [SourceOffer("A", 0.5, 3), SourceOffer("B", 0.7, 5)]
P = Dist(S, [0.3, 0.7])
SPEC = (("sigma_neg", 0.1), ("sigma_pos", 0.2))
FOREIGN = Dist(Space(["x", "y"]), [0.5, 0.5])
FIT = partial(fit_proper, True, T, ["-1", "+1"], log_loss())
R = pseudoinverse(T)
L = zero_one_loss(S)

#: Calls given a bare array, list or string where a value type belongs; each
#: is refused as one InvalidParameter line, not a bare AttributeError.
WRONG_TYPE = {
    "pseudoinverse-array-for-kernel": lambda: pseudoinverse(np.eye(2)),
    "is-reconstructible-array-for-kernel": lambda: is_reconstructible(np.eye(2)),
    "sandwich-report-array-for-kernel": lambda: sandwich_report(np.eye(2)),
    "op-norm-array-for-reconstruction": lambda: op_norm_row_sum(np.eye(2)),
    "corrected-loss-array-for-reconstruction": lambda: corrected_loss(np.eye(2), L),
    "corrected-loss-string-for-loss": lambda: corrected_loss(R, "x"),
    "corrected-sup-array-for-reconstruction": lambda: corrected_sup_norm(np.eye(2), L),
    "eta-string-for-loss": lambda: eta_compatibility("x", R),
    "eta-array-for-reconstruction": lambda: eta_compatibility(L, np.eye(2)),
    "zero-one-list-for-space": lambda: zero_one_loss(["a", "b"]),
    "variational-list-for-dist": lambda: variational([0.5, 0.5], P),
    "f-divergence-list-for-dist": lambda: f_divergence([0.5, 0.5], P, VARIATIONAL),
    "sdpi-check-array-for-kernel": lambda: sdpi_check(np.eye(2), P, P, VARIATIONAL),
    "compose-array-for-kernel": lambda: compose(np.eye(2), T),
    "pushforward-array-for-kernel": lambda: pushforward(np.eye(2), P),
    "bernstein-list-for-dist": lambda: bernstein_constant([0.5, 0.5], L),
    "pacbayes-mixed-list-for-mix": lambda: pacbayes_mixed([1], 1.0),
}


#: Library calls that must raise an InvalidInput subclass, or the class
#: ``REFUSED_AS`` names, with a one-line message.  The ``silent-`` cases were
#: read as something else before.
LIBRARY_REFUSED = {
    "kernel-ragged": lambda: Kernel(S, S, [[1.0, 0.0], [0.0]]),
    "loss-ragged": lambda: LossTable(S, ["a0", "a1"], [[0.0, 1.0], [1.0]]),
    "reconstruction-ragged": lambda: Reconstruction(T, [[1.0, 0.0], [0.0]]),
    "problem-ragged": lambda: DecisionProblem(**PROBLEM | {"loss": [[0.0, 1.0], [1.0]]}),
    "kernel-strings": lambda: Kernel(S, S, [["a", "b"], ["c", "d"]]),
    "dist-strings": lambda: Dist(S, ["x", "y"]),
    "dist-null": lambda: Dist(S, [None, 1.0]),
    "kernel-nan": lambda: Kernel(S, S, [[float("nan"), 0.0], [1.0, 1.0]]),
    "loss-inf": lambda: LossTable(S, ["a0"], [[float("inf")], [0.0]]),
    "offer-alpha-string": lambda: SourceOffer("A", "0.5", 1),
    "offer-cost-nan": lambda: SourceOffer("A", 0.5, float("nan")),
    "silent-offer-cost-string": lambda: SourceOffer("A", 0.5, "1/3"),
    "silent-offer-name-number": lambda: SourceOffer(3, 0.5, 1),
    "binary-none": lambda: binary_label_noise(None, 0.2),
    "config-seed-string": lambda: ExperimentConfig(**CONFIG | {"seed": "5"}),
    "exact-budget-inf": lambda: exact_plan(OFFERS, float("inf")),
    "greedy-budget-inf": lambda: greedy_plan(OFFERS, float("inf")),
    "exact-budget-nan": lambda: exact_plan(OFFERS, float("nan")),
    "greedy-budget-string": lambda: greedy_plan(OFFERS, "10"),
    "alpha-ndarray": lambda: alpha(np.eye(2)),
    "lambda-ndarray": lambda: lambda_coeff(np.eye(2)),
    "replicate-2.5": lambda: replicate(T, 2.5),
    "replicate-string-past-the-guard": lambda: replicate("notakernel", 40),
    "sample-size-past-the-guard": lambda: sample(P, 10**12, 0),
    "silent-regret-index-1.5": lambda: regret(DecisionProblem(**PROBLEM), 1.5, 0),
    "problem-experiment-matrix": lambda: DecisionProblem(**PROBLEM | {"experiment": T.matrix}),
    "config-clean-weights": lambda: ExperimentConfig(**CONFIG | {"clean_dist": [0.3, 0.7]}),
    "silent-symmetric-2.5-classes": lambda: symmetric_label_noise(2.5, 0.1),
    "silent-symmetric-string-classes": lambda: symmetric_label_noise("3", 0.1),
    "silent-binary-string-sigma": lambda: binary_label_noise("0.1", 0.2),
    "silent-config-trials-2.5": lambda: ExperimentConfig(**CONFIG | {"trials": 2.5}),
    "silent-config-sample-sizes-string": lambda: ExperimentConfig(**CONFIG | {"sample_sizes": "12"}),
    "silent-space-string": lambda: Space("ab"),
    "silent-space-numbers": lambda: Space([1, 2]),
    "silent-kernel-numeric-strings": lambda: Kernel(S, S, [["0.8", "0.3"], ["0.2", "0.7"]]),
    "silent-dist-booleans": lambda: Dist(S, [True, False]),
    "silent-dist-numpy-booleans": lambda: Dist(S, [np.True_, 0.0]),
    "silent-kernel-boolean-array": lambda: Kernel(S, S, np.eye(2, dtype=bool)),
    "silent-mixed-source-true": lambda: MixedSource(True, alpha=0.5),
    "silent-replicate-true": lambda: replicate(T, True),
    "sample-size-string": lambda: sample(P, "3", 1),
    "sample-size-2.5": lambda: sample(P, 2.5, 1),
    "sample-seed-string": lambda: sample(P, 3, "1"),
    "pacbayes-n-string": lambda: pacbayes_upper(1.0, "5", 1.0),
    "pacbayes-n-past-a-double": lambda: pacbayes_upper(1.0, 10**400, 1.0),
    "fastrate-gamma-beta-string": lambda: fastrate_gamma("1", 1.0),
    "fastrate-gamma-beta-1000": lambda: fastrate_gamma(1000, 1.0),
    "lecam-n-string": lambda: lecam_replicated(DecisionProblem(**PROBLEM), 0, 1, "5"),
    "lecam-corrupted-n-string": lambda: lecam_corrupted(DecisionProblem(**PROBLEM), T, 0, 1, "5"),
    "mixed-corruption-int": lambda: MixedCorruption(5),
    "mixed-corruption-int-source": lambda: MixedCorruption([1]),
    "parallel-product-array": lambda: parallel_product([np.eye(2)]),
    "make-spec-missing-parameter": lambda: make_spec("binary_label_noise"),
    "silent-make-spec-unknown-parameter": lambda: make_spec("binary_label_noise", **dict(SPEC), extra=1),
    "spec-string-sigma": lambda: CorruptionSpec("binary_label_noise", (("sigma_neg", "x"), ("sigma_pos", 0.2))),
    "spec-repeated-parameter": lambda: CorruptionSpec("binary_label_noise", SPEC + (("sigma_neg", 0.3),)),
    "spec-params-not-pairs": lambda: CorruptionSpec("binary_label_noise", (0.1, 0.2)),
    "erm-counts-too-long": lambda: erm_indices([[1, 2, 3]], LossTable(S, ["a0"], [[0.0], [1.0]])),
    "erm-counts-one-row": lambda: erm_indices([1, 2], LossTable(S, ["a0"], [[0.0], [1.0]])),
    "silent-erm-counts-negative": lambda: erm_indices([[-1, 3]], zero_one_loss(S)),
    "silent-erm-counts-negative-total": lambda: erm_indices([[2, -5]], zero_one_loss(S)),
    "silent-erm-counts-nan": lambda: erm_indices([[float("nan"), 3]], zero_one_loss(S)),
    "silent-erm-counts-inf": lambda: erm_indices([[float("inf"), 3]], zero_one_loss(S)),
    "silent-erm-counts-booleans": lambda: erm_indices(np.array([[True, False]]), zero_one_loss(S)),
    "erm-counts-strings": lambda: erm_indices([["1", "3"]], zero_one_loss(S)),
    "erm-counts-ragged": lambda: erm_indices([[1, 2], [3]], zero_one_loss(S)),
    "silent-erm-counts-boolean-in-list": lambda: erm_indices([[True, 1]], zero_one_loss(S)),
    "config-bad-spec": lambda: ExperimentConfig(**CONFIG | {"corruption": CorruptionSpec("partial_labels", SPEC)}),
    "sample-list-for-dist": lambda: sample([0.5, 0.5], 3, 1),
    "corrupt-array-for-kernel": lambda: corrupt(np.eye(2), [0, 1], 1),
    "erm-string-for-loss": lambda: erm([0, 1], "x"),
    "erm-indices-string-for-loss": lambda: erm_indices([[1, 2]], "x"),
    "lecam-int-for-problem": lambda: lecam_replicated(5, 0, 1, 1.0),
    "lecam-corrupted-array-for-kernel": lambda: lecam_corrupted(DecisionProblem(**PROBLEM), np.eye(2), 0, 1, 1.0),
    "lecam-mixed-list-for-mix": lambda: lecam_mixed(DecisionProblem(**PROBLEM), [MixedSource(5, alpha=0.5)], 0, 1),
    "regret-int-for-problem": lambda: regret(5, 0, 0),
    "separation-none-for-problem": lambda: separation(None, 0, 1),
    "offer-cost-decimal": lambda: SourceOffer("A", 0.5, Decimal("0.5")),
    "kernel-matrix-shape": lambda: Kernel(S, S, [[1.0, 0.0]]),
    "mixed-corruption-empty": lambda: MixedCorruption([]),
    "mixed-corruption-zero-counts": lambda: MixedCorruption([MixedSource(0, alpha=0.5)] * 2),
    "effective-count-no-alpha": lambda: MixedCorruption([MixedSource(5)]).effective_count(),
    "parallel-product-empty": lambda: parallel_product([]),
    "replicate-0": lambda: replicate(T, 0),
    "plan-no-offers": lambda: exact_plan([], 1),
    "greedy-int-for-offer": lambda: greedy_plan([1], 10),
    "rank-lower-int-for-offer": lambda: rank_sources_lower([1]),
    "rank-upper-none-for-offers": lambda: rank_sources_upper(None),
    "rank-lower-no-offers": lambda: rank_sources_lower([]),
    "space-0d-array": lambda: Space(np.array("ab")),
    "silent-normalized-nan": lambda: normalized([1.0, float("nan")]),
    "silent-normalized-inf": lambda: normalized([1.0, float("inf")]),
    "normalized-strings": lambda: normalized(["a", "b"]),
    "silent-normalized-booleans": lambda: normalized([True, False]),
    "normalized-negative": lambda: normalized([-1.0, 2.0]),
    "normalized-all-zero": lambda: normalized([0.0, 0.0]),
    "silent-pullback-nan": lambda: pullback(T, [float("nan"), 1.0]),
    "pullback-strings": lambda: pullback(T, ["a", "b"]),
    "pullback-scalar": lambda: pullback(T, 1.0),
    "pullback-length": lambda: pullback(T, [1.0, 2.0, 3.0]),
    "pullback-array-for-kernel": lambda: pullback(np.eye(2), [1.0, 2.0]),
    "silent-gradient-check-nan": lambda: gradient_check(log_loss(), T, [float("nan"), 0.0]),
    "gradient-check-strings": lambda: gradient_check(log_loss(), T, ["a", "b"]),
    "gradient-check-length": lambda: gradient_check(log_loss(), T, [0.0, 0.0, 0.0]),
    "silent-fit-steps--1": lambda: FIT(steps=-1),
    "fit-steps-1.5": lambda: FIT(steps=1.5),
    "silent-fit-rate-nan": lambda: FIT(rate=float("nan")),
    "silent-fit-rate--1": lambda: FIT(rate=-1),
    "fit-rate-string": lambda: FIT(rate="x"),
    "fit-array-for-kernel": lambda: fit_proper(True, np.eye(2), ["-1", "+1"], log_loss()),
    "midpoint-convex-dim-0": lambda: log_loss().midpoint_convex(0, 2, 0),
    "midpoint-convex-dim-1.5": lambda: log_loss().midpoint_convex(1.5, 2, 0),
    "silent-midpoint-convex-trials--1": lambda: log_loss().midpoint_convex(2, -1, 0),
    "reconstruction-shape": lambda: Reconstruction(T, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "space-index-foreign": lambda: S.index("x"),
    "bernstein-foreign-loss": lambda: bernstein_constant(P, zero_one_loss(FOREIGN.space)),
    "f-divergence-foreign": lambda: f_divergence(P, FOREIGN, VARIATIONAL),
    "sdpi-check-foreign": lambda: sdpi_check(T, P, FOREIGN, VARIATIONAL),
    "pushforward-foreign": lambda: pushforward(T, FOREIGN),
    # the actions tie on the clean outcome -1 only, where noise moves their corrected losses apart
    "fastrate-eta-infinite": lambda: fastrate_curve(ExperimentConfig(
        **CONFIG | {"loss": LossTable(S, ["a0", "a1"], [[0.0, 0.0], [0.0, 1.0]])})),
    **WRONG_TYPE,
}

#: The class each refusal above raises, where it is more than an InvalidInput.
REFUSED_AS = {
    "normalized-negative": NegativeWeight,
    "normalized-all-zero": NotNormalized,
    **dict.fromkeys(["pullback-length", "gradient-check-length", "reconstruction-shape"], LengthMismatch),
    **dict.fromkeys(["space-index-foreign", "bernstein-foreign-loss", "f-divergence-foreign", "sdpi-check-foreign",
                     "pushforward-foreign"], SpaceMismatch),
    "fastrate-eta-infinite": PreconditionFailed,
    "sample-size-past-the-guard": SizeGuardExceeded,
    **dict.fromkeys(["silent-erm-counts-negative", "silent-erm-counts-negative-total", "silent-erm-counts-nan",
                     "silent-erm-counts-inf", "silent-erm-counts-booleans", "erm-counts-strings", "erm-counts-ragged",
                     "silent-erm-counts-boolean-in-list", *WRONG_TYPE], InvalidParameter),
}


@pytest.mark.parametrize("case", LIBRARY_REFUSED)
def test_library_refusal_is_one_line(case):
    with pytest.raises(REFUSED_AS.get(case, InvalidInput)) as caught:
        LIBRARY_REFUSED[case]()
    message = str(caught.value)
    assert message and "\n" not in message


def test_sample_size_is_guarded_before_anything_is_drawn(monkeypatch):
    with pytest.raises(SizeGuardExceeded) as caught:
        LIBRARY_REFUSED["sample-size-past-the-guard"]()
    assert str(caught.value) == "sample size 1000000000000 exceeds guard 10000000"

    def low(count, bound, what, error=SizeGuardExceeded):
        guard(count, 3 if what == "sample size" else bound, what, error)

    patch_guards(monkeypatch, low)
    assert len(sample(P, 3, 1)) == 3  # at the bound
    with pytest.raises(SizeGuardExceeded, match="^sample size 4 exceeds guard 3$"):
        sample(P, 4, 1)


#: Each value type with the keyword arguments of a valid value, and each
#: function that reads scalar or sequence arguments with those of a valid call.
CONSTRUCTORS = {
    "Space": (Space, dict(labels=["-1", "+1"])),
    "Dist": (Dist, dict(space=S, weights=[0.3, 0.7])),
    "Kernel": (Kernel, dict(domain=S, codomain=S, matrix=[[0.8, 0.3], [0.2, 0.7]])),
    "LossTable": (LossTable, dict(outcomes=S, actions=["a0", "a1"], values=[[0.0, 1.0], [1.0, 0.0]])),
    "Reconstruction": (Reconstruction, dict(kernel=Kernel(S, S, np.eye(2)), matrix=[[1.0, 0.0], [0.0, 1.0]])),
    "DecisionProblem": (DecisionProblem, PROBLEM),
    "SourceOffer": (SourceOffer, dict(name="A", alpha=0.5, unit_cost=Fraction(3, 2), corrected_sup=1.0)),
    "MixedSource": (MixedSource, dict(count=10, kernel=T, alpha=0.5, corrected_sup=1.0)),
    "ExperimentConfig": (ExperimentConfig, CONFIG),
    "binary_label_noise": (binary_label_noise, dict(sigma_neg=0.1, sigma_pos=0.2)),
    "symmetric_label_noise": (symmetric_label_noise, dict(classes=3, sigma=0.1)),
    "semi_supervised": (semi_supervised, dict(sigma_neg=0.5, sigma_pos=0.6)),
    "partial_labels": (partial_labels, dict(sigma=0.2)),
    "CorruptionSpec": (CorruptionSpec, dict(family="binary_label_noise", params=SPEC)),
    "MixedCorruption": (MixedCorruption, dict(sources=[MixedSource(10, alpha=0.5)])),
    "parallel_product": (parallel_product, dict(ts=[T, T])),
    "sample": (partial(sample, P), dict(n=3, seed=1)),
    "pacbayes_upper": (pacbayes_upper, dict(corrected_sup=1.0, n=5, kl=1.0, delta=0.1)),
    "fastrate_gamma": (fastrate_gamma, dict(beta=1.0, sup_norm=1.0)),
    "lecam_replicated": (partial(lecam_replicated, DecisionProblem(**PROBLEM), 0, 1), dict(n=5.0)),
    "normalized": (normalized, dict(weights=[1.0, 3.0])),
    "pullback": (pullback, dict(t=T, f=[1.0, 2.0])),
    "gradient_check": (partial(gradient_check, log_loss()), dict(t=T, at=[0.3, -0.2])),
    "fit_proper": (FIT, dict(steps=5, rate=1.0)),
    "midpoint_convex": (log_loss().midpoint_convex, dict(dim=2, trials=3, seed=1)),
}

FIELDS = [(name, key) for name, (_, valid) in CONSTRUCTORS.items() for key in valid]

#: The array fields, each with a valid value.
ARRAYS = {
    "Dist": ("weights", [0.3, 0.7]),
    "Kernel": ("matrix", [[0.8, 0.3], [0.2, 0.7]]),
    "LossTable": ("values", [[0.0, 1.0], [1.0, 0.0]]),
    "Reconstruction": ("matrix", [[1.0, 0.0], [0.0, 1.0]]),
    "DecisionProblem": ("loss", [[0.0, 1.0], [1.0, 0.0]]),
    "normalized": ("weights", [1.0, 3.0]),
    "pullback": ("f", [1.0, 2.0]),
    "gradient_check": ("at", [0.3, -0.2]),
}


def _builds_or_refuses(constructor, changes):
    make, valid = CONSTRUCTORS[constructor]
    try:
        make(**valid | changes)
    except InvalidInput as exc:
        assert str(exc) and "\n" not in str(exc)


@pytest.mark.parametrize("name, key", FIELDS, ids=[f"{n}.{k}" for n, k in FIELDS])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(value=_SCALARS)
def test_any_scalar_in_any_field_builds_or_is_refused(name, key, value):
    _builds_or_refuses(name, {key: value})


@pytest.mark.parametrize("name", ARRAYS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(value=_SCALARS, data=st.data())
def test_any_scalar_in_any_entry_builds_or_is_refused(name, value, data):
    key, array = ARRAYS[name]
    entries = np.asarray(array, dtype=object)
    entries.flat[data.draw(st.integers(0, entries.size - 1))] = value
    _builds_or_refuses(name, {key: entries.tolist()})


class TestNumpyScalars:
    """numpy integers and reals are read as Python ones; numpy booleans are refused."""

    def test_catalog_parameters(self):
        assert binary_label_noise(np.float64(0.1), np.float32(0.5)) == binary_label_noise(0.1, 0.5)
        assert symmetric_label_noise(np.int64(3), np.float64(0.1)) == symmetric_label_noise(3, 0.1)
        assert all(type(v) is float for _, v in binary_label_noise(*np.array([0.1, 0.2])).params)

    def test_config_counts(self):
        config = ExperimentConfig(**CONFIG | {"sample_sizes": np.array([10, 20]), "trials": np.int64(3),
                                              "seed": np.uint64(5)})
        assert config.sample_sizes == (10, 20) and config.trials == 3 and config.seed == 5
        assert all(type(n) is int for n in (*config.sample_sizes, config.trials, config.seed))

    def test_offers_sources_and_budgets(self):
        offer = SourceOffer("A", np.float64(0.5), np.int64(3), np.float64(1.0))
        assert offer == SourceOffer("A", 0.5, 3, 1.0) and type(offer.alpha) is float
        assert exact_plan([offer], np.int64(10)) == exact_plan([offer], 10)
        assert greedy_plan([offer], np.float64(10.5)) == greedy_plan([offer], Fraction(21, 2))
        source = MixedSource(np.int64(5), alpha=np.float64(0.5))
        assert (source.count, source.alpha) == (5, 0.5) and type(source.count) is int

    def test_arrays_counts_and_indices(self):
        assert np.array_equal(Dist(S, np.array([0.25, 0.75], dtype=np.float32)).weights, [0.25, 0.75])
        assert np.array_equal(Kernel(S, S, np.eye(2, dtype=np.int64)).matrix, np.eye(2))
        assert replicate(T, np.int64(2)).matrix.shape == (4, 4)
        assert regret(DecisionProblem(**PROBLEM), np.int64(0), np.int64(1)) == 1.0

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_booleans_are_no_numbers(self, flag):
        with pytest.raises(InvalidInput):
            binary_label_noise(flag, 0.2)
        with pytest.raises(InvalidInput):
            ExperimentConfig(**CONFIG | {"trials": flag})


MAX = sys.float_info.max
BELOW_0 = math.nextafter(0.0, -1.0)

#: Each range a field kind carries: a call of one value, the last value
#: accepted at one end (the end itself when it is closed), the first value
#: refused past it and the name the message gives the field.
RANGES = {
    "sigma-low": (lambda v: binary_label_noise(v, 0.2), 0.0, BELOW_0, "sigma_neg"),
    "sigma-high": (lambda v: binary_label_noise(0.1, v), 1.0, math.nextafter(1.0, 2.0), "sigma_pos"),
    "classes": (lambda v: symmetric_label_noise(v, 0.1), 2, 1, "classes"),
    "source-count-low": (lambda v: MixedSource(v, alpha=0.5), 0, -1, 'mixed source "count"'),
    "source-count-high": (lambda v: MixedSource(v, alpha=0.5), int(MAX), int(MAX) + 1, 'mixed source "count"'),
    "source-alpha-low": (lambda v: MixedSource(5, alpha=v), 0.0, BELOW_0, 'mixed source "alpha"'),
    "source-alpha-high": (lambda v: MixedSource(5, alpha=v), 1.0, math.nextafter(1.0, 2.0), 'mixed source "alpha"'),
    "source-corrected-sup": (lambda v: MixedSource(5, alpha=0.5, corrected_sup=v), 0.0, BELOW_0,
                             'mixed source "corrected_sup"'),
    "pacbayes-n-low": (lambda v: pacbayes_upper(1.0, v, 1.0), 1, 0, "n"),
    "pacbayes-n-high": (lambda v: pacbayes_upper(1.0, v, 1.0), int(MAX), int(MAX) + 1, "n"),
    "pacbayes-kl": (lambda v: pacbayes_upper(1.0, 5, v), 0.0, BELOW_0, "kl"),
    "pacbayes-corrected-sup": (lambda v: pacbayes_upper(v, 5, 1.0), 0.0, BELOW_0, "corrected_sup"),
    "pacbayes-delta-low": (lambda v: pacbayes_upper(1.0, 5, 1.0, v), 5e-324, 0.0, "delta"),
    "pacbayes-delta-high": (lambda v: pacbayes_upper(1.0, 5, 1.0, v), math.nextafter(1.0, 0.0), 1.0, "delta"),
    "fastrate-beta-low": (lambda v: fastrate_gamma(v, 1e-300), 5e-324, 0.0, "beta"),
    "fastrate-beta-high": (lambda v: fastrate_gamma(v, 1.0), math.log(MAX), math.nextafter(math.log(MAX), math.inf),
                           "beta"),
    "fastrate-sup-norm": (lambda v: fastrate_gamma(1e-300, v), 5e-324, 0.0, "sup_norm"),
    "lecam-n": (lambda v: lecam_replicated(DecisionProblem(**PROBLEM), 0, 1, v), 0.0, BELOW_0, "replication count"),
    "offer-alpha-low": (lambda v: SourceOffer("A", v, 1), 0.0, BELOW_0, 'offer "alpha"'),
    "offer-alpha-high": (lambda v: SourceOffer("A", v, 1), 1.0, math.nextafter(1.0, 2.0), 'offer "alpha"'),
    "offer-cost-low": (lambda v: SourceOffer("A", 0.5, v), 5e-324, Fraction(1, 2**1075), 'offer "unit_cost"'),
    "offer-cost-high": (lambda v: SourceOffer("A", 0.5, v), MAX, int(MAX) + 1, 'offer "unit_cost"'),
    "offer-corrected-sup-low": (lambda v: SourceOffer("A", 0.5, 1, v), 0.0, BELOW_0, 'offer "corrected_sup"'),
    "offer-corrected-sup-high": (lambda v: SourceOffer("A", 0.5, 1, v), math.sqrt(MAX),
                                 math.nextafter(math.sqrt(MAX), math.inf), 'offer "corrected_sup"'),
    "sample-n": (lambda v: sample(P, v, 1), 0, -1, "sample size"),
    "config-trials": (lambda v: ExperimentConfig(**CONFIG | {"trials": v}), 1, 0, 'config "trials"'),
    "config-sample-size": (lambda v: ExperimentConfig(**CONFIG | {"sample_sizes": (v, 20)}), 1, 0,
                           'config "sample_sizes"'),
    "replicate-n": (lambda v: replicate(T, v), 1, 0, "replication count"),
    "exact-budget": (lambda v: exact_plan(OFFERS, v), 0.0, BELOW_0, "budget"),
    "greedy-budget": (lambda v: greedy_plan(OFFERS, v), 0.0, BELOW_0, "budget"),
}


@pytest.mark.parametrize("case", RANGES)
def test_range_bound_is_accepted_and_one_step_past_refused(case):
    call, bound, past, field = RANGES[case]
    call(bound)
    with pytest.raises(InvalidParameter) as caught:
        call(past)
    assert str(caught.value).startswith(f"{field} must be ")


@pytest.mark.parametrize("cost, accepted", [
    (Fraction(1, 2**1075 - 1), True), (Fraction(2**100 + 1, 2**1175), True), (Fraction(1, 2**1075), False),
    (Fraction(2**100 - 1, 2**1175), False), (Fraction(1, 2**1076), False),
    (Fraction(int(MAX)), True), (Fraction(3 * int(MAX) - 1, 3), True), (Fraction(3 * int(MAX) + 1, 3), False),
    (Fraction(int(MAX) + 1), False), (Fraction(-1, 3), False)])
def test_unit_cost_ends_compare_fractions_exactly(cost, accepted):
    """The unit-cost range is tested in integers: a Fraction just inside
    either end is kept as it is, and one at or just past the open low end or
    just past the high end is refused with the range's words."""
    if accepted:
        assert SourceOffer("A", 0.5, cost).unit_cost is cost
    else:
        rule = r'^offer "unit_cost" must be in \(~2e-324, 1.7976931348623157e\+308\], got '
        with pytest.raises(InvalidParameter, match=rule):
            SourceOffer("A", 0.5, cost)


def test_mixed_corruption_names_its_field():
    with pytest.raises(InvalidParameter, match='^mixed corruption "sources" must be a list of MixedSource$'):
        MixedCorruption(5)


class TestWithin:
    def test_messages(self):
        with pytest.raises(InvalidParameter, match=r'^offer "alpha" must be in \[0, 1\], got 1.5$'):
            SourceOffer("A", 1.5, 1)
        with pytest.raises(InvalidParameter, match=r"^replication count must be >= 1, got 0$"):
            replicate(T, 0)
        with pytest.raises(InvalidParameter, match=r"^n must be in \[1, 1.7976931348623157e\+308\], got ~2e308$"):
            pacbayes_upper(1.0, 2 * 10**308, 1.0)

    def test_open_end_messages(self):
        with pytest.raises(InvalidParameter, match=r"^delta must be in \(0, 1\), got 0.0$"):
            pacbayes_upper(1.0, 5, 1.0, 0.0)
        with pytest.raises(InvalidParameter, match=r"^sup_norm must be > 0, got 0.0$"):
            fastrate_gamma(1.0, 0.0)
        with pytest.raises(InvalidParameter, match=r"^beta must be in \(0, 709.782712893384\], got 1000.0$"):
            fastrate_gamma(1000, 1.0)
        with pytest.raises(InvalidParameter,
                           match=r'^offer "unit_cost" must be in \(~2e-324, 1.7976931348623157e\+308\], got 0$'):
            SourceOffer("A", 0.5, 0)
        with pytest.raises(InvalidParameter, match=r"^x must be in \[0, 1\), got 1.0$"):
            typed(1.0, "x", within(NUM, 0, 1, "[)"))
        assert typed(0.0, "x", within(NUM, 0, 1, "[)")) == 0.0

    def test_lists_are_non_empty(self):
        with pytest.raises(InvalidParameter, match="^offers must be non-empty$"):
            exact_plan([], 1)
        with pytest.raises(InvalidParameter, match="^offers must be a list of SourceOffer$"):
            greedy_plan([1], 10)
        with pytest.raises(InvalidParameter, match='^mixed corruption "sources" must be non-empty$'):
            MixedCorruption(())
        with pytest.raises(InvalidParameter, match="^parallel_product factors must be non-empty$"):
            parallel_product(np.array([]))

    def test_keeps_the_kind(self):
        with pytest.raises(InvalidParameter, match="^x must be an integer$"):
            typed(2.5, "x", within(INT, 0, 3))
        with pytest.raises(ParseError, match=r'^x must be an integer or \{"num": integer, "den": integer\}$'):
            typed("1", "x", within(RATIONAL, 1))
        with pytest.raises(ParseError, match=r"^x must be >= 1, got 1/2$"):
            typed({"num": 1, "den": 2}, "x", within(RATIONAL, 1))
        assert typed(3, "x", within(INT, 0, 3)) == 3


class TestDecimalBudget:
    OFFERS = [SourceOffer("A", 0.5, Fraction(1, 12)), SourceOffer("B", 0.7, Fraction(5, 12))]

    @pytest.mark.parametrize("plan", [exact_plan, greedy_plan])
    def test_plans_as_its_fraction(self, plan):
        assert plan(self.OFFERS, Decimal("2.5")) == plan(self.OFFERS, Fraction(5, 2))
        assert plan(self.OFFERS, Decimal("-0.0")) == plan(self.OFFERS, 0)

    def test_exponents_build_no_power_of_ten(self):
        assert exact_plan(self.OFFERS, Decimal("1e-999999999")) == exact_plan(self.OFFERS, 0)
        with pytest.raises(InvalidParameter, match="^budget must be >= 0, got -~1e-999999999$"):
            exact_plan(self.OFFERS, Decimal("-1e-999999999"))
        with pytest.raises(CapacityGuardExceeded, match="^scaled capacity ~1e401 exceeds guard"):
            exact_plan(self.OFFERS, Decimal("1e400"))
        with pytest.raises(CapacityGuardExceeded, match="^scaled capacity Infinity exceeds guard"):
            exact_plan(self.OFFERS, Decimal("1e999999999999999999"))

    @pytest.mark.parametrize("zeros", [0, 1, 100, 999_990])
    def test_trailing_zeros_leave_the_message(self, zeros):
        # the digits are counted without them, and no power of ten is built for them
        with pytest.raises(InvalidParameter, match="^budget must be >= 0, got -1/2$"):
            exact_plan(self.OFFERS, Decimal("-0.5" + "0" * zeros))

    @pytest.mark.parametrize("budget", [Decimal("NaN"), Decimal("Infinity"), Decimal("sNaN")])
    def test_non_finite_is_refused(self, budget):
        with pytest.raises(InvalidParameter, match="^budget must be an integer, a Fraction or a finite number$"):
            exact_plan(self.OFFERS, budget)
