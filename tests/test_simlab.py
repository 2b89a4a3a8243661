"""Monte-Carlo pipeline: sampling, corruption, ERM, curves, proper-loss fits."""

import hashlib
import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corruptlab import bounds, errors
from corruptlab.catalog import (
    binary_label_noise,
    build_kernel,
    partial_labels,
    semi_supervised,
    symmetric_label_noise,
)
from corruptlab.kernels import Dist, Kernel, Space, identity, make_dist, point_mass
from corruptlab.reconstruct import LossTable, corrected_loss, pseudoinverse, zero_one_loss
from corruptlab import simlab
from corruptlab.simlab import (
    CELL_GUARD,
    ERM_TIE_RTOL,
    SAMPLE_SIZE_GUARD,
    SCORE_CHUNK_ENTRIES,
    CanonicalProperLoss,
    ExperimentConfig,
    RiskCurve,
    RiskPoint,
    _fresh_state,
    _generator,
    _rekey,
    _trial_seeds,
    corrupt,
    erm,
    erm_indices,
    fastrate_curve,
    fit_proper,
    gradient_check,
    log_loss,
    risk_curve,
    sample,
    splitmix64,
)

from helpers import binary_noise, constant_kernel, curve_by_size, random_kernel


#: numpy's own Philox, which a test may replace by a counting subclass.
Philox = np.random.Philox


def in_new_thread(work):
    """``work()`` run in a new thread, which holds no stream yet: its result, or its exception."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(work).result(timeout=120)


def _trial_seed(seed, trial_index):
    """The stream key of one cell, as the curves derive it."""
    return _trial_seeds(seed, range(trial_index, trial_index + 1))[0]


def softmax_neg(v):
    e = np.exp(-v + v.min())
    return e / e.sum()


class TestSample:
    def test_empty(self):
        p = make_dist(Space(["a", "b"]), [0.5, 0.5])
        assert sample(p, 0, 1).shape == (0,)

    def test_point_mass_always_same(self):
        p = point_mass(Space(["a", "b", "c"]), "b")
        assert set(sample(p, 50, 3).tolist()) == {1}

    def test_uniform_frequency(self):
        p = make_dist(Space(["a", "b"]), [0.5, 0.5])
        s = sample(p, 10**5, 42)
        assert abs(s.mean() - 0.5) < 0.01

    def test_deterministic(self):
        p = make_dist(Space(["a", "b", "c"]), [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(sample(p, 1000, 9), sample(p, 1000, 9))
        assert not np.array_equal(sample(p, 1000, 9), sample(p, 1000, 10))


class TestCorrupt:
    def test_identity_unchanged(self):
        t = identity(Space(["a", "b"]))
        s = np.array([0, 1, 1, 0])
        np.testing.assert_array_equal(corrupt(t, s, 5), s)

    def test_constant_kernel_constant_output(self):
        t = constant_kernel(Space(["a", "b"]), [0.0, 1.0])
        out = corrupt(t, np.array([0, 1, 0, 1]), 5)
        assert set(out.tolist()) == {1}

    def test_flip_frequency(self):
        t = binary_noise(0.2)
        clean = np.ones(10**5, dtype=np.int64)
        noisy = corrupt(t, clean, 11)
        flipped = float((noisy == 0).mean())
        assert abs(flipped - 0.2) < 0.01

    def test_accepts_names(self):
        t = binary_noise(0.0)
        out = corrupt(t, ["-1", "+1", "+1"], 1)
        np.testing.assert_array_equal(out, [0, 1, 1])

    def test_unknown_outcome(self):
        t = binary_noise(0.1)
        with pytest.raises(errors.UnknownOutcome):
            corrupt(t, ["-1", "nope"], 1)
        with pytest.raises(errors.UnknownOutcome):
            corrupt(t, np.array([0, 2]), 1)


def chi_square_critical(df):
    """Upper 1e-3 quantile of chi-square by the Wilson-Hilferty approximation,
    at most 3.1% above the exact quantile for every df >= 1."""
    z = 3.090232
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def chi_square(vectors, n, q):
    """Pearson's statistic of count vectors against Multinomial(n, q), with
    its degrees of freedom; cells expected below 5 are pooled into one."""
    cells = [c for c in itertools.product(range(n + 1), repeat=len(q)) if sum(c) == n]
    pmf = np.array([math.factorial(n) / math.prod(map(math.factorial, c)) * math.prod(np.power(q, c))
                    for c in cells])
    index = {c: i for i, c in enumerate(cells)}
    observed = np.zeros(len(cells))
    for v in vectors:
        observed[index[tuple(int(x) for x in v)]] += 1
    expected = pmf * len(vectors)
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return float(((observed - expected) ** 2 / expected).sum()), len(expected) - 1


#: (corruption, clean weights) whose corrupted counts are checked against
#: Multinomial(n, T p).
COUNT_CASES = {
    "binary": (binary_label_noise(0.05, 0.15), [0.2, 0.8]),
    "symmetric-3": (symmetric_label_noise(3, 0.2), [0.05, 0.15, 0.8]),
    "semi-supervised": (semi_supervised(0.6, 0.8), [0.4, 0.6]),
}


class TestCountsLaw:
    """The counts of sample -> corrupt are Multinomial(n, T p), the law
    ``risk_curve`` draws each trial's counts from."""

    N, REPLICATES, SEED = 6, 3000, 8101

    def law(self, case):
        spec, weights = COUNT_CASES[case]
        t = build_kernel(spec)
        p = make_dist(t.domain, weights)
        return t, p, t.matrix @ p.weights

    @pytest.mark.parametrize("case", COUNT_CASES)
    def test_sample_then_corrupt(self, case):
        t, p, q = self.law(case)
        vectors = [np.bincount(corrupt(t, sample(p, self.N, self.SEED + 2 * r), self.SEED + 2 * r + 1),
                               minlength=len(q)) for r in range(self.REPLICATES)]
        stat, df = chi_square(vectors, self.N, q)
        assert stat <= chi_square_critical(df)
        # the test has power: a law a fifth of the way to uniform is refused
        stat, df = chi_square(vectors, self.N, 0.8 * q + 0.2 / len(q))
        assert stat > chi_square_critical(df)

    @pytest.mark.parametrize("case", COUNT_CASES)
    def test_trial_draw(self, case):
        _, _, q = self.law(case)
        vectors = [np.random.Generator(np.random.Philox(key=_trial_seed(self.SEED, r))).multinomial(self.N, q)
                   for r in range(self.REPLICATES)]
        stat, df = chi_square(vectors, self.N, q)
        assert stat <= chi_square_critical(df)


def erm_index(counts, loss):
    """The oracle of ``erm_indices``: one row of counts scored on its own, by
    a vector-matrix product and a scan for the first risk within the tie cut."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise errors.EmptySample("empirical risk minimization needs at least one observation")
    risks = ((counts / total) @ loss.values).tolist()
    cut = min(risks) + ERM_TIE_RTOL * loss.sup_norm
    return next(a for a, r in enumerate(risks) if r <= cut)


def splitmix64_int(x):
    """The oracle of ``splitmix64``: one step of the mixer in Python integers."""
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def erm_checked(sample_values, loss):
    """``erm`` on the sample, after checking that the oracle ``erm_index`` on
    the sample's counts picks the same action."""
    chosen = erm(sample_values, loss)
    counts = np.bincount(np.asarray(sample_values, dtype=np.int64), minlength=len(loss.outcomes))
    assert loss.actions[erm_index(counts, loss)] == chosen
    return chosen


class TestErm:
    def test_single_action(self):
        loss = LossTable(Space(["a", "b"]), ["only"], [[0.1], [0.9]])
        assert erm_checked(np.array([0, 1]), loss) == "only"

    def test_unique_argmin(self):
        space = Space(["a", "b"])
        loss = zero_one_loss(space)
        assert erm_checked(np.zeros(10, dtype=np.int64), loss) == "a"

    def test_matches_brute_force_means(self):
        rng = np.random.default_rng(21)
        space = Space(["a", "b", "c"])
        loss = LossTable(space, ["x", "y", "z", "w"], rng.uniform(0, 1, (3, 4)))
        s = rng.integers(0, 3, size=40)
        means = [np.mean([loss.values[z, a] for z in s]) for a in range(4)]
        assert erm_checked(s, loss) == loss.actions[int(np.argmin(means))]

    def test_tie_goes_to_lowest_index(self):
        space = Space(["a"])
        loss = LossTable(space, ["first", "second"], [[0.5, 0.5]])
        assert erm_checked(np.array([0]), loss) == "first"

    def test_rounding_does_not_break_an_exact_tie(self):
        # The corrected 0-1 loss of binary noise at sigma = 0.2 is -1/3 and 4/3,
        # so both risks on the sample [0, 1] are exactly 0.5.  The left inverse
        # by normal equations gave these values, whose risks differ by 3.3e-16.
        t = binary_noise(0.2)
        rounded = LossTable(t.codomain, t.domain.labels,
                            [[-0.3333333333333333, 1.333333333333333],
                             [1.3333333333333335, -0.3333333333333334]])
        risks = np.array([0.5, 0.5]) @ rounded.values
        assert risks[0] - risks[1] == pytest.approx(3.3e-16, rel=0.01)
        for loss in (rounded, corrected_loss(pseudoinverse(t), zero_one_loss(t.domain))):
            assert erm_checked(np.array([0, 1]), loss) == "-1"

    def test_empty_sample(self):
        with pytest.raises(errors.EmptySample):
            erm(np.array([], dtype=np.int64), zero_one_loss(Space(["a", "b"])))
        with pytest.raises(errors.EmptySample):
            erm_indices([[1, 0], [0, 0]], zero_one_loss(Space(["a", "b"])))


def scored_by_both(counts, loss):
    """``erm_indices`` on the rows of ``counts``, after checking that the
    oracle picks the same action on every row."""
    chosen = erm_indices(counts, loss)
    assert chosen.tolist() == [erm_index(row, loss) for row in counts]
    return chosen.tolist()


class TestErmIndices:
    """One array pass picks the action the per-row oracle picks, on every row."""

    def test_matches_per_row_oracle_on_random_rows(self):
        rng = np.random.default_rng(1717)
        rows = 0
        for case in range(48):
            k, actions = (int(v) for v in rng.integers(2, 65, size=2))
            space = Space([str(i) for i in range(k)])
            values = (rng.uniform(-1.0, 2.0, (k, actions)) if case % 3 == 0 else
                      rng.integers(0, 3, (k, actions)) if case % 3 == 1 else  # exact ties are common
                      rng.choice([-1 / 3, 4 / 3], (k, actions)))  # as a corrected 0-1 loss
            loss = LossTable(space, [f"a{j}" for j in range(actions)], values)
            counts = rng.multinomial(int(rng.integers(1, 40)), rng.dirichlet(np.ones(k)), size=2100)
            scored_by_both(counts, loss)
            rows += len(counts)
        assert rows >= 10**5

    def test_exact_ties_go_to_the_lowest_index(self):
        # the README's binary sigma = 0.2 sample [0, 1]: both corrected risks are 1/2
        t = binary_noise(0.2)
        loss = corrected_loss(pseudoinverse(t), zero_one_loss(t.domain))
        assert scored_by_both([[1, 1], [5, 5], [1, 0], [0, 1], [7, 7]], loss) == [0, 0, 0, 1, 0]
        three = LossTable(Space(["a", "b", "c"]), ["x", "y", "z"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert scored_by_both([[2, 2, 2], [1, 3, 3], [3, 1, 3], [4, 4, 1]], three) == [0, 1, 0, 0]

    @pytest.mark.parametrize("side, expected", [(-1, 0), (0, 0), (1, 1)], ids=["below", "at", "above"])
    def test_one_ulp_either_side_of_the_tie_cut(self, side, expected):
        # action 0's risk is the cut or one ulp off it, action 1's the minimum 1.0 and
        # the sup norm 2.0; each row's frequencies are 1 or 1/2, so every risk is exact
        cut = 1.0 + ERM_TIE_RTOL * 2.0
        risk = {-1: np.nextafter(cut, 0.0), 0: cut, 1: np.nextafter(cut, 3.0)}[side]
        loss = LossTable(Space(["a", "b"]), ["x", "y", "z"], [[risk, 1.0, 2.0], [risk, 1.0, 2.0]])
        assert scored_by_both([[1, 0], [0, 1], [1, 1], [4, 4]], loss) == [expected] * 4


class TestSplitmix:
    """All cell keys come from one vectorised splitmix64, equal to the mixer
    in Python integers."""

    #: sha256 of the keys of cells 0..2000, in decimal joined by commas.
    DIGESTS = {0: "65a4fd769a873b1102c6768776ed59997eef674299fec8970336e3c75b8ef745",
               2**64 - 1: "e7dfba78c303593e631f8a36dfcaec4a7b91cd41ba371f53bc8daebe2f3a2d15"}

    @pytest.mark.parametrize("seed", DIGESTS)
    def test_cell_keys_match_the_reference(self, seed):
        keys = _trial_seeds(seed, range(2001))
        assert keys == [seed ^ splitmix64_int(i) for i in range(2001)]
        assert hashlib.sha256(",".join(map(str, keys)).encode()).hexdigest() == self.DIGESTS[seed]
        assert [_trial_seed(seed, i) for i in (0, 1, 2000)] == [keys[0], keys[1], keys[2000]]

    def test_published_values_and_wrapping(self):
        # the first two outputs of a splitmix64 generator seeded with 0
        assert splitmix64([0, 0x9E3779B97F4A7C15]).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        near = [2**64 - 1, 2**63, 2**64 - 0x9E3779B97F4A7C15]
        assert splitmix64(near).tolist() == [splitmix64_int(x) for x in near]

    def test_a_single_integer_wraps_without_warning(self):
        with np.errstate(over="raise"):
            assert splitmix64(2**64 - 1).tolist() == [splitmix64_int(2**64 - 1)]


class TestScoringPasses:
    def test_size_spanning_several_passes_matches_per_cell_oracle(self, monkeypatch):
        spec = symmetric_label_noise(64, 0.3)
        t = build_kernel(spec)
        config = ExperimentConfig(Dist(t.domain, np.random.default_rng(5).dirichlet(np.ones(64))),
                                  zero_one_loss(t.domain), spec, (20, 40), 2 * SCORE_CHUNK_ENTRIES // 64 + 5, 31)
        passes, erm_rows = [], simlab._erm_rows
        monkeypatch.setattr(simlab, "_erm_rows", lambda counts, loss: passes.append(len(counts))
                            or erm_rows(counts, loss))
        curve = risk_curve(config)
        per_pass = SCORE_CHUNK_ENTRIES // 64
        assert passes == [per_pass] * 4 + [10]  # 2 * (2 * per_pass + 5) cells, in passes that span sizes
        table = corrected_loss(pseudoinverse(t), config.loss)
        clean_risks = config.clean_dist.weights @ config.loss.values
        q = t.matrix @ config.clean_dist.weights
        rows = []
        for n_idx, n in enumerate(config.sample_sizes):
            cells = range(n_idx * config.trials, (n_idx + 1) * config.trials)
            chosen = [erm_index(np.random.Generator(np.random.Philox(key=_trial_seed(config.seed, i)))
                                .multinomial(n, q / q.sum()), table) for i in cells]
            excess = clean_risks[chosen] - clean_risks.min()
            rows.append(RiskPoint(n, float(excess.mean()), float(excess.std(ddof=1) / math.sqrt(len(excess))),
                                  table.sup_norm * math.sqrt(2.0 * math.log(64) / n)))
        assert curve == RiskCurve(tuple(rows))


def random_curve_config(rng):
    """A config of 2 to 16 clean outcomes, up to 2 more corrupted ones, 1 to 12
    actions (integer losses in about a third, for exact ties), 1 to 6 sample
    sizes from 1 to 10^6 and 1 to 40 trials, its corruption a random kernel
    mixed with the identity so that it has a left inverse."""
    k = int(rng.integers(2, 17))
    t = random_kernel(rng, k, k + int(rng.integers(0, 3)))
    s = rng.uniform(0.1, 0.6)
    kernel = Kernel(t.domain, t.codomain, (1.0 - s) * np.eye(len(t.codomain), k) + s * t.matrix)
    actions = int(rng.integers(1, 13))
    values = (rng.integers(0, 3, (k, actions)).astype(float) if rng.random() < 1 / 3
              else rng.uniform(-1.0, 2.0, (k, actions)))
    sizes = tuple(sorted({int(x) for x in 10 ** rng.uniform(0, 6, int(rng.integers(1, 7)))}))
    return ExperimentConfig(Dist(t.domain, rng.dirichlet(np.ones(k))),
                            LossTable(t.domain, [f"a{i}" for i in range(actions)], values), kernel, sizes,
                            int(rng.integers(1, 41)), int(rng.integers(2**63)))


class TestOnePassCurve:
    """The curve drawn and scored in one pass over its cells, in passes that
    span sample sizes, against the per-size loop it replaced."""

    def test_matches_the_per_size_loop_at_every_pass_size(self, monkeypatch):
        chosen, erm_rows = [], simlab._erm_rows

        def recorded(counts, loss):  # the scoring pass of the curve, and of the oracle's erm_indices
            chosen.append(erm_rows(counts, loss))
            return chosen[-1]

        monkeypatch.setattr(simlab, "_erm_rows", recorded)
        rng = np.random.default_rng(2029)
        for _ in range(300):
            config = random_curve_config(rng)
            rec = pseudoinverse(config.kernel())
            chosen.clear()
            expected = curve_by_size(config, rec)
            expected_chosen = np.concatenate(chosen)
            widest = max(len(rec.kernel.codomain), len(config.loss.actions))
            for entries in (SCORE_CHUNK_ENTRIES, 1, 7 * widest):  # the default, 1 cell and 7 cells a pass
                monkeypatch.setattr(simlab, "SCORE_CHUNK_ENTRIES", entries)
                chosen.clear()
                curve = simlab._curve(config, rec, corrected_loss(rec, config.loss))
                assert curve == expected and curve.to_csv() == expected.to_csv()
                np.testing.assert_array_equal(np.concatenate(chosen), expected_chosen)  # every cell's action
            monkeypatch.setattr(simlab, "SCORE_CHUNK_ENTRIES", SCORE_CHUNK_ENTRIES)  # the oracle's passes

    @pytest.mark.parametrize("entries, passes", [(SCORE_CHUNK_ENTRIES, 1), (7 * 2, 4), (1, 27)],
                             ids=["default", "7-cells", "1-cell"])
    def test_keys_derived_and_scored_once_per_pass(self, entries, passes, monkeypatch):
        # 3 sizes x 9 trials = 27 cells of 2 outcomes and 2 actions
        calls = dict.fromkeys(("_erm_rows", "_trial_seeds"), 0)

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(simlab, name, counting(name, getattr(simlab, name)))
        monkeypatch.setattr(simlab, "SCORE_CHUNK_ENTRIES", entries)
        risk_curve(standard_config(sample_sizes=(10, 20, 30), trials=9))
        assert passes == math.ceil(27 / max(1, entries // 2))
        assert calls == {"_erm_rows": passes, "_trial_seeds": passes}


def standard_config(**overrides):
    space = Space(["-1", "+1"])
    defaults = dict(
        clean_dist=make_dist(space, [0.3, 0.7]),
        loss=zero_one_loss(space),
        corruption=binary_label_noise(0.25, 0.25),
        sample_sizes=(25, 50, 100),
        trials=40,
        seed=12345,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRiskCurve:
    def test_zero_corruption_excess_shrinks(self):
        curve = risk_curve(standard_config(
            corruption=binary_label_noise(0.0, 0.0),
            sample_sizes=(5, 200), trials=100))
        assert curve.rows[-1].mean_excess_risk <= curve.rows[0].mean_excess_risk

    def test_envelope_dominates_on_random_loss_instance(self):
        rng = np.random.default_rng(77)
        space = Space(["-1", "+1"])
        loss = LossTable(space, [f"a{i}" for i in range(10)], rng.uniform(0, 1, (2, 10)))
        curve = risk_curve(standard_config(loss=loss, sample_sizes=(400,), trials=200))
        row = curve.rows[0]
        assert row.mean_excess_risk <= row.envelope

    def test_corruption_does_not_help(self):
        clean = risk_curve(standard_config(corruption=binary_label_noise(0.0, 0.0)))
        noisy = risk_curve(standard_config())
        for a, b in zip(clean.rows, noisy.rows):
            assert b.mean_excess_risk >= a.mean_excess_risk - 2 * (a.std_error + b.std_error)

    def test_envelope_formula(self):
        config = standard_config(sample_sizes=(100,), trials=2)
        table = corrected_loss(pseudoinverse(config.kernel()), config.loss)
        expected = table.sup_norm * math.sqrt(2 * math.log(2) / 100)
        assert risk_curve(config).rows[0].envelope == pytest.approx(expected, rel=1e-12)

    def test_deterministic_csv(self):
        config = standard_config(trials=10)
        assert risk_curve(config).to_csv() == risk_curve(config).to_csv()

    def test_trials_are_order_independent(self):
        # every (n, trial) cell can be rebuilt in isolation from its derived
        # stream, so scheduling order cannot matter
        config = standard_config(sample_sizes=(30, 60), trials=8)
        t = config.kernel()
        table = corrected_loss(pseudoinverse(t), config.loss)
        clean_risks = config.clean_dist.weights @ config.loss.values
        q = t.matrix @ config.clean_dist.weights
        expected = {n: [] for n in config.sample_sizes}
        for cell in reversed(range(len(config.sample_sizes) * config.trials)):  # deliberately backwards
            n = config.sample_sizes[cell // config.trials]
            stream = np.random.Generator(np.random.Philox(key=_trial_seed(config.seed, cell)))
            counts = stream.multinomial(n, q / q.sum())
            expected[n].append(float(clean_risks[erm_index(counts, table)] - clean_risks.min()))
        rows = risk_curve(config).rows
        assert [r.n for r in rows] == list(config.sample_sizes)
        for row in rows:
            assert row.mean_excess_risk == pytest.approx(float(np.mean(expected[row.n])), abs=1e-15)

    def test_not_reconstructible(self):
        with pytest.raises(errors.NotReconstructible):
            risk_curve(standard_config(corruption=binary_label_noise(0.5, 0.5)))

    def test_empirical_corrected_mean_is_unbiased(self):
        # fixed action: corrected empirical mean ~ clean expected loss
        config = standard_config()
        t = config.kernel()
        table = corrected_loss(pseudoinverse(t), config.loss)
        p = config.clean_dist
        n = 10**5
        clean = sample(p, n, 99)
        noisy = corrupt(t, clean, 100)
        for a in range(len(table.actions)):
            values = table.values[noisy, a]
            se = values.std(ddof=1) / math.sqrt(n)
            target = float(p.weights @ config.loss.values[:, a])
            assert abs(values.mean() - target) <= 3 * se + 1e-12


#: Draws that leave a Philox generator mid-buffer or holding half of a 64-bit word.
LEFTOVER_DRAWS = {
    "none": lambda rng: None,
    "one-double": lambda rng: rng.random(),
    "three-doubles": lambda rng: rng.random(3),
    "one-uint32": lambda rng: rng.integers(0, 2**32 - 1, dtype=np.uint32),
}


class TestRekey:
    @pytest.mark.parametrize("leftover", LEFTOVER_DRAWS)
    def test_rekeyed_stream_matches_a_new_generator(self, leftover):
        # n * p on both sides of 30, where numpy's binomial switches algorithm
        cases = [(n, np.asarray(q)) for q in ([0.5, 0.5], [0.02, 0.18, 0.8], [0.001, 0.3, 0.699])
                 for n in (1, 59, 61, 1400, 1600, 10**6)]
        rng = _generator(7)
        fresh = _fresh_state(rng)
        before = set()  # (buffer position, pending 32-bit half) at each re-keying
        for i in range(200):
            key = _trial_seed(2024, i)
            n, q = cases[i % len(cases)]
            LEFTOVER_DRAWS[leftover](rng)
            state = rng.bit_generator.state
            before.add((state["buffer_pos"], state["has_uint32"]))
            got = _rekey(rng, fresh, key).multinomial(n, q, size=2)
            expected = np.random.Generator(np.random.Philox(key=key)).multinomial(n, q, size=2)
            np.testing.assert_array_equal(got, expected)
        assert len({pos for pos, _ in before}) > 1
        assert {half for _, half in before} == {1 if leftover == "one-uint32" else 0}

    @pytest.mark.parametrize("curve", [risk_curve, fastrate_curve])
    def test_curve_reads_the_state_once(self, curve, monkeypatch):
        # the fresh state is read once per thread and written once per cell of each curve
        config = standard_config(clean_dist=make_dist(Space(["-1", "+1"]), [0.0, 1.0]),
                                 sample_sizes=(25, 50), trials=6)
        accesses = {"read": 0, "write": 0}

        class CountingPhilox(Philox):
            @property
            def state(self):
                accesses["read"] += 1
                return Philox.state.__get__(self)

            @state.setter
            def state(self, value):
                accesses["write"] += 1
                Philox.state.__set__(self, value)

        expected = curve(config)
        monkeypatch.setattr(np.random, "Philox", CountingPhilox)
        assert in_new_thread(lambda: [curve(config), curve(config)]) == [expected, expected]
        assert accesses == {"read": 1, "write": 2 * 2 * 6}


def separable_config(**overrides):
    return standard_config(clean_dist=make_dist(Space(["-1", "+1"]), [0.0, 1.0]), **overrides)


class TestStreamPerThread:
    """Each thread makes one generator, at its first curve; the oracles open their own streams."""

    def test_one_philox_per_thread(self, monkeypatch):
        made = []

        class CountingPhilox(Philox):
            def __init__(self, *args, **kwargs):
                made.append(kwargs)
                super().__init__(*args, **kwargs)

        configs = (separable_config(sample_sizes=(25, 50), trials=6), separable_config(seed=7, trials=3))
        expected = (risk_curve(configs[0]), risk_curve(configs[1]), fastrate_curve(configs[0]))
        monkeypatch.setattr(np.random, "Philox", CountingPhilox)
        assert in_new_thread(lambda: (risk_curve(configs[0]), risk_curve(configs[1]),
                                      fastrate_curve(configs[0]))) == expected
        assert made == [{"key": 0}]

    def test_concurrent_curves_match_serial(self, monkeypatch):
        # 4 threads on 2 cores, switching every microsecond and at every cell between its re-key
        # and its draw, where a stream shared between threads would be re-keyed by another
        configs = [separable_config(sample_sizes=(1 + i, 6, 10), trials=8 + i, seed=1000 + i,  # ERM often errs
                                    corruption=binary_label_noise(0.3 + 0.02 * i, 0.35))
                   for i in range(4)]
        serial = [(risk_curve(c), fastrate_curve(c)) for c in configs]
        rekey = simlab._rekey

        def rekey_then_yield(rng, fresh, key):
            rekey(rng, fresh, key)
            time.sleep(0)
            return rng

        monkeypatch.setattr(simlab, "_rekey", rekey_then_yield)
        results = [[] for _ in configs]
        start = threading.Barrier(len(configs))

        def work(i):
            start.wait(timeout=60)
            for _ in range(20):
                results[i].append((risk_curve(configs[i]), fastrate_curve(configs[i])))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[pair] * 20 for pair in serial]

    def test_oracles_open_their_own_streams(self, monkeypatch):
        config = separable_config(sample_sizes=(25, 50), trials=6)
        rec = pseudoinverse(config.kernel())
        t, p = rec.kernel, config.clean_dist
        expected = risk_curve(config), sample(p, 300, 5), corrupt(t, sample(p, 300, 5), 6)

        def no_vehicle():
            raise AssertionError("an oracle used the curves' stream")

        monkeypatch.setattr(simlab, "_vehicle", no_vehicle)
        with pytest.raises(AssertionError, match="curves' stream"):
            risk_curve(config)
        drawn = sample(p, 300, 5)
        assert curve_by_size(config, rec) == expected[0]
        np.testing.assert_array_equal(drawn, expected[1])
        np.testing.assert_array_equal(corrupt(t, drawn, 6), expected[2])
        for leftover in LEFTOVER_DRAWS:
            TestRekey().test_rekeyed_stream_matches_a_new_generator(leftover)


@st.composite
def excess_arrays(draw):
    """1 to 6 sample sizes x 1 to 300 trials of excess risks: uniform, or a few
    values repeated, as a curve's are."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 300)))
    if draw(st.booleans()):
        return rng.uniform(0.0, 2.0, shape)
    return rng.choice(rng.uniform(0.0, 2.0, draw(st.integers(1, 4))), shape)


class TestSummary:
    """The ufunc reductions give ``ndarray.mean`` and ``ndarray.std``'s bits, past
    numpy's 8-wide blocks of pairwise summation too."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(excess_arrays())
    @example(np.full((1, 1), 0.5))
    @example(np.arange(6 * 300).reshape(6, 300) / 7.0)
    def test_equals_mean_and_std(self, excess):
        trials = excess.shape[1]
        stderrs = (excess.std(axis=1, ddof=1) / math.sqrt(trials)).tolist() if trials > 1 else [0.0] * len(excess)
        assert simlab._summary(excess) == (excess.mean(axis=1).tolist(), stderrs)


class TestFastRate:
    def test_requires_separable(self):
        with pytest.raises(errors.PreconditionFailed):
            fastrate_curve(standard_config())  # 0.3/0.7 mix is not separable

    def test_noiseless_separable_collapses_to_zero(self):
        space = Space(["-1", "+1"])
        report = fastrate_curve(standard_config(
            clean_dist=point_mass(space, "+1"),
            corruption=binary_label_noise(0.0, 0.0),
            sample_sizes=(1, 2, 4), trials=20))
        assert report.curve.rows[-1].mean_excess_risk == 0.0
        assert report.mean_ratio == 0.0

    def test_reports_halving_ratios(self):
        space = Space(["-1", "+1"])
        report = fastrate_curve(standard_config(
            clean_dist=point_mass(space, "+1"),
            corruption=binary_label_noise(0.2, 0.2),
            sample_sizes=(1, 2, 4, 8), trials=200))
        for n, ratio in report.ratios:
            assert 2 * n in (2, 4, 8) and ratio >= 0.0

    @pytest.mark.parametrize("curve", [risk_curve, fastrate_curve])
    def test_corrected_loss_built_once_per_job(self, curve, monkeypatch):
        # a fast-rate job's eta check and its curve share one corrected loss
        config = standard_config(clean_dist=point_mass(Space(["-1", "+1"]), "+1"), sample_sizes=(4, 8), trials=5)
        expected = curve(config)
        built = []

        def counting(r, loss):
            built.append(r)
            return corrected_loss(r, loss)

        for module in (simlab, bounds):
            monkeypatch.setattr(module, "corrected_loss", counting)
        assert curve(config) == expected
        assert len(built) == 1


class TestFitProper:
    def test_log_loss_is_midpoint_convex(self):
        assert log_loss().midpoint_convex(dim=4, trials=500, seed=7)
        concave = CanonicalProperLoss(name="concave", psi=lambda v: -float(v @ v), grad=lambda v: -2.0 * v)
        assert not concave.midpoint_convex(dim=4, trials=500, seed=7)

    def test_clean_fit_recovers_distribution(self):
        space = Space(["a", "b"])
        p = make_dist(space, [0.3, 0.7])
        s = sample(p, 10**5, 31)
        result = fit_proper(False, identity(space), s, log_loss(), steps=400, rate=1.0)
        np.testing.assert_allclose(softmax_neg(result.link), p.weights, atol=0.02)

    def test_clean_fit_matches_grid_search_oracle(self):
        # two outcomes: scan v = (0, x) and compare objective values
        space = Space(["a", "b"])
        p = make_dist(space, [0.4, 0.6])
        s = sample(p, 20000, 37)
        psi = log_loss()
        result = fit_proper(False, identity(space), s, psi, steps=400, rate=1.0)
        freq = np.bincount(s, minlength=2) / s.size

        def objective(x):
            v = np.array([0.0, x])
            return float(freq @ v) + psi.psi(v)

        grid_best = min(objective(x) for x in np.arange(-4.0, 4.0, 1e-3))
        assert result.objective <= grid_best + 1e-6

    def test_corrected_fit_recovers_distribution(self):
        space = Space(["-1", "+1"])
        p = make_dist(space, [0.35, 0.65])
        t = build_kernel(binary_label_noise(0.2, 0.2))
        clean = sample(p, 10**5, 41)
        noisy = corrupt(t, clean, 43)
        result = fit_proper(True, t, noisy, log_loss(), steps=400, rate=1.0)
        np.testing.assert_allclose(softmax_neg(result.link), p.weights, atol=0.03)

    def test_objective_never_increases(self):
        space = Space(["a", "b", "c"])
        p = make_dist(space, [0.2, 0.3, 0.5])
        s = sample(p, 5000, 51)
        psi = log_loss()
        previous = None
        for steps in (1, 2, 5, 10, 50, 200):
            value = fit_proper(False, identity(space), s, psi, steps=steps, rate=2.0).objective
            if previous is not None:
                assert value <= previous + 1e-12
            previous = value

    def test_corrected_objective_midpoint_convexity(self):
        rng = np.random.default_rng(61)
        for t in (build_kernel(binary_label_noise(0.2, 0.1)),
                  build_kernel(partial_labels(0.3))):
            rec = pseudoinverse(t)
            w = rng.dirichlet(np.ones(len(t.codomain)))
            linear = rec.matrix @ w
            psi = log_loss()

            def g(v):
                return float(linear @ v) + psi.psi(v)

            dim = len(t.domain)
            for _ in range(1000):
                v1 = rng.normal(0, 3, dim)
                v2 = rng.normal(0, 3, dim)
                assert g(0.5 * (v1 + v2)) <= 0.5 * (g(v1) + g(v2)) + 1e-9

    def test_empty_sample(self):
        with pytest.raises(errors.EmptySample):
            fit_proper(False, identity(Space(["a", "b"])), [], log_loss())

    def test_diverged_start_raises(self):
        bad = CanonicalProperLoss(
            name="bad",
            psi=lambda v: float("nan"),
            grad=lambda v: np.zeros_like(v),
        )
        with pytest.raises(errors.DivergedObjective):
            fit_proper(False, identity(Space(["a", "b"])), [0, 1], bad)

    def test_overflowing_step_backs_off(self):
        # huge initial rate overflows exp(); the halving rescues the descent
        space = Space(["a", "b"])
        s = sample(make_dist(space, [0.4, 0.6]), 2000, 91)
        result = fit_proper(False, identity(space), s, log_loss(), steps=200, rate=1e6)
        assert math.isfinite(result.objective)
        np.testing.assert_allclose(softmax_neg(result.link),
                                   np.bincount(s, minlength=2) / s.size, atol=0.05)


class TestGradientCheck:
    def test_linear_psi_exact(self):
        direction = np.array([0.7, -1.3])
        psi = CanonicalProperLoss(
            name="linear",
            psi=lambda v: float(direction @ v),
            grad=lambda v: direction,
        )
        t = binary_noise(0.2)
        err = gradient_check(psi, t, np.array([0.3, -0.8]))
        assert err <= 1e-9

    def test_log_sum_exp(self):
        rng = np.random.default_rng(67)
        t = binary_noise(0.2)
        err = gradient_check(log_loss(), t, rng.normal(0, 2, 2))
        assert err <= 1e-6

    def test_partial_labels_corrected_objective(self):
        rng = np.random.default_rng(71)
        t = build_kernel(partial_labels(0.3))
        err = gradient_check(log_loss(), t, rng.normal(0, 2, 3))
        assert err <= 1e-6


class TestConfigValidation:
    def test_sizes_must_increase(self):
        with pytest.raises(errors.InvalidParameter):
            standard_config(sample_sizes=(10, 10))

    def test_trials_positive(self):
        with pytest.raises(errors.InvalidParameter):
            standard_config(trials=0)

    def test_needs_a_sample_size(self):
        with pytest.raises(errors.InvalidParameter, match='^config "sample_sizes" must be non-empty$'):
            standard_config(sample_sizes=())

    def test_loss_space_must_match(self):
        with pytest.raises(errors.InvalidParameter):
            standard_config(loss=zero_one_loss(Space(["x", "y"])))

    def test_guards_allow_the_scaling_series(self):
        # sizes 10^4..10^6 with 50 trials: 150 cells; nothing is drawn here
        config = standard_config(sample_sizes=(10**4, 10**5, 10**6), trials=50)
        assert config.sample_sizes[-1] == 10**6
        standard_config(sample_sizes=(10, SAMPLE_SIZE_GUARD), trials=CELL_GUARD // 2)

    @pytest.mark.parametrize("sizes, trials", [((SAMPLE_SIZE_GUARD + 1,), 1),
                                               ((10, SAMPLE_SIZE_GUARD), CELL_GUARD // 2 + 1)],
                             ids=["size", "cells"])
    def test_size_guards(self, sizes, trials):
        with pytest.raises(errors.SizeGuardExceeded):
            standard_config(sample_sizes=sizes, trials=trials)

    def test_explicit_kernel_accepted(self):
        config = standard_config(corruption=binary_noise(0.1))
        assert isinstance(config.kernel(), Kernel)
