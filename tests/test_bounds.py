"""Lower bounds, PAC-Bayes terms, Bernstein and compatibility constants."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from corruptlab import bounds, errors
from corruptlab.bounds import (
    DecisionProblem,
    MixedCorruption,
    MixedSource,
    bernstein_constant,
    eta_compatibility,
    fastrate_gamma,
    lecam_bound,
    lecam_corrupted,
    lecam_mixed,
    lecam_replicated,
    pacbayes_mixed,
    pacbayes_upper,
    regret,
    separation,
)
from corruptlab.divergence import alpha
from corruptlab.kernels import Dist, Kernel, Space, identity, pushforward
from corruptlab.reconstruct import LossTable, corrected_loss, is_reconstructible, pseudoinverse, zero_one_loss

from helpers import asym_noise, binary_noise, constant_kernel, random_kernel, separable_instance_problem


def coin_problem():
    """Estimate a coin's heads probability from one toss, absolute loss."""
    thetas = ("0.4", "0.6")
    actions = tuple(f"{a / 10:.1f}" for a in range(11))
    loss = [[abs(t - a / 10) for a in range(11)] for t in (0.4, 0.6)]
    experiment = Kernel(Space(thetas), Space(["tails", "heads"]),
                        [[0.6, 0.4], [0.4, 0.6]])
    return DecisionProblem(thetas, actions, loss, experiment)


def random_problem(rng, n_thetas=3, n_actions=4, n_outcomes=3):
    thetas = tuple(f"t{i}" for i in range(n_thetas))
    return DecisionProblem(
        thetas,
        tuple(f"a{i}" for i in range(n_actions)),
        rng.uniform(0, 1, size=(n_thetas, n_actions)),
        Kernel(Space(thetas), Space([f"o{i}" for i in range(n_outcomes)]),
               rng.dirichlet(np.ones(n_outcomes), size=n_thetas).T),
    )


class TestRegretSeparation:
    def test_argmin_has_zero_regret(self):
        prob = coin_problem()
        assert regret(prob, "0.4", "0.4") == 0.0

    def test_constant_row(self):
        prob = DecisionProblem(("t",), ("a", "b"), [[0.5, 0.5]],
                               identity(Space(["t"])))
        assert regret(prob, 0, 0) == regret(prob, 0, 1) == 0.0

    def test_subtracts_row_minimum(self):
        prob = DecisionProblem(("t",), ("a", "b", "c"), [[0.2, 0.5, 0.9]],
                               identity(Space(["t"])))
        assert regret(prob, 0, 2) == pytest.approx(0.7, abs=1e-15)

    def test_separation_same_theta(self):
        assert separation(coin_problem(), "0.4", "0.4") == 0.0

    def test_separation_coin(self):
        assert separation(coin_problem(), "0.4", "0.6") == pytest.approx(0.2, abs=1e-12)

    def test_separation_disjoint_optima(self):
        thetas = ("t0", "t1")
        prob = DecisionProblem(thetas, ("a0", "a1"), [[0.0, 1.0], [1.0, 0.0]],
                               identity(Space(thetas)))
        assert separation(prob, 0, 1) == 1.0
        assert separation(prob, 0, 1) == separation(prob, 1, 0)

    def test_bad_reference(self):
        with pytest.raises(errors.IndexOutOfRange):
            regret(coin_problem(), "0.5", "0.4")
        with pytest.raises(errors.IndexOutOfRange):
            regret(coin_problem(), 5, 0)


class TestLeCam:
    def test_indistinguishable_hypotheses(self):
        thetas = ("t0", "t1")
        experiment = constant_kernel(Space(thetas), [0.5, 0.5])
        prob = DecisionProblem(thetas, ("a0", "a1"), [[0.0, 1.0], [1.0, 0.0]],
                               experiment)
        assert lecam_bound(prob, 0, 1) == pytest.approx(0.25, abs=1e-15)

    def test_same_theta_gives_zero(self):
        assert lecam_bound(coin_problem(), 0, 0) == 0.0

    def test_coin_value(self):
        assert lecam_bound(coin_problem(), 0, 1) == pytest.approx(0.04, abs=1e-12)

    def test_replicated_reduces_at_one(self):
        prob = coin_problem()
        assert lecam_replicated(prob, 0, 1, 1) == lecam_bound(prob, 0, 1)

    def test_clamped_at_zero(self):
        prob = coin_problem()
        assert lecam_replicated(prob, 0, 1, 1000) == 0.0
        assert lecam_replicated(prob, 0, 1, 1000, clamped=False) < 0.0

    def test_replicated_coin_value(self):
        assert lecam_replicated(coin_problem(), 0, 1, 2) == pytest.approx(0.03, abs=1e-12)

    def test_replicated_monotone_in_n(self):
        prob = coin_problem()
        values = [lecam_replicated(prob, 0, 1, n) for n in range(1, 20)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_corrupted_identity_kernel(self):
        prob = coin_problem()
        t = identity(prob.experiment.codomain)
        for n in (1, 3, 7):
            assert lecam_corrupted(prob, t, 0, 1, n) == lecam_replicated(prob, 0, 1, n)

    def test_corrupted_constant_kernel_never_decays(self):
        prob = coin_problem()
        t = constant_kernel(prob.experiment.codomain, [0.5, 0.5])
        rho = separation(prob, 0, 1)
        assert lecam_corrupted(prob, t, 0, 1, 10**6) == pytest.approx(rho / 4, abs=1e-12)

    def test_corrupted_coin_value(self):
        prob = coin_problem()
        noise = Kernel(prob.experiment.codomain, prob.experiment.codomain,
                       binary_noise(0.25).matrix)
        assert lecam_corrupted(prob, noise, 0, 1, 5) == pytest.approx(0.025, abs=1e-12)

    def test_corrupted_equals_replicated_at_effective_count(self):
        rng = np.random.default_rng(211)
        for _ in range(100):
            prob = random_problem(rng)
            t = Kernel(prob.experiment.codomain, Space(["y0", "y1", "y2"]),
                       rng.dirichlet(np.ones(3), size=3).T)
            n = float(rng.integers(1, 50))
            lhs = lecam_corrupted(prob, t, 0, 1, n)
            rhs = lecam_replicated(prob, 0, 1, alpha(t) * n)
            assert abs(lhs - rhs) <= 1e-12

    def test_corruption_never_tightens_the_bound(self):
        rng = np.random.default_rng(223)
        for _ in range(100):
            prob = random_problem(rng)
            t = Kernel(prob.experiment.codomain, Space(["y0", "y1"]),
                       rng.dirichlet(np.ones(2), size=3).T)
            for n in (1, 5, 20):
                assert lecam_corrupted(prob, t, 0, 1, n) >= lecam_replicated(prob, 0, 1, n) - 1e-15

    def test_mixed_single_source_matches_corrupted(self):
        prob = coin_problem()
        noise = Kernel(prob.experiment.codomain, prob.experiment.codomain,
                       binary_noise(0.25).matrix)
        mix = MixedCorruption([MixedSource(count=5, kernel=noise)])
        assert lecam_mixed(prob, mix, 0, 1) == lecam_corrupted(prob, noise, 0, 1, 5)

    def test_mixed_identity_sources_match_replicated(self):
        prob = coin_problem()
        mix = MixedCorruption([
            MixedSource(count=3, kernel=identity(prob.experiment.codomain)),
            MixedSource(count=4, kernel=identity(prob.experiment.codomain)),
        ])
        assert lecam_mixed(prob, mix, 0, 1) == lecam_replicated(prob, 0, 1, 7)

    def test_mixed_effective_count(self):
        mix = MixedCorruption([MixedSource(count=10, alpha=0.7),
                               MixedSource(count=6, alpha=0.5)])
        assert mix.effective_count() == pytest.approx(10.0, abs=1e-12)


class TestPacBayes:
    def test_zero_kl(self):
        assert pacbayes_upper(1.5, 100, 0.0) == 0.0

    def test_hand_value(self):
        expected = 1.5 * math.sqrt(2 * math.log(10) / 100)
        assert pacbayes_upper(1.5, 100, math.log(10)) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.3218949, abs=1e-6)

    def test_linear_in_sup_norm(self):
        one = pacbayes_upper(1.0, 50, 0.3)
        assert pacbayes_upper(2.0, 50, 0.3) == pytest.approx(2 * one, rel=1e-15)

    def test_high_probability_addend(self):
        base = pacbayes_upper(1.0, 50, 0.3)
        with_delta = pacbayes_upper(1.0, 50, 0.3, delta=0.05)
        assert with_delta == pytest.approx(math.sqrt(2 * (0.3 + math.log(20)) / 50), rel=1e-12)
        assert with_delta > base

    def test_mixed_single_source_reduces(self):
        mix = MixedCorruption([MixedSource(count=100, alpha=1.0, corrected_sup=1.5)])
        assert pacbayes_mixed(mix, math.log(10)) == pacbayes_upper(1.5, 100, math.log(10))

    def test_mixed_all_counts_on_one_source(self):
        mix = MixedCorruption([MixedSource(count=100, alpha=1.0, corrected_sup=1.5),
                               MixedSource(count=0, alpha=0.2, corrected_sup=9.0)])
        assert pacbayes_mixed(mix, 0.7) == pacbayes_upper(1.5, 100, 0.7)

    def test_mixed_high_probability_form(self):
        mix = MixedCorruption([MixedSource(count=50, alpha=1.0, corrected_sup=1.0),
                               MixedSource(count=30, alpha=0.5, corrected_sup=2.0)])
        expected = pacbayes_upper(mix.mixing_constant(), mix.total, 0.4, delta=0.05)
        assert pacbayes_mixed(mix, 0.4, delta=0.05) == expected
        assert expected > pacbayes_mixed(mix, 0.4)

    def test_mixed_constant(self):
        mix = MixedCorruption([MixedSource(count=50, alpha=1.0, corrected_sup=1.0),
                               MixedSource(count=50, alpha=0.5, corrected_sup=2.0)])
        assert mix.mixing_constant() == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_mixed_constant_squares_past_a_double(self):
        one = MixedCorruption([MixedSource(count=1, alpha=0.5, corrected_sup=1e200)])
        assert one.mixing_constant() == 1e200
        two = MixedCorruption([MixedSource(count=1, alpha=0.5, corrected_sup=1e200)] * 2)
        assert two.mixing_constant() == pytest.approx(1e200, rel=1e-15)

    def test_subnormal_delta(self):
        # log(1 / 5e-324) overflows in 1 / delta; 5e-324 is 2**-1074
        assert pacbayes_upper(1.0, 1, 0.0, delta=5e-324) == pytest.approx(math.sqrt(2 * 1074 * math.log(2)),
                                                                          rel=1e-15)

    def test_mixed_equal_sups_collapse(self):
        mix = MixedCorruption([MixedSource(count=30, alpha=0.9, corrected_sup=0.7),
                               MixedSource(count=70, alpha=0.2, corrected_sup=0.7)])
        assert mix.mixing_constant() == pytest.approx(0.7, abs=1e-12)

    def test_missing_stat(self):
        mix = MixedCorruption([MixedSource(count=10, alpha=0.5)])
        with pytest.raises(errors.MissingStatistic):
            pacbayes_mixed(mix, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(errors.InvalidParameter):
            pacbayes_upper(1.0, 0, 1.0)
        with pytest.raises(errors.InvalidParameter):
            pacbayes_upper(1.0, 10, -0.1)


def brute_force_bernstein(p, loss):
    """Exhaustive-loop oracle for the Bernstein ratio maximization."""
    risks = [sum(p.weights[z] * loss.values[z, a] for z in range(len(p.space)))
             for a in range(len(loss.actions))]
    best = risks.index(min(risks))
    if len(loss.actions) == 1:
        return 0.0
    worst = 0.0
    for a in range(len(loss.actions)):
        first = sum(p.weights[z] * (loss.values[z, a] - loss.values[z, best])
                    for z in range(len(p.space)))
        second = sum(p.weights[z] * (loss.values[z, a] - loss.values[z, best]) ** 2
                     for z in range(len(p.space)))
        if first > 1e-12:
            worst = max(worst, second / first)
        elif second > 1e-12:
            return math.inf
    return worst


def bernstein_loop(p, loss):
    """The action-by-action loop that ``bernstein_constant`` replaced."""
    if len(loss.actions) == 1:
        return 0.0
    risks = p.weights @ loss.values
    best = int(np.argmin(risks))
    diffs = loss.values - loss.values[:, best:best + 1]
    excess = p.weights @ diffs
    second = p.weights @ diffs**2
    k = 0.0
    for a in range(len(loss.actions)):
        if excess[a] > 1e-12:
            k = max(k, float(second[a] / excess[a]))
        elif second[a] > 1e-12:
            return math.inf
    return k


def eta_loop(loss, t, r):
    """The entry-by-entry loop over (z, a1, a2) that ``eta_compatibility``
    replaced; it squares a Python float with ``**``."""
    corrected = r.matrix.T @ loss.values
    n_actions = len(loss.actions)
    eta = 0.0
    for z in range(len(t.domain)):
        support = t.matrix[:, z] > 0.0
        for a1 in range(n_actions):
            for a2 in range(a1 + 1, n_actions):
                clean_sq = float(loss.values[z, a1] - loss.values[z, a2]) ** 2
                corr_sq = float(np.max((corrected[support, a1] - corrected[support, a2]) ** 2))
                if clean_sq > 1e-12:
                    eta = max(eta, corr_sq / clean_sq)
                elif corr_sq > 1e-12:
                    return math.inf
    return eta


def eta_pair_loop(loss, r):
    """The loop over action pairs that ``eta_compatibility`` replaced by
    passes over all pairs; it computes each pair with the same numpy
    operations, so its value must be equal bit for bit."""
    t = r.kernel
    corrected = r.matrix.T @ loss.values
    support = t.matrix > 0.0
    eta = 0.0
    for a1, a2 in itertools.combinations(range(len(loss.actions)), 2):
        clean_sq = (loss.values[:, a1] - loss.values[:, a2]) ** 2
        corr_sq = np.where(support, ((corrected[:, a1] - corrected[:, a2]) ** 2)[:, None], 0.0).max(axis=0)
        counted = clean_sq > 1e-12
        if np.any(~counted & (corr_sq > 1e-12)):
            return math.inf
        eta = max(eta, float(np.max(corr_sq[counted] / clean_sq[counted], initial=0.0)))
    return eta


def sparse_columns(rng, rows, cols):
    """Dirichlet columns with about a third of the entries zeroed, each
    column keeping at least one positive entry, renormalised."""
    matrix = rng.dirichlet(np.ones(rows), size=cols).T
    matrix[rng.random((rows, cols)) < 0.35] = 0.0
    matrix[rng.integers(rows, size=cols), np.arange(cols)] += 0.5
    return matrix / matrix.sum(axis=0)


def oracle_loss(rng, space, kind):
    """A loss on ``space``: uniform values, small integers (whose ties make
    the constants infinite) or a single action."""
    actions = 1 if kind == "single-action" else int(rng.integers(2, 6))
    shape = (len(space), actions)
    values = rng.integers(0, 3, size=shape) if kind == "integer" else rng.uniform(0, 1, size=shape)
    return LossTable(space, [f"a{i}" for i in range(actions)], values)


ORACLE_KINDS = ("uniform", "integer", "single-action")


def eta_instances(kind):
    """1000 seeded draws of a sparse kernel of 1 to 4 columns and up to 6
    rows with a loss of ``kind``, as (kernel, reconstruction, loss); the
    draws that are not reconstructible are skipped."""
    rng = np.random.default_rng([337, ORACLE_KINDS.index(kind)])
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(m, 7))
        t = Kernel(Space([f"x{i}" for i in range(m)]), Space([f"y{i}" for i in range(k)]),
                   sparse_columns(rng, k, m))
        if is_reconstructible(t):
            yield t, pseudoinverse(t), oracle_loss(rng, t.domain, kind)


class TestBernstein:
    def test_single_action_vacuous(self):
        space = Space(["a", "b"])
        loss = LossTable(space, ["only"], [[0.3], [0.9]])
        p = Dist(space, [0.5, 0.5])
        assert bernstein_constant(p, loss) == 0.0

    def test_separable_zero_one_gives_one(self):
        space = Space(["-1", "+1"])
        p = Dist(space, [0.0, 1.0])
        assert bernstein_constant(p, zero_one_loss(space)) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(307)
        for _ in range(200):
            space = Space(["a", "b", "c"])
            loss = LossTable(space, ["a0", "a1", "a2", "a3"],
                             rng.uniform(0, 1, size=(3, 4)))
            p = Dist(space, rng.dirichlet(np.ones(3)))
            fast = bernstein_constant(p, loss)
            slow = brute_force_bernstein(p, loss)
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_equals_loop_oracle(self, kind):
        rng = np.random.default_rng([331, ORACLE_KINDS.index(kind)])
        verdicts = set()
        for _ in range(1000):
            space = Space([f"z{i}" for i in range(int(rng.integers(1, 7)))])
            if kind == "uniform":
                weights = sparse_columns(rng, len(space), 1)[:, 0]
            else:  # equal weights on a support let an action tie the best in expectation
                weights = rng.random(len(space)) < 0.7
                weights[rng.integers(len(space))] = True
            p = Dist(space, weights / weights.sum())
            loss = oracle_loss(rng, space, kind)
            want = bernstein_loop(p, loss)
            assert bernstein_constant(p, loss) == want
            verdicts.add(math.isinf(want))
        assert verdicts == ({False, True} if kind == "integer" else {False})

    def test_noisy_condition_transfers_down(self):
        # corrupted Bernstein constant dominates the clean one
        rng = np.random.default_rng(311)
        for _ in range(200):
            t = random_kernel(rng, 3, 4)
            r = pseudoinverse(t)
            space = t.domain
            loss = LossTable(space, ["a0", "a1", "a2"], rng.uniform(0, 1, size=(3, 3)))
            p = Dist(space, rng.dirichlet(np.ones(3)))
            clean = bernstein_constant(p, loss)
            corrupted = bernstein_constant(pushforward(t, p), corrected_loss(r, loss))
            if math.isinf(corrupted):
                continue
            assert clean <= corrupted + 1e-9


def brute_force_eta(loss, t, corrected):
    """Exhaustive search over (z, a1, a2) and the corrupted support."""
    worst = 0.0
    for z in range(len(t.domain)):
        for a1 in range(len(loss.actions)):
            for a2 in range(len(loss.actions)):
                clean = (loss.values[z, a1] - loss.values[z, a2]) ** 2
                corr = max(
                    (corrected.values[zz, a1] - corrected.values[zz, a2]) ** 2
                    for zz in range(len(t.codomain)) if t.matrix[zz, z] > 0
                )
                if clean > 1e-12:
                    worst = max(worst, corr / clean)
                elif corr > 1e-12:
                    return math.inf
    return worst


class TestEtaCompatibility:
    def test_identity_kernel(self):
        space = Space(["-1", "+1"])
        t = identity(space)
        assert eta_compatibility(zero_one_loss(space), pseudoinverse(t)) == 1.0

    def test_binary_noise_closed_form(self):
        s_neg, s_pos = 0.1, 0.2
        t = asym_noise(s_neg, s_pos)
        got = eta_compatibility(zero_one_loss(t.domain), pseudoinverse(t))
        denom = 1 - s_neg - s_pos
        expected = max(((1 + s_neg - s_pos) / denom) ** 2,
                       ((1 + s_pos - s_neg) / denom) ** 2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric_grid_against_brute_force(self):
        for sigma in (0.05, 0.1, 0.2, 0.3, 0.4):
            t = binary_noise(sigma)
            r = pseudoinverse(t)
            loss = zero_one_loss(t.domain)
            got = eta_compatibility(loss, r)
            assert got == pytest.approx((1 / (1 - 2 * sigma)) ** 2, abs=1e-9)
            assert got == pytest.approx(brute_force_eta(loss, t, corrected_loss(r, loss)),
                                        abs=1e-12)

    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(313)
        for _ in range(100):
            t = random_kernel(rng, 2, 3)
            r = pseudoinverse(t)
            loss = LossTable(t.domain, ["a0", "a1"], rng.uniform(0, 1, size=(2, 2)))
            got = eta_compatibility(loss, r)
            want = brute_force_eta(loss, t, corrected_loss(r, loss))
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_matches_loop_oracle(self, kind):
        # The oracle squares with libm pow and numpy multiplies, so a finite
        # value may differ in its last bit.
        verdicts = set()
        for t, r, loss in eta_instances(kind):
            got, want = eta_compatibility(loss, r), eta_loop(loss, t, r)
            assert math.isinf(got) == math.isinf(want), (t.matrix, loss.values)
            assert math.isinf(want) or math.isclose(got, want, rel_tol=1e-15), (got, want)
            verdicts.add(math.isinf(want))
        assert verdicts == ({False, True} if kind == "integer" else {False})

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_equals_pair_loop_oracle(self, kind, monkeypatch):
        # in one pass, one pair per pass and passes of two pairs, so a pass
        # can end inside the pairs and an infinite pair can come after a finite one
        verdicts = set()
        for t, r, loss in eta_instances(kind):
            want = eta_pair_loop(loss, r)
            for entries in (bounds.ETA_CHUNK_ENTRIES, 1, 2 * t.matrix.size):
                monkeypatch.setattr(bounds, "ETA_CHUNK_ENTRIES", entries)
                assert eta_compatibility(loss, r) == want, (entries, t.matrix, loss.values)
            verdicts.add(math.isinf(want))
        assert verdicts == ({False, True} if kind == "integer" else {False})

    def test_criterion_12_instance_equals_pair_loop_oracle(self):
        _, loss, corruption = separable_instance_problem()
        r = pseudoinverse(corruption)
        want = eta_pair_loop(loss, r)
        assert eta_compatibility(loss, r) == want and math.isfinite(want)

    def test_passes_bound_memory(self):
        # 200 actions on a 16 x 16 kernel are 19,900 pairs, about 40 MB of
        # float64 entries in one pass
        rng = np.random.default_rng(347)
        t = random_kernel(rng, 16, 16)
        loss = LossTable(t.domain, [f"a{i}" for i in range(200)], rng.uniform(0, 1, size=(16, 200)))
        r = pseudoinverse(t)
        tracemalloc.start()
        try:
            got = eta_compatibility(loss, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert got == eta_pair_loop(loss, r)


class TestFastRateGamma:
    def test_hand_value(self):
        assert fastrate_gamma(1.0, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_small_beta_taylor(self):
        # gamma * beta ~ beta^2 / 2 as beta -> 0
        got = fastrate_gamma(1e-4, 1.0)
        assert got == pytest.approx(5e-5, rel=0.01)

    @pytest.mark.parametrize("beta", [1e-300, 1e-16, 1e-12, 1e-8, 1e-4, 0.1, 0.4999])
    def test_small_beta_within_ulps_of_the_exact_series(self, beta):
        # (e^beta - 1 - beta) / beta = sum_k beta^k / (k + 1)!, whose later terms are past any ulp here
        exact = sum(Fraction(beta) ** k / math.factorial(k + 1) for k in range(1, 40))
        got = fastrate_gamma(beta, 1.0)
        assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(got))

    @pytest.mark.parametrize("beta", [0.5, 0.7, 1.0, 3.0, 700.0])
    def test_from_a_half_on_the_closed_form_is_kept(self, beta):
        assert fastrate_gamma(beta, 1.5) == (math.expm1(beta) - beta) / beta / 1.5

    def test_monotone_in_beta(self):
        values = [fastrate_gamma(b, 1.0) for b in np.linspace(0.01, 3.0, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_doubling_sup_halves(self):
        assert fastrate_gamma(0.7, 2.0) == pytest.approx(fastrate_gamma(0.7, 1.0) / 2, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(errors.InvalidParameter):
            fastrate_gamma(0.0, 1.0)
        with pytest.raises(errors.InvalidParameter):
            fastrate_gamma(1.0, 0.0)
