"""Divergences, contraction coefficients and the strong data processing bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corruptlab import divergence, errors
from corruptlab.divergence import (
    KL,
    VARIATIONAL,
    FGenerator,
    alpha,
    f_divergence,
    lambda_coeff,
    sdpi_check,
    variational,
)
from corruptlab.kernels import Dist, Kernel, Space, compose, identity, make_dist, point_mass, replicate

from helpers import asym_noise, binary_noise, constant_kernel, random_dist, random_kernel


class TestVariational:
    def test_zero_on_equal(self):
        p = make_dist(Space(["a", "b"]), [0.4, 0.6])
        assert variational(p, p) == 0.0

    def test_one_on_disjoint(self):
        space = Space(["a", "b"])
        assert variational(point_mass(space, "a"), point_mass(space, "b")) == 1.0

    def test_hand_value(self):
        space = Space(["a", "b"])
        p = make_dist(space, [0.5, 0.5])
        q = make_dist(space, [0.75, 0.25])
        assert variational(p, q) == pytest.approx(0.25, abs=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(errors.SpaceMismatch):
            variational(make_dist(Space(["a", "b"]), [1, 0]),
                        make_dist(Space(["x", "y"]), [1, 0]))


class TestFDivergence:
    def test_zero_at_equal_for_any_generator(self):
        p = make_dist(Space(["a", "b", "c"]), [0.2, 0.3, 0.5])
        for gen in (VARIATIONAL, KL):
            assert f_divergence(p, p, gen) == 0.0

    def test_variational_generator_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        space = Space(["a", "b", "c", "d"])
        for _ in range(100):
            p, q = random_dist(rng, space), random_dist(rng, space)
            assert abs(f_divergence(p, q, VARIATIONAL) - variational(p, q)) <= 1e-12

    def test_kl_hand_value(self):
        # D_f(delta_a, uniform): single term 1 * -log(0.5 / 1) = log 2
        space = Space(["a", "b"])
        val = f_divergence(point_mass(space, "a"), make_dist(space, [0.5, 0.5]), KL)
        assert val == pytest.approx(math.log(2.0), abs=1e-15)

    def test_kl_infinite_on_support_violation(self):
        space = Space(["a", "b"])
        p = make_dist(space, [0.5, 0.5])
        q = point_mass(space, "a")
        assert f_divergence(p, q, KL) == math.inf

    def test_slope_at_infinity_convention(self):
        # p=0 < q terms use q * slope_at_infinity; for KL that slope is 0
        space = Space(["a", "b"])
        assert f_divergence(point_mass(space, "a"), make_dist(space, [0.5, 0.5]), KL) < math.inf

    def test_generator_requires_root_at_one(self):
        with pytest.raises(errors.InvalidParameter):
            FGenerator("bad", lambda t: t, limit_at_zero=0.0, slope_at_infinity=1.0)

    def test_builtin_generators_midpoint_convex(self):
        grid = np.linspace(0.05, 5.0, 60)
        assert VARIATIONAL.is_midpoint_convex(grid)
        assert KL.is_midpoint_convex(grid)


class TestLambdaAlpha:
    def test_identity_kernel(self):
        t = identity(Space(["a", "b", "c"]))
        assert lambda_coeff(t) == 0.0
        assert alpha(t) == 1.0

    def test_constant_kernel(self):
        t = constant_kernel(Space(["a", "b", "c"]), [0.2, 0.8])
        assert lambda_coeff(t) == 1.0
        assert alpha(t) == 0.0

    def test_binary_noise_overlap(self):
        # min(0.9, 0.2) + min(0.1, 0.8) = 0.3
        t = asym_noise(0.1, 0.2)
        assert lambda_coeff(t) == pytest.approx(0.3, abs=1e-15)
        assert alpha(t) == pytest.approx(0.7, abs=1e-15)

    def test_three_class_symmetric(self):
        s = 0.2
        space = Space(["1", "2", "3"])
        matrix = np.full((3, 3), s / 2)
        np.fill_diagonal(matrix, 1 - s)
        assert alpha(Kernel(space, space, matrix)) == pytest.approx(0.7, abs=1e-12)

    def test_two_formulas_agree_on_random_kernels(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            t = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            pairwise = max(
                variational(t.column(i), t.column(j))
                for i in range(len(t.domain)) for j in range(i + 1, len(t.domain))
            )
            assert abs((1.0 - lambda_coeff(t)) - pairwise) <= 1e-12
            assert abs(alpha(t) - pairwise) <= 1e-12

    def test_alpha_zero_iff_columns_equal(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = random_kernel(rng, 3, 4)
            spread = max(
                float(np.abs(t.matrix[:, i] - t.matrix[:, j]).max())
                for i in range(3) for j in range(i + 1, 3)
            )
            assert 0.0 <= alpha(t) <= 1.0
            assert (alpha(t) <= 1e-9) == (spread <= 1e-9)

    def test_composition_submultiplicative(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            t1 = random_kernel(rng, 3, 4)
            t2 = Kernel(t1.codomain, Space(["z0", "z1", "z2"]),
                        rng.dirichlet(np.ones(3), size=4).T)
            assert alpha(compose(t2, t1)) <= alpha(t2) * alpha(t1) + 1e-9

    def test_two_by_two_composition_is_exact(self):
        # for a 2x2 stochastic matrix alpha equals |det|, hence multiplies
        rng = np.random.default_rng(31)
        space = Space(["a", "b"])
        for _ in range(300):
            m1 = rng.dirichlet(np.ones(2), size=2).T
            m2 = rng.dirichlet(np.ones(2), size=2).T
            t1, t2 = Kernel(space, space, m1), Kernel(space, space, m2)
            assert abs(alpha(t1) - abs(np.linalg.det(m1))) <= 1e-12
            assert abs(alpha(compose(t2, t1)) - alpha(t2) * alpha(t1)) <= 1e-9

    def test_operator_norm_on_zero_sum_vectors(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            t = random_kernel(rng, 4, 5)
            v = rng.normal(size=4)
            v -= v.mean()
            assert 0.5 * np.abs(t.matrix @ v).sum() <= alpha(t) * 0.5 * np.abs(v).sum() + 1e-9
        # attainment at the difference of point masses for the worst pair
        t = random_kernel(np.random.default_rng(38), 4, 5)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        i, j = max(pairs, key=lambda ij: variational(t.column(ij[0]), t.column(ij[1])))
        v = np.zeros(4)
        v[i], v[j] = 1.0, -1.0
        assert 0.5 * np.abs(t.matrix @ v).sum() == alpha(t)

    def test_product_bound_on_materialized_products(self):
        from corruptlab.kernels import parallel_product
        rng = np.random.default_rng(41)
        space = Space(["a", "b", "c"])
        for _ in range(50):
            ps = [random_dist(rng, space) for _ in range(2)]
            qs = [random_dist(rng, space) for _ in range(2)]
            prod_space = parallel_product([identity(space)] * 2).domain
            big_p = Dist(prod_space, np.kron(ps[0].weights, ps[1].weights))
            big_q = Dist(prod_space, np.kron(qs[0].weights, qs[1].weights))
            bound = sum(variational(p, q) for p, q in zip(ps, qs))
            assert variational(big_p, big_q) <= bound + 1e-12


def lambda_loop(t):
    """lambda_coeff as it was: a Python loop over the column pairs."""
    m = t.matrix
    cols = m.shape[1]
    if cols == 1:
        return 1.0
    best = math.inf
    for i in range(cols):
        for j in range(i + 1, cols):
            best = min(best, float(np.minimum(m[:, i], m[:, j]).sum()))
    return best


def alpha_loop(t):
    """alpha as it was: the largest column total variation, pair by pair."""
    m = t.matrix
    cols = m.shape[1]
    if cols == 1:
        return 0.0
    worst = 0.0
    for i in range(cols):
        for j in range(i + 1, cols):
            worst = max(worst, 0.5 * float(np.abs(m[:, i] - m[:, j]).sum()))
    return worst


@st.composite
def dirichlet_kernels(draw):
    """A random kernel of up to 12 columns and 40 rows, some columns repeated."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = random_kernel(rng, draw(st.integers(1, 12)), draw(st.integers(1, 40)))
    picks = draw(st.lists(st.integers(0, len(t.domain) - 1), min_size=1, max_size=12))
    if draw(st.booleans()):  # columns drawn with replacement, so duplicates occur
        return Kernel(Space([f"x{i}" for i in range(len(picks))]), t.codomain, t.matrix[:, picks])
    return t


class TestOnePassMatchesPairLoops:
    """alpha and lambda_coeff come from one vectorised pass; they must equal,
    bit for bit, what the two loops over the column pairs gave."""

    def check(self, t):
        assert alpha(t) == alpha_loop(t) and lambda_coeff(t) == lambda_loop(t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dirichlet_kernels())
    def test_random_dirichlet_kernels(self, t):
        self.check(t)

    def test_one_column_and_one_row(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 7):
            self.check(random_kernel(rng, 1, k))
        for m in (1, 2, 9):
            self.check(random_kernel(rng, m, 1))
        t = random_kernel(rng, 1, 3)
        assert alpha(t) == 0.0 and lambda_coeff(t) == 1.0

    def test_duplicate_columns(self):
        rng = np.random.default_rng(7)
        col = rng.dirichlet(np.ones(6))
        same = Kernel(Space(["a", "b", "c"]), Space([f"y{i}" for i in range(6)]),
                      np.tile(col[:, None], (1, 3)))
        self.check(same)
        assert alpha(same) == 0.0

    def test_256_column_product(self):
        for t in (replicate(binary_noise(0.2), 8), replicate(asym_noise(0.1, 0.3), 8)):
            assert t.matrix.shape == (256, 256)
            self.check(t)

    def test_cross_check_still_raises(self, monkeypatch):
        monkeypatch.setattr(divergence, "ALPHA_CONSISTENCY_ATOL", -1.0)
        t = binary_noise(0.2)
        with pytest.raises(errors.InternalInconsistency):
            alpha(t)
        with pytest.raises(errors.InternalInconsistency):
            lambda_coeff(t)


class TestStrongDataProcessing:
    def test_equal_inputs(self):
        t = binary_noise(0.2)
        p = make_dist(t.domain, [0.4, 0.6])
        report = sdpi_check(t, p, p, VARIATIONAL)
        assert report.lhs == report.rhs == 0.0 and report.holds

    def test_constant_kernel_contracts_everything(self):
        t = constant_kernel(Space(["a", "b"]), [0.3, 0.7])
        p = make_dist(t.domain, [1.0, 0.0])
        q = make_dist(t.domain, [0.0, 1.0])
        report = sdpi_check(t, p, q, VARIATIONAL)
        assert report.lhs == 0.0 and report.holds

    def test_random_suite_both_generators(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            t = random_kernel(rng, 3, 3)
            p, q = random_dist(rng, t.domain), random_dist(rng, t.domain)
            assert sdpi_check(t, p, q, VARIATIONAL).holds
            assert sdpi_check(t, p, q, KL).holds

    def test_infinite_budget_always_holds(self):
        t = binary_noise(0.2)
        p = make_dist(t.domain, [0.5, 0.5])
        q = point_mass(t.domain, "-1")
        report = sdpi_check(t, p, q, KL)
        assert math.isinf(report.rhs) and report.holds
