"""Divergences, contraction coefficients and the strong data processing bound."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corruptlab import catalog, divergence, errors
from corruptlab.cli import main
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
from corruptlab.kernels import (
    STOCHASTIC_ATOL, Dist, Kernel, Space, compose, identity, kernel_to_json, make_dist, point_mass,
    replicate,
)

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
        assert not FGenerator("concave", lambda t: math.sqrt(t) - 1.0, -1.0, 0.0).is_midpoint_convex(grid)


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


def with_columns(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return Kernel(Space([f"x{i}" for i in range(matrix.shape[1])]),
                  Space([f"y{i}" for i in range(matrix.shape[0])]), matrix)


def symmetric_noise(classes):
    return catalog.build_kernel(catalog.make_spec("symmetric_label_noise", sigma=0.2, classes=classes))


def slab_columns(slabs, m):
    """The columns of each slab of one pass over m columns, from the pairs
    each slab screened: b columns against the m - 1 - i columns after the
    first."""
    columns = []
    for pairs in slabs:
        columns.append(pairs // (m - 1 - sum(columns)))
    assert sum(columns) <= m - 1
    return columns


@pytest.fixture
def screen_slabs(monkeypatch):
    """The pairs of each screened slab, counted through the helper that sums
    its rows; no pass result is kept from before the test."""
    slabs = []
    row_sums = divergence._row_sums

    def counting(maxima):
        slabs.append(len(maxima))
        return row_sums(maxima)

    monkeypatch.setattr(divergence, "_row_sums", counting)
    divergence._pair_extremes.cache_clear()
    return slabs


class TestOnePassMatchesPairLoops:
    """alpha and lambda_coeff come from one pass; they must equal, bit for
    bit, what the two loops over the column pairs gave, both at today's slab
    size and with every slab screened in float32, so that only the rows that
    can hold an extreme reach the exact reductions."""

    def check(self, t):
        expected = (alpha_loop(t), lambda_loop(t))
        for screen_entries in (divergence._SCREEN_ENTRIES, 1):
            divergence._pair_extremes.cache_clear()  # else this setting reads the last one's result
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(divergence, "_SCREEN_ENTRIES", screen_entries)
                assert (alpha(t), lambda_coeff(t)) == expected

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

    @pytest.mark.parametrize("m, k", [(46, 130), (64, 67), (100, 116), (128, 71)])
    def test_several_columns_per_slab(self, m, k, screen_slabs):
        t = random_kernel(np.random.default_rng(m), m, k)
        self.check(t)
        columns = slab_columns(screen_slabs[:len(screen_slabs) // 2], m)  # both settings screen alike
        assert columns[0] > 1 and columns[-1] == 1 and sum(columns) == m - 1

    @pytest.mark.parametrize("classes", [64, 300])
    def test_symmetric_noise(self, classes):
        # every column ties with every other: at 300 classes the screen stops after its first slabs
        self.check(symmetric_noise(classes))

    def test_256_column_product(self):
        for t in (replicate(binary_noise(0.2), 8), replicate(asym_noise(0.1, 0.3), 8)):
            assert t.matrix.shape == (256, 256)
            self.check(t)

    def test_cross_check_still_raises(self, monkeypatch):
        monkeypatch.setattr(divergence, "ALPHA_CONSISTENCY_ATOL", -1.0)
        t = binary_noise(0.2)
        for screen_entries in (divergence._SCREEN_ENTRIES, 1):
            monkeypatch.setattr(divergence, "_SCREEN_ENTRIES", screen_entries)
            with pytest.raises(errors.InternalInconsistency):
                alpha(t)
            with pytest.raises(errors.InternalInconsistency):
                lambda_coeff(t)

    def test_eighths_give_exact_ties(self):
        rng = np.random.default_rng(11)
        for count, m_max, k_max in ((100, 25, 9), (20, 60, 40)):  # the larger also reach today's slab size
            for _ in range(count):
                m, k = rng.integers(2, m_max), rng.integers(1, k_max)
                self.check(with_columns(rng.multinomial(8, np.ones(k) / k, size=m).T / 8))

    def test_column_sums_off_one(self):
        rng = np.random.default_rng(13)
        for count, m_max, k_max, off_max in ((100, 25, 20, 0.9), (20, 60, 60, 1.0)):
            for _ in range(count):
                t = random_kernel(rng, rng.integers(2, m_max), rng.integers(1, k_max))
                off = rng.uniform(-off_max, off_max, size=len(t.domain)) * STOCHASTIC_ATOL
                self.check(with_columns(t.matrix * (1.0 + off)))

    @pytest.mark.parametrize("tiny", [1e-39, 1e-310, 5e-324],
                             ids=["float32-subnormal", "float64-subnormal", "least-double"])
    def test_tiny_entries(self, tiny):
        # 1e-39 is subnormal in float32; 1e-310 and 5e-324 round to 0 there
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, k = rng.integers(2, 20), rng.integers(2, 12)
            matrix = rng.dirichlet(np.ones(k), size=m).T
            matrix[rng.random((k, m)) < 0.5] = tiny
            matrix[0] = 0.0
            matrix[0] = 1.0 - matrix.sum(axis=0)  # leaves the tiny entries as they are
            self.check(with_columns(matrix))
        # columns that differ only in tiny entries
        self.check(with_columns([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.0, tiny, 2 * tiny]]))
        self.check(with_columns([[1.0, 1.0, 1.0, 1.0], [tiny, 0.0, tiny, 0.0], [0.0, tiny, tiny, 0.0]]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.2e-38, 1e-39, 1e-45, 1e-310, 5e-324]),
           st.sampled_from([1, 200, divergence._SLAB_ENTRIES]))
    def test_row_sum_order_changes_nothing(self, seed, tiny, slab_entries):
        # just above float32's least normal, two of its subnormals (1e-45 rounds to
        # the least) and two values that round to 0 in it: the screen's row sums,
        # through the matvec, one reduction or in reversed order, keep every pair
        # that can hold an extreme
        rng = np.random.default_rng(seed)
        m, k = rng.integers(2, 30), rng.integers(2, 30)
        matrix = rng.dirichlet(np.ones(k), size=m).T
        matrix[rng.random((k, m)) < rng.random()] = tiny
        matrix[0] = 0.0
        matrix[0] = 1.0 - matrix.sum(axis=0)  # leaves the tiny entries as they are
        t = with_columns(matrix)
        expected = {(alpha_loop(t), lambda_loop(t))}
        sums = (divergence._row_sums, lambda x: np.add.reduce(x, axis=1), lambda x: np.add.reduce(x[:, ::-1], axis=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(divergence, "_SCREEN_ENTRIES", 1)
            mp.setattr(divergence, "_SLAB_ENTRIES", slab_entries)
            for row_sums in sums:
                mp.setattr(divergence, "_row_sums", row_sums)
                divergence._pair_extremes.cache_clear()
                assert {(alpha(t), lambda_coeff(t))} == expected

    @pytest.mark.parametrize("m", [2, 3])
    def test_tall_kernel(self, m):
        rng = np.random.default_rng(m)
        t = random_kernel(rng, m, 20_000)
        assert (m - 1) * t.matrix.shape[0] >= divergence._SCREEN_ENTRIES
        self.check(t)
        near = t.matrix[:, :1] * (1.0 + 1e-7 * rng.uniform(-1, 1, size=t.matrix.shape))  # TVs below the slack
        self.check(with_columns(near / near.sum(axis=0)))

    def test_columns_equal_in_float32(self):
        # TVs that differ below float32's resolution are told apart by the exact sums
        rng = np.random.default_rng(37)
        for _ in range(40):
            base = rng.dirichlet(np.ones(rng.integers(2, 40)))
            columns = base[:, None] * (1.0 + 1e-9 * rng.uniform(-1, 1, size=(len(base), rng.integers(2, 30))))
            self.check(with_columns(columns / columns.sum(axis=0)))

    def test_permuted_columns_tie_up_to_rounding(self):
        # equal in exact arithmetic, so the rounding of each sum orders the pairs
        rng = np.random.default_rng(17)
        for _ in range(300):
            base = rng.dirichlet(np.ones(rng.integers(3, 30)))
            columns = [rng.permutation(base) for _ in range(rng.integers(3, 12))]
            self.check(with_columns(np.stack(columns, axis=1)))

    def test_near_tie_top_score_holds_neither_extreme(self):
        t = with_columns([
            [0.49999999978581977, 0.49999999979948334, 0.20000000009725769, 0.20000000003881357],
            [0.29999999987149184, 0.29999999987969, 0.5000000002431442, 0.5000000000970339],
            [0.19999999991432793, 0.19999999991979334, 0.3000000001458865, 0.30000000005822036],
        ])
        cols = t.matrix.T
        half = 0.5 * cols.sum(axis=1)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        score = {(i, j): (np.maximum(cols[i], cols[j]).sum() - half[j]) - half[i] for i, j in pairs}
        tv = {(i, j): 0.5 * np.abs(cols[i] - cols[j]).sum() for i, j in pairs}
        overlap = {(i, j): np.minimum(cols[i], cols[j]).sum() for i, j in pairs}
        top = max(pairs, key=score.get)
        assert tv[top] < max(tv.values()) and overlap[top] > min(overlap.values())
        self.check(t)


@st.composite
def dirichlet_stacks(draw):
    """1 to 6 random kernels of one shape, up to 12 columns and 40 rows,
    each with some columns repeated or not, as one (G, k, m) stack."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    matrices = []
    for _ in range(draw(st.integers(1, 6))):
        matrix = random_kernel(rng, m, k).matrix
        if draw(st.booleans()):  # columns drawn with replacement, so duplicates occur
            matrix = matrix[:, draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
        matrices.append(matrix)
    return np.stack(matrices)


class TestStackedPass:
    """Each matrix of a stack has its own slack and cut, so its extremes are,
    bit for bit, those of its own pass, whatever the other matrices hold:
    with the screen on or off and at every slab size."""

    def check(self, matrices):
        expected = [(alpha_loop(t), lambda_loop(t)) for t in map(with_columns, matrices)]
        for screen_entries in (divergence._SCREEN_ENTRIES, 1):
            for slab_entries in (1, 200, divergence._SLAB_ENTRIES):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(divergence, "_SCREEN_ENTRIES", screen_entries)
                    mp.setattr(divergence, "_SLAB_ENTRIES", slab_entries)
                    worst, best = divergence.stacked_extremes(matrices)
                    own = [divergence._pair_extremes.__wrapped__(with_columns(matrix)) for matrix in matrices]
                assert list(zip(worst.tolist(), best.tolist())) == own == expected

    def test_tie_rich_among_screenable_matrices(self):
        # symmetric noise ties on every pair, below the others' largest TVs: a cut
        # shared over the stack would drop all of its pairs
        tie_rich = symmetric_noise(64).matrix
        screenable = [random_kernel(np.random.default_rng(64), 64, 64).matrix, replicate(binary_noise(0.2), 6).matrix]
        assert all(matrix.shape == (64, 64) for matrix in (tie_rich, *screenable))
        self.check(np.stack([tie_rich, *screenable, tie_rich]))
        self.check(np.stack([*screenable, tie_rich]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dirichlet_stacks())
    def test_random_dirichlet_stacks(self, matrices):
        self.check(matrices)


@pytest.fixture
def exact_rows(monkeypatch):
    """Rows that reach the exact reductions, counted through the helper that
    computes them, over every slab of a stack; no pass result is kept from
    before the test."""
    rows = []
    exact = divergence._exact_extremes

    def counting(rest, col, *out):
        rows.append(rest[..., 0].size)
        return exact(rest, col, *out)

    monkeypatch.setattr(divergence, "_exact_extremes", counting)
    divergence._pair_extremes.cache_clear()
    return rows


class TestScreenWork:
    """The exact reductions run on the rows that survive the screen."""

    def test_512_columns_screened(self, exact_rows):
        alpha(replicate(catalog.build_kernel(catalog.binary_label_noise(0.1, 0.2)), 9))
        assert sum(exact_rows) <= 137  # of 130,816 pairs, as when each slab held one column

    def test_128_columns_take_a_handful_of_slabs(self, screen_slabs, exact_rows):
        alpha(replicate(catalog.build_kernel(catalog.binary_label_noise(0.1, 0.2)), 7))
        assert len(screen_slabs) < 8 and slab_columns(screen_slabs, 128)[0] > 1
        assert sum(exact_rows) < 0.01 * (128 * 127 // 2)

    @pytest.mark.parametrize("classes", [64, 300])
    def test_tie_rich_kernels_run_each_pair_once(self, classes, exact_rows):
        # every pair ties, so the screen keeps them all, each once
        alpha(symmetric_noise(classes))
        assert sum(exact_rows) == classes * (classes - 1) // 2

    def test_tie_rich_kernels_stop_screening(self, screen_slabs):
        # once the screen has seen 4m pairs and kept most, the rest run exact
        alpha(symmetric_noise(300))
        assert sum(screen_slabs) < 8 * 300

    def test_46_class_stack_screens_its_first_slab_then_runs_exact(self, screen_slabs, exact_rows):
        # 7 matrices, as a tables chunk holds them: the first slab, 18 columns of each
        # against the later ones, keeps every tie, so the rest of the pass runs exact
        matrices = catalog.build_kernels(catalog.SYMMETRIC, 46, np.linspace(0.05, 0.35, 7))[2]
        worst, best = divergence.stacked_extremes(matrices)
        assert len(screen_slabs) == 1 and screen_slabs[0] == 7 * 18 * 45
        assert sum(exact_rows) == 7 * (46 * 45 // 2)  # each pair once
        assert list(zip(worst.tolist(), best.tolist())) == [
            divergence._pair_extremes.__wrapped__(with_columns(matrix)) for matrix in matrices]

    def test_small_slabs_run_every_pair(self, exact_rows):
        t = replicate(binary_noise(0.2), 5)
        assert (t.matrix.shape[1] - 1) * t.matrix.shape[0] < divergence._SCREEN_ENTRIES
        lambda_coeff(t)
        assert sum(exact_rows) == 32 * 31 // 2

    def test_tall_kernels_run_every_pair(self, exact_rows, monkeypatch):
        t = replicate(binary_noise(0.2), 6)
        monkeypatch.setattr(divergence, "_SCREEN_ROWS", t.matrix.shape[0] - 1)
        alpha(t)
        assert sum(exact_rows) == 64 * 63 // 2


class TestOnePassPerKernel:
    """The pass's result is kept for the last kernel, by identity."""

    def test_alpha_then_lambda_run_one_pass(self, exact_rows):
        t = replicate(binary_noise(0.2), 5)
        assert (alpha(t), lambda_coeff(t)) == (alpha_loop(t), lambda_loop(t))
        assert sum(exact_rows) == 32 * 31 // 2

    def test_analyze_runs_one_pass_per_kernel(self, exact_rows, tmp_path, capsys):
        for t in (replicate(binary_noise(0.2), 5), replicate(asym_noise(0.1, 0.3), 5)):
            exact_rows.clear()
            path = tmp_path / "kernel.json"
            path.write_text(json.dumps(kernel_to_json(t)))
            assert main(["analyze", "--kernel", str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["alpha"], report["lambda"]) == (alpha_loop(t), lambda_loop(t))
            assert sum(exact_rows) == 32 * 31 // 2

    def test_alternating_kernels_get_their_own_values(self, exact_rows):
        a, b = binary_noise(0.2), asym_noise(0.1, 0.3)
        twin = Kernel(a.domain, a.codomain, a.matrix.copy())  # equal matrix, another kernel
        calls = [(alpha, a), (lambda_coeff, b), (alpha, a), (lambda_coeff, twin), (alpha, b), (alpha, twin),
                 (lambda_coeff, twin), (lambda_coeff, a), (alpha, a)]
        loop = {alpha: alpha_loop, lambda_coeff: lambda_loop}
        for fn, t in calls:
            assert fn(t) == loop[fn](t)
        # one pass of one pair per change of kernel object, none for a repeat
        assert exact_rows == [1] * 7

    def test_failed_cross_check_raises_again(self, exact_rows, monkeypatch):
        monkeypatch.setattr(divergence, "ALPHA_CONSISTENCY_ATOL", -1.0)
        t = binary_noise(0.2)
        for fn in (alpha, alpha, lambda_coeff):
            with pytest.raises(errors.InternalInconsistency):
                fn(t)
        assert exact_rows == [1] * 3


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
