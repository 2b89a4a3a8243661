"""Left inverses, corrected losses and the operator-norm ledger."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corruptlab import catalog, errors
from corruptlab.divergence import alpha
from corruptlab.kernels import Dist, Kernel, Space, compose, identity
from corruptlab.reconstruct import (
    RANK_SV_RTOL,
    LossTable,
    Reconstruction,
    corrected_loss,
    corrected_sup_norm,
    is_reconstructible,
    left_inverses,
    loss_from_json,
    loss_to_json,
    op_norm_row_sum,
    pseudoinverse,
    sandwich_report,
    statistics,
    zero_one_loss,
)

from helpers import asym_noise, binary_noise, constant_kernel, random_kernel


def random_loss(rng, outcomes, n_actions, scale=1.0):
    return LossTable(outcomes, [f"a{i}" for i in range(n_actions)],
                     rng.uniform(-scale, scale, size=(len(outcomes), n_actions)))


def partial_labels_kernel(sigma):
    from corruptlab.catalog import build_kernel, partial_labels
    return build_kernel(partial_labels(sigma))


class TestReconstructible:
    def test_binary_noise_generic(self):
        assert is_reconstructible(asym_noise(0.1, 0.2))
        assert is_reconstructible(asym_noise(0.4, 0.55))

    def test_binary_noise_boundary(self):
        assert not is_reconstructible(asym_noise(0.5, 0.5))
        assert not is_reconstructible(asym_noise(0.3, 0.7))

    def test_constant_kernel(self):
        assert not is_reconstructible(constant_kernel(Space(["a", "b"]), [0.4, 0.6]))

    def test_wide_kernel_never(self):
        # fewer corrupted outcomes than clean ones: no left inverse
        t = Kernel(Space(["a", "b", "c"]), Space(["x", "y"]),
                   [[0.5, 0.2, 0.9], [0.5, 0.8, 0.1]])
        assert not is_reconstructible(t)


# -- the normal-equation solve the SVD replaced, kept as an oracle -------------------

#: The oracle's rank test: a Gram pivot below this fraction of the largest.
ORACLE_PIVOT_RTOL = 1e-10


def _eliminate(a, b):
    """Forward elimination with partial pivoting; returns (U, b', pivots)."""
    a = a.copy()
    b = b.copy()
    n = a.shape[0]
    pivots = []
    for col in range(n):
        lead = col + int(np.argmax(np.abs(a[col:, col])))
        pivots.append(float(abs(a[lead, col])))
        if lead != col:
            a[[col, lead]] = a[[lead, col]]
            b[[col, lead]] = b[[lead, col]]
        if a[col, col] != 0.0:
            factors = a[col + 1:, col] / a[col, col]
            a[col + 1:, col:] -= np.outer(factors, a[col, col:])
            b[col + 1:] -= np.outer(factors, b[col])
    return a, b, pivots


def normal_equations_inverse(matrix):
    """(T^t T)^{-1} T^t by elimination and back substitution, or None when
    the Gram pivots fail the relative pivot test."""
    gram = matrix.T @ matrix
    u, rhs, pivots = _eliminate(gram, matrix.T.copy())
    if not (max(pivots) > 0.0 and min(pivots) >= ORACLE_PIVOT_RTOL * max(pivots)):
        return None
    r = np.zeros_like(rhs)
    for row in range(gram.shape[0] - 1, -1, -1):
        r[row] = (rhs[row] - u[row, row + 1:] @ r[row + 1:]) / u[row, row]
    return r


def agree(r, oracle):
    """Equal within 1e-9 of the largest entry (at least 1): the oracle's
    error grows with the square of T's condition number."""
    return float(np.abs(r - oracle).max()) <= 1e-9 * max(1.0, float(np.abs(oracle).max()))


_GRID = np.linspace(0.0, 1.0, 201)
_COARSE = np.linspace(0.0, 1.0, 51)
CATALOG_GRIDS = {
    "binary": [catalog.binary_label_noise(a, b) for a in _GRID for b in _COARSE],
    "semi-supervised": [catalog.semi_supervised(a, b) for a in _GRID for b in _COARSE],
    "symmetric-3-4-7": [catalog.symmetric_label_noise(k, s) for k in (3, 4, 7) for s in _GRID],
    "partial": [catalog.partial_labels(s) for s in _GRID],
}


class TestSvdMatchesNormalEquations:
    @pytest.mark.parametrize("family", CATALOG_GRIDS)
    def test_catalog_grid(self, family):
        for spec in CATALOG_GRIDS[family]:
            t = catalog.build_kernel(spec)
            old = normal_equations_inverse(t.matrix)
            assert is_reconstructible(t) is (old is not None), spec
            if old is not None:
                assert agree(pseudoinverse(t).matrix, old), spec

    def test_random_kernels_change_only_residual_failures(self):
        # a third of the kernels get a last column within 1e-7..1e-3 of the first
        rng = np.random.default_rng(113)
        for i in range(400):
            m = int(rng.integers(2, 5))
            t = random_kernel(rng, m, int(rng.integers(m, 7)))
            if i % 3 == 0:
                eps = 10 ** rng.uniform(-7, -3)
                matrix = t.matrix.copy()
                matrix[:, -1] = (1 - eps) * matrix[:, 0] + eps * matrix[:, -1]
                t = Kernel(t.domain, t.codomain, matrix)
            old = normal_equations_inverse(t.matrix)
            old_fits = old is not None and np.abs(old @ t.matrix - np.eye(m)).max() <= 1e-9
            if old is None:
                assert not is_reconstructible(t)
            elif old_fits:
                assert agree(pseudoinverse(t).matrix, old)
            else:  # the oracle's own left inverse missed the residual
                try:
                    assert pseudoinverse(t).residual <= 1e-9
                except errors.RankDeficient:
                    pass


class TestPseudoinverse:
    def test_identity(self):
        r = pseudoinverse(identity(Space(["a", "b", "c"])))
        np.testing.assert_array_equal(r.matrix, np.eye(3))
        assert r.residual == 0.0

    def test_binary_noise_closed_form(self):
        s_neg, s_pos = 0.1, 0.2
        r = pseudoinverse(asym_noise(s_neg, s_pos))
        expected = np.array([[1 - s_pos, -s_pos], [-s_neg, 1 - s_neg]]) / (1 - s_neg - s_pos)
        np.testing.assert_allclose(r.matrix, expected, atol=1e-12)

    def test_partial_labels_left_inverse(self):
        t = partial_labels_kernel(0.3)
        r = pseudoinverse(t)
        np.testing.assert_allclose(r.matrix @ t.matrix, np.eye(3), atol=1e-9)

    def test_not_reconstructible_raises(self):
        with pytest.raises(errors.RankDeficient) as info:
            pseudoinverse(asym_noise(0.5, 0.5))
        assert isinstance(info.value, errors.NotReconstructible)

    def test_external_matrix_validated(self):
        t = binary_noise(0.2)
        good = np.linalg.inv(t.matrix)
        assert Reconstruction(t, good).residual <= 1e-9
        with pytest.raises(errors.NotReconstructible):
            Reconstruction(t, np.eye(2))

    def test_json_export(self):
        r = pseudoinverse(binary_noise(0.2))
        out = r.to_json()
        assert out["residual"] <= 1e-9
        assert len(out["matrix"]) == 2


@st.composite
def kernel_stacks(draw):
    """1 to 6 random kernels of one k x m shape, k < m included, and a loss
    over their clean outcomes.  Some kernels repeat their first column as
    their last, so they fail the rank test."""
    g, m, k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    repeated = draw(st.lists(st.booleans(), min_size=g, max_size=g)) if m > 1 else [False] * g
    kernels = []
    for repeat in repeated:
        matrix = rng.dirichlet(np.ones(k), size=m).T
        if repeat:
            matrix[:, -1] = matrix[:, 0]
        kernels.append(Kernel(Space([f"x{i}" for i in range(m)]), Space([f"y{i}" for i in range(k)]), matrix))
    return kernels, random_loss(rng, kernels[0].domain, draw(st.integers(1, 4)))


class TestStackedStatistics:
    """The one statistics pass over a stack gives, bit for bit, what the
    per-kernel functions give for each of its matrices, and so does the pass
    on one matrix."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=kernel_stacks())
    def test_matches_the_per_kernel_functions(self, case):
        kernels, loss = case
        matrices = np.stack([t.matrix for t in kernels])
        stacked = statistics(matrices, loss.values)
        *lossless, none = statistics(matrices, None)
        assert none is None and np.array_equal(lossless, stacked[:2], equal_nan=True)
        for i, t in enumerate(kernels):
            single = statistics(t.matrix, loss.values)
            got = [(float(v[i]), float(w)) for v, w in zip(stacked, single)]
            if is_reconstructible(t):
                r = pseudoinverse(t)
                want = [r.residual, op_norm_row_sum(r), corrected_sup_norm(r, loss)]
                assert got == [(w, w) for w in want]
            else:
                assert got[0] == (0.0, 0.0) and np.isnan(got[1:]).all()
                with pytest.raises(errors.RankDeficient):
                    pseudoinverse(t)


def masked(matrices, loss):
    """``left_inverses`` and ``statistics`` as they read before their fast
    path: every result masked by the rank test, whether or not a matrix
    fails it."""
    u, s, vt = np.linalg.svd(matrices, full_matrices=False)
    full = (s[..., -1] >= RANK_SV_RTOL * s[..., 0]) & (s.shape[-1] == matrices.shape[-1])
    rec = (vt.swapaxes(-1, -2) / np.where(full[..., None], s, 1.0)[..., None, :]) @ u.swapaxes(-1, -2)
    residual = np.abs(rec @ matrices - np.eye(matrices.shape[-1])).max(axis=(-2, -1))
    row_norm = np.abs(rec).sum(axis=-2).max(axis=-1)
    corrected = np.abs(rec.swapaxes(-1, -2) @ loss).max(axis=(-2, -1))
    return (rec, full), (np.where(full, residual, 0.0), np.where(full, row_norm, np.nan),
                         np.where(full, corrected, np.nan))


def _small_shapes():
    rng = np.random.default_rng(37)
    shapes = {f"{n}x{n}": random_kernel(rng, n, n).matrix for n in (1, 2, 3, 7)}
    shapes["2x3"] = random_kernel(rng, 3, 2).matrix  # fewer corrupted outcomes than clean ones
    shapes["singular-2x2"] = np.full((2, 2), 0.5)
    shapes["mixed-stack"] = np.stack([shapes["2x2"], shapes["singular-2x2"], np.eye(2)])
    return shapes


SMALL_SHAPES = _small_shapes()


@pytest.mark.parametrize("shape", SMALL_SHAPES)
def test_small_shapes_match_the_masked_formulas(shape):
    matrices = SMALL_SHAPES[shape]
    loss = np.random.default_rng(7).uniform(-1.0, 1.0, size=(matrices.shape[-1], 3))
    (want_rec, want_full), want = masked(matrices, loss)
    rec, full = left_inverses(matrices)
    assert np.array_equal(full, want_full) and np.array_equal(rec, want_rec)  # finite where it fails, too
    got = statistics(matrices, loss)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w) and np.array_equal(g[full], w[full])
    residual, row_norm, corrected = (np.asarray(g) for g in got)
    assert (residual[~full] == 0.0).all()
    assert np.array_equal(np.isnan(row_norm), ~full) and np.array_equal(np.isnan(corrected), ~full)
    assert statistics(matrices, None)[2] is None
    assert full.all() == (shape not in ("2x3", "singular-2x2", "mixed-stack"))  # which path each takes


SRC = Path(__file__).resolve().parents[1] / "src" / "corruptlab"


def test_left_inverses_is_the_one_linalg_call():
    """``np.linalg`` is used only inside ``reconstruct.left_inverses``, and
    ``cli`` multiplies no matrices itself."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  for node in ast.walk(f)}
        found += [(path.name, owners.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "linalg"]
        if path.name == "cli.py":
            assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))
    assert found == [("reconstruct.py", "left_inverses")]


class TestCorrectedLoss:
    def test_identity_leaves_loss_alone(self):
        space = Space(["-1", "+1"])
        loss = zero_one_loss(space)
        out = corrected_loss(pseudoinverse(identity(space)), loss)
        np.testing.assert_array_equal(out.values, loss.values)

    def test_symmetric_binary_values(self):
        # (1 - sigma)/(1 - 2 sigma) and (0 - sigma)/(1 - 2 sigma) at sigma = 0.25
        t = binary_noise(0.25)
        out = corrected_loss(pseudoinverse(t), zero_one_loss(t.domain))
        np.testing.assert_allclose(sorted(set(np.round(out.values.ravel(), 12))),
                                   [-0.5, 1.5])

    def test_asymmetric_entry(self):
        t = asym_noise(0.1, 0.2)
        out = corrected_loss(pseudoinverse(t), zero_one_loss(t.domain))
        # corrupted outcome +1, action -1
        assert out.values[1, 0] == pytest.approx(0.9 / 0.7, abs=1e-12)

    def test_unbiasedness_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            m = int(rng.integers(2, 4))
            k = int(rng.integers(m, 6))
            t = random_kernel(rng, m, k)
            r = pseudoinverse(t)
            loss = random_loss(rng, t.domain, int(rng.integers(1, 4)))
            tilde = corrected_loss(r, loss)
            p = Dist(t.domain, rng.dirichlet(np.ones(m)))
            clean = p.weights @ loss.values
            corrupted = (t.matrix @ p.weights) @ tilde.values
            np.testing.assert_allclose(clean, corrupted, atol=1e-9)

    def test_space_mismatch(self):
        t = binary_noise(0.2)
        with pytest.raises(errors.SpaceMismatch):
            corrected_loss(pseudoinverse(t), zero_one_loss(Space(["x", "y"])))


class TestNorms:
    def test_identity_norms(self):
        r = pseudoinverse(identity(Space(["a", "b"])))
        assert op_norm_row_sum(r) == 1.0
        assert corrected_sup_norm(r, zero_one_loss(r.kernel.domain)) == 1.0

    def test_binary_noise_row_norm(self):
        r = pseudoinverse(asym_noise(0.1, 0.2))
        assert op_norm_row_sum(r) == pytest.approx(1.1 / 0.7, abs=1e-12)

    def test_three_class_row_norm(self):
        from corruptlab.catalog import build_kernel, symmetric_label_noise
        r = pseudoinverse(build_kernel(symmetric_label_noise(3, 0.2)))
        assert op_norm_row_sum(r) == pytest.approx(2.2 / 1.4, abs=1e-9)

    def test_binary_noise_corrected_sup(self):
        t = asym_noise(0.1, 0.2)
        val = corrected_sup_norm(pseudoinverse(t), zero_one_loss(t.domain))
        assert val == pytest.approx(0.9 / 0.7, abs=1e-12)

    def test_three_class_corrected_sup(self):
        from corruptlab.catalog import build_kernel, symmetric_label_noise
        t = build_kernel(symmetric_label_noise(3, 0.2))
        val = corrected_sup_norm(pseudoinverse(t), zero_one_loss(t.domain))
        assert val == pytest.approx(1.6 / 1.4, abs=1e-9)

    def test_corrected_sup_bounded_by_operator_norm(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            t = random_kernel(rng, 3, int(rng.integers(3, 6)))
            r = pseudoinverse(t)
            loss = random_loss(rng, t.domain, 3, scale=2.0)
            assert corrected_sup_norm(r, loss) <= op_norm_row_sum(r) * loss.sup_norm + 1e-9


class TestSandwich:
    def test_identity(self):
        rep = sandwich_report(identity(Space(["a", "b"])))
        assert rep.alpha == 1.0 and rep.inv_alpha == 1.0 and rep.row_norm == 1.0
        assert rep.holds

    def test_binary_noise_values(self):
        rep = sandwich_report(asym_noise(0.1, 0.2))
        assert rep.inv_alpha == pytest.approx(1 / 0.7, abs=1e-12)
        assert rep.row_norm == pytest.approx(1.1 / 0.7, abs=1e-12)
        assert rep.holds

    def test_random_reconstructible_kernels(self):
        rng = np.random.default_rng(107)
        done = 0
        while done < 500:
            m = int(rng.integers(2, 4))
            t = random_kernel(rng, m, int(rng.integers(m, 6)))
            if not is_reconstructible(t):
                continue
            assert sandwich_report(t).holds
            done += 1


class TestComposition:
    def test_product_reconstruction(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            t1 = random_kernel(rng, 2, 3)
            t2 = Kernel(t1.codomain, Space([f"z{i}" for i in range(4)]),
                        rng.dirichlet(np.ones(4), size=3).T)
            r1, r2 = pseudoinverse(t1), pseudoinverse(t2)
            combined = Reconstruction(compose(t2, t1), r1.matrix @ r2.matrix)
            assert combined.residual <= 1e-9
            norm_product = op_norm_row_sum(r1) * op_norm_row_sum(r2)
            assert op_norm_row_sum(combined) <= norm_product + 1e-9
            a1, a2 = alpha(t1), alpha(t2)
            if a1 * a2 > 0:
                assert 1.0 / (a1 * a2) <= op_norm_row_sum(combined) + 1e-9


class TestLossTable:
    def test_rejects_non_finite(self):
        with pytest.raises(errors.InvalidParameter):
            LossTable(Space(["a"]), ["x"], [[np.inf]])

    def test_sup_norm(self):
        loss = LossTable(Space(["a", "b"]), ["x"], [[-3.0], [2.0]])
        assert loss.sup_norm == 3.0

    def test_json_round_trip(self):
        loss = zero_one_loss(Space(["-1", "+1"]))
        again = loss_from_json(loss_to_json(loss))
        np.testing.assert_array_equal(again.values, loss.values)
        assert again.actions == loss.actions
