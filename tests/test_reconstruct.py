"""Left inverses, corrected losses and the operator-norm ledger."""

import numpy as np
import pytest

from corruptlab import errors
from corruptlab.divergence import alpha
from corruptlab.kernels import Dist, Kernel, Space, compose, identity
from corruptlab.reconstruct import (
    LossTable,
    Reconstruction,
    corrected_loss,
    corrected_sup_norm,
    is_reconstructible,
    loss_from_json,
    loss_to_json,
    op_norm_row_sum,
    pseudoinverse,
    sandwich_report,
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
