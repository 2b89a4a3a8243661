"""Corruption families: kernels, closed forms, and cross-validation."""

import numpy as np
import pytest

from corruptlab import errors
from corruptlab.catalog import (
    FAMILIES,
    PARTIAL_LABEL_SETS,
    binary_label_noise,
    build_kernel,
    closed_form_stats,
    make_spec,
    partial_labels,
    semi_supervised,
    spec_from_json,
    spec_to_json,
    symmetric_label_noise,
)
from corruptlab.divergence import alpha
from corruptlab.reconstruct import (
    corrected_sup_norm,
    is_reconstructible,
    op_norm_row_sum,
    pseudoinverse,
    zero_one_loss,
)

GRID = [round(0.05 * i, 2) for i in range(10)]  # 0, 0.05, ..., 0.45


def sample_spec(family, classes=4, sigmas=(0.1, 0.2)):
    """A spec of `family` with its probabilities taken from `sigmas` in turn."""
    probabilities = iter(sigmas)
    return make_spec(family, **{key: classes if key == "classes" else next(probabilities)
                                for key in FAMILIES[family].params})


class TestBuildKernel:
    def test_noiseless_binary_is_identity(self):
        t = build_kernel(binary_label_noise(0.0, 0.0))
        np.testing.assert_array_equal(t.matrix, np.eye(2))

    def test_binary_matrix_layout(self):
        t = build_kernel(binary_label_noise(0.1, 0.2))
        np.testing.assert_allclose(t.matrix, [[0.9, 0.2], [0.1, 0.8]])

    def test_partial_labels_column(self):
        t = build_kernel(partial_labels(0.3))
        np.testing.assert_allclose(t.matrix[:, 2],
                                   [0.49, 0.0, 0.21, 0.0, 0.21, 0.0, 0.09], atol=1e-15)
        assert t.codomain.labels == PARTIAL_LABEL_SETS

    def test_partial_labels_always_include_truth(self):
        t = build_kernel(partial_labels(0.4))
        for j in range(3):
            for i, bits in enumerate(PARTIAL_LABEL_SETS):
                if bits[j] == "0":
                    assert t.matrix[i, j] == 0.0

    def test_semi_supervised_columns(self):
        t = build_kernel(semi_supervised(0.4, 0.4))
        np.testing.assert_allclose(t.matrix[:, 0], [0.4, 0.0, 0.6])
        np.testing.assert_allclose(t.matrix[:, 1], [0.0, 0.4, 0.6])
        assert t.codomain.labels == ("-1", "+1", "?")

    def test_symmetric_three_class(self):
        t = build_kernel(symmetric_label_noise(3, 0.2))
        np.testing.assert_allclose(t.matrix, [[0.8, 0.1, 0.1],
                                              [0.1, 0.8, 0.1],
                                              [0.1, 0.1, 0.8]])

    def test_invalid_parameters(self):
        with pytest.raises(errors.InvalidParameter):
            binary_label_noise(-0.1, 0.2)
        with pytest.raises(errors.InvalidParameter):
            symmetric_label_noise(1, 0.2)
        with pytest.raises(errors.InvalidParameter):
            partial_labels(1.5)


@pytest.mark.parametrize("family", FAMILIES)
class TestEveryFamily:
    def test_kernel_is_column_stochastic(self, family):
        for sigma in GRID:
            matrix = build_kernel(sample_spec(family, sigmas=(sigma, 0.45 - sigma))).matrix
            assert (matrix >= 0.0).all()
            np.testing.assert_allclose(matrix.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)

    def test_closed_form_alpha_matches_generic(self, family):
        for classes in (3, 4, 7):
            for sigma in GRID:
                spec = sample_spec(family, classes, sigmas=(sigma, 0.45 - sigma))
                assert abs(closed_form_stats(spec).alpha - alpha(build_kernel(spec))) <= 1e-12


class TestClosedForms:
    def test_binary_example(self):
        stats = closed_form_stats(binary_label_noise(0.1, 0.2))
        assert stats.alpha == pytest.approx(0.7, abs=1e-15)
        assert stats.row_norm == pytest.approx(1.1 / 0.7, abs=1e-15)
        assert stats.corrected01_norm == pytest.approx(0.9 / 0.7, abs=1e-15)

    def test_three_class_example(self):
        stats = closed_form_stats(symmetric_label_noise(3, 0.2))
        assert stats.alpha == pytest.approx(0.7, abs=1e-15)
        assert stats.row_norm == pytest.approx(2.2 / 1.4, abs=1e-15)
        assert stats.corrected01_norm == pytest.approx(1.6 / 1.4, abs=1e-15)

    def test_partial_labels_norms_not_printed(self):
        stats = closed_form_stats(partial_labels(0.3))
        assert stats.alpha == pytest.approx(0.7, abs=1e-15)
        assert stats.row_norm is None and stats.corrected01_norm is None

    def test_semi_supervised(self):
        sym = closed_form_stats(semi_supervised(0.3, 0.3))
        assert sym.alpha == 0.3 and sym.row_norm == pytest.approx(1 / 0.3)
        assert sym.corrected01_norm is None  # printed form is suspect; numeric only
        asym = closed_form_stats(semi_supervised(0.2, 0.4))
        assert asym.alpha == 0.4 and asym.row_norm is None


class TestGridCrossValidation:
    @pytest.mark.parametrize("sigma", GRID)
    def test_binary_alpha_matches_generic(self, sigma):
        for other in GRID:
            spec = binary_label_noise(sigma, other)
            assert abs(closed_form_stats(spec).alpha - alpha(build_kernel(spec))) <= 1e-12

    @pytest.mark.parametrize("sigma", GRID)
    def test_binary_norms_match_generic(self, sigma):
        for other in GRID:
            spec = binary_label_noise(sigma, other)
            rec = pseudoinverse(build_kernel(spec))
            stats = closed_form_stats(spec)
            assert abs(stats.row_norm - op_norm_row_sum(rec)) <= 1e-9
            loss = zero_one_loss(rec.kernel.domain)
            assert abs(stats.corrected01_norm - corrected_sup_norm(rec, loss)) <= 1e-9

    @pytest.mark.parametrize("classes", [2, 3, 4, 7])
    def test_symmetric_alpha_matches_generic(self, classes):
        for sigma in GRID:
            spec = symmetric_label_noise(classes, sigma)
            assert abs(closed_form_stats(spec).alpha - alpha(build_kernel(spec))) <= 1e-12

    @pytest.mark.parametrize("sigma", GRID)
    def test_three_class_norms_match_generic(self, sigma):
        spec = symmetric_label_noise(3, sigma)
        rec = pseudoinverse(build_kernel(spec))
        stats = closed_form_stats(spec)
        assert abs(stats.row_norm - op_norm_row_sum(rec)) <= 1e-9
        loss = zero_one_loss(rec.kernel.domain)
        assert abs(stats.corrected01_norm - corrected_sup_norm(rec, loss)) <= 1e-9

    def test_semi_supervised_alpha_and_row_norm(self):
        for sigma in GRID[1:]:  # sigma = 0 is not reconstructible
            spec = semi_supervised(sigma, sigma)
            kernel = build_kernel(spec)
            stats = closed_form_stats(spec)
            assert abs(stats.alpha - alpha(kernel)) <= 1e-12
            assert abs(stats.row_norm - op_norm_row_sum(pseudoinverse(kernel))) <= 1e-9
        for s1 in GRID[1:]:
            for s2 in GRID[1:]:
                spec = semi_supervised(s1, s2)
                assert abs(max(s1, s2) - alpha(build_kernel(spec))) <= 1e-12

    def test_partial_labels_alpha_matches_generic(self):
        for sigma in GRID:
            kernel = build_kernel(partial_labels(sigma))
            assert abs((1.0 - sigma) - alpha(kernel)) <= 1e-12
            assert is_reconstructible(kernel)

    def test_corrected01_below_row_norm_on_grid(self):
        # with 0-1 loss the corrected sup never beats the operator norm
        for sigma in GRID:
            for spec in (binary_label_noise(sigma, sigma), symmetric_label_noise(3, sigma)):
                rec = pseudoinverse(build_kernel(spec))
                loss = zero_one_loss(rec.kernel.domain)
                assert corrected_sup_norm(rec, loss) <= op_norm_row_sum(rec) + 1e-12


class TestJson:
    def test_round_trip(self):
        for family in FAMILIES:
            spec = sample_spec(family, sigmas=(0.2, 0.5))
            document = spec_to_json(spec)
            assert spec_from_json(document) == spec
            assert all(type(v) is (int if k == "classes" else float) for k, v in document["params"].items())

    def test_unknown_family(self):
        with pytest.raises(errors.UnknownFamily):
            spec_from_json({"family": "made-up", "params": {}})

    def test_missing_parameter(self):
        with pytest.raises(errors.ParseError):
            spec_from_json({"family": "binary_label_noise", "params": {"sigma_neg": 0.1}})
