"""Corruption families: kernels, closed forms, and cross-validation."""

import numpy as np
import pytest

from corruptlab import errors
from corruptlab.catalog import (
    FAMILIES,
    PARTIAL_LABEL_SETS,
    binary_label_noise,
    build_kernel,
    build_kernels,
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

    def test_every_parameter_is_read_before_the_class_guard(self):
        with pytest.raises(errors.InvalidParameter, match=r"^sigma must be in \[0, 1\], got 5.0$"):
            symmetric_label_noise(10**9, 5.0)
        with pytest.raises(errors.InvalidParameter, match="^sigma must be a finite number$"):
            make_spec("symmetric_label_noise", classes=10**9, sigma="x")
        with pytest.raises(errors.SizeGuardExceeded,
                           match="^kernel entries, 1000000000x1000000000 = 1000000000000000000 exceeds guard 1000000$"):
            symmetric_label_noise(10**9, 0.5)


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


#: Each family's matrix and closed forms one point at a time, in Python
#: floats, as the catalog wrote them before its builders took stacks: the
#: oracle the stacks must match bit for bit.
def _symmetric_matrix(k, s):
    matrix = np.full((k, k), s / (k - 1))
    np.fill_diagonal(matrix, 1.0 - s)
    return matrix


def _partial_matrix(s):
    matrix = np.zeros((7, 3))
    for j in range(3):
        for i, bits in enumerate(PARTIAL_LABEL_SETS):
            if bits[j] == "1":
                spurious = bits.count("1") - 1
                matrix[i, j] = s**spurious * (1.0 - s) ** (2 - spurious)
    return matrix


def _binary_stats(sn, sp):
    gap = abs(1.0 - sn - sp)
    if gap == 0.0:
        return 0.0, None, None
    return gap, max(1.0 - sn + sp, 1.0 - sp + sn) / gap, max(1.0 - sn, 1.0 - sp, sn, sp) / gap


def _symmetric_stats(k, s):
    a, gap = abs(1.0 - k * s / (k - 1)), abs(2.0 - 3.0 * s)
    if k != 3 or gap == 0.0:
        return a, None, None
    return a, (2.0 + s) / gap, 2.0 * max(s, 1.0 - s) / gap


ONE_POINT = {
    "binary_label_noise": (lambda sn, sp: [[1.0 - sn, sp], [sn, 1.0 - sp]], _binary_stats),
    "symmetric_label_noise": (_symmetric_matrix, _symmetric_stats),
    "semi_supervised": (lambda sn, sp: [[sn, 0.0], [0.0, sp], [1.0 - sn, 1.0 - sp]],
                        lambda sn, sp: (max(sn, sp), 1.0 / sn if sn == sp and sn > 0.0 else None, None)),
    "partial_labels": (_partial_matrix, lambda s: (1.0 - s, None, None)),
}


@pytest.mark.parametrize("family, classes", [(family, 3) for family in FAMILIES] + [("symmetric_label_noise", 7)],
                         ids=[*FAMILIES, "symmetric_label_noise-7"])
class TestStacks:
    """The stacked builders give, at every point, the one-point formulas' bits."""

    @staticmethod
    def points(family, classes):
        """10^4 values of sigma, each probability parameter running through them in its own order,
        with the parameters of each point as the family takes them."""
        sigma = np.arange(10**4) / 10**4  # holds 0.0397, whose square libm's pow and x*x round apart
        probabilities = iter((sigma, sigma[::-1]))
        values = [classes if key == "classes" else next(probabilities) for key in FAMILIES[family].params]
        return values, [[v if key == "classes" else v[g] for key, v in zip(FAMILIES[family].params, values)]
                        for g in range(len(sigma))]

    def test_matrices(self, family, classes):
        values, points = self.points(family, classes)
        matrices = build_kernels(family, *values)[2]
        for g, point in enumerate(points):
            expected = np.asarray(ONE_POINT[family][0](*point), dtype=float)
            assert np.array_equal(matrices[g], expected), (family, point)
            spec = make_spec(family, **dict(zip(FAMILIES[family].params, point)))
            assert np.array_equal(build_kernel(spec).matrix, expected), (family, point)

    def test_closed_forms(self, family, classes):
        values, points = self.points(family, classes)
        stacked = [[None if np.isnan(v) else v for v in column.tolist()]
                   for column in FAMILIES[family].stats(*values)]
        for g, point in enumerate(points):
            expected = ONE_POINT[family][1](*point)
            assert (stacked[0][g], stacked[1][g], stacked[2][g]) == expected, (family, point)
            stats = closed_form_stats(make_spec(family, **dict(zip(FAMILIES[family].params, point))))
            assert (stats.alpha, stats.row_norm, stats.corrected01_norm) == expected, (family, point)


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

    @pytest.mark.parametrize("family, params, key", [
        ("symmetric_label_noise", {"sigma": 0.2, "clases": 7}, "clases"),
        ("binary_label_noise", {"sigma_neg": 0.1, "sigma_pos": 0.2, "classes": 2}, "classes"),
        ("partial_labels", {"sigma": 0.2, "sigma_pos": 0.1}, "sigma_pos"),
    ], ids=["misspelt-classes", "classes-on-binary", "extra-probability"])
    def test_unknown_parameter(self, family, params, key):
        with pytest.raises(errors.ParseError, match=f'params has unknown key "{key}"'):
            spec_from_json({"family": family, "params": params})

    def test_unknown_keys_come_before_value_errors(self):
        # the document's shape is read first; the value of "sigma" only by the catalog's validator
        with pytest.raises(errors.ParseError) as caught:
            spec_from_json({"family": "partial_labels", "params": {"sigma": "x", "extra": 1}})
        assert str(caught.value) == 'partial_labels params has unknown key "extra"; known: sigma'
        with pytest.raises(errors.InvalidParameter) as caught:
            spec_from_json({"family": "partial_labels", "params": {"sigma": "x"}})
        assert str(caught.value) == "sigma must be a finite number"
