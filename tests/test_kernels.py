"""Distribution and kernel construction, composition, products, adjoints."""

import json

import numpy as np
import pytest

from corruptlab import errors, kernels
from corruptlab.divergence import alpha, lambda_coeff
from corruptlab.kernels import (
    Dist,
    Kernel,
    Space,
    compose,
    dist_from_json,
    dist_to_json,
    identity,
    kernel_from_json,
    kernel_to_json,
    make_dist,
    normalized,
    parallel_product,
    point_mass,
    pullback,
    pushforward,
    replicate,
    uniform,
)
from corruptlab.reconstruct import LossTable, Reconstruction, loss_to_json, pseudoinverse


from helpers import binary_noise, constant_kernel, random_kernel


class TestMakeDist:
    def test_uniform_is_valid(self):
        d = make_dist(Space(["-1", "+1"]), [0.5, 0.5])
        assert d["-1"] == 0.5
        assert uniform(Space(["a", "b", "c", "d"])).weights.tolist() == [0.25] * 4
        assert list(d.space) == ["-1", "+1"]

    def test_point_mass_is_valid(self):
        d = make_dist(Space(["a", "b", "c"]), [1, 0, 0])
        np.testing.assert_array_equal(d.weights, [1, 0, 0])

    def test_not_normalized(self):
        with pytest.raises(errors.NotNormalized):
            make_dist(Space(["-1", "+1"]), [0.2, 0.3])

    def test_negative_weight(self):
        with pytest.raises(errors.NegativeWeight):
            make_dist(Space(["-1", "+1"]), [1.5, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            make_dist(Space(["-1", "+1"]), [1.0])

    def test_no_silent_normalization(self):
        # the explicit helper exists instead
        np.testing.assert_allclose(normalized([2, 2]), [0.5, 0.5])
        with pytest.raises(errors.NotNormalized):
            make_dist(Space(["a", "b"]), [2, 2])

    @pytest.mark.parametrize("weights, expected", [
        ([1e308, 1e308], [0.5, 0.5]),
        ([1e308, 1e308, 4e307], [5 / 12, 5 / 12, 1 / 6]),
        ([1.7976931348623157e308, 1.7976931348623157e308, 0.0, 5e-324], [0.5, 0.5, 0.0, 0.0]),
    ], ids=["two", "three", "largest-and-subnormal"])
    def test_normalized_weights_summing_past_a_double(self, weights, expected):
        # finite weights whose sum overflows are first scaled by the largest;
        # warnings are errors in this suite, so no overflow warning escapes
        np.testing.assert_allclose(normalized(weights), expected, rtol=1e-15)
        assert normalized(weights).sum() == pytest.approx(1.0, rel=1e-15)

    def test_normalized_finite_sums_keep_their_bytes(self):
        w = [1e308, 7e307, 3.0e-5, 0.1]
        assert normalized(w).tobytes() == (np.array(w) / sum(w)).tobytes()


class TestKernelValidation:
    def test_column_sum_enforced(self):
        space = Space(["a", "b"])
        with pytest.raises(errors.NotNormalized):
            Kernel(space, space, [[0.9, 0.5], [0.2, 0.5]])

    def test_negative_entry(self):
        space = Space(["a", "b"])
        with pytest.raises(errors.NegativeWeight):
            Kernel(space, space, [[1.2, 0.5], [-0.2, 0.5]])

    @pytest.mark.parametrize("order, error, message", [
        ((0, 1, 2), errors.NotNormalized, "column 1 sums to np.float64(0.9), not 1"),
        ((0, 2, 1), errors.NegativeWeight, "kernel entries must be non-negative")], ids=["sum-first", "sign-first"])
    def test_stack_is_refused_at_its_first_bad_matrix(self, order, error, message):
        stack = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.4], [0.5, 0.5]], [[-0.1, 0.5], [1.1, 0.5]]])
        with pytest.raises(error) as caught:
            kernels.check_stochastic(stack[list(order)])
        assert str(caught.value) == message
        with pytest.raises(error) as alone:
            Kernel(Space(["a", "b"]), Space(["x", "y"]), stack[order[1]])
        assert str(alone.value) == message

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry(self, bad):
        # A NaN column passes both the sign test and the column-sum test.
        space = Space(["a", "b"])
        with pytest.raises(errors.InvalidParameter, match="finite"):
            Kernel(space, space, [[bad, 0.5], [1.0, 0.5]])

    def test_immutable(self):
        t = identity(Space(["a", "b"]))
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 2.0

    def test_view_of_a_writable_array_is_copied(self):
        # kernels are compared by identity, so their matrix must not change after validation
        base = np.array([[0.9, 0.2], [0.1, 0.8]])
        t = Kernel(Space(["a", "b"]), Space(["a", "b"]), base.T.T)
        p = Dist(t.codomain, base[:, 0])
        base[:] = [[2.0, -1.0], [-1.0, 2.0]]
        assert t.matrix.tolist() == [[0.9, 0.2], [0.1, 0.8]] and p.weights.tolist() == [0.9, 0.1]

    def test_every_value_keeps_its_own_copy(self):
        # the caller's arrays stay theirs: writable, and writing to them changes no value
        space = Space(["a", "b"])
        numbers = {"matrix": [[0.9, 0.2], [0.1, 0.8]], "weights": [0.3, 0.7], "loss": [[0.0, 1.0], [1.0, 0.0]],
                   "inverse": np.linalg.inv([[0.9, 0.2], [0.1, 0.8]]).tolist()}
        given = {name: np.array(x) for name, x in numbers.items()}
        t = Kernel(space, space, given["matrix"])
        values = {"matrix": t, "weights": Dist(space, given["weights"]),
                  "loss": LossTable(space, ["x", "y"], given["loss"]),
                  "inverse": Reconstruction(kernel=t, matrix=given["inverse"])}
        for name, a in given.items():
            assert a.flags.writeable, name
            a[:] = 0.5
        kept = {"matrix": t.matrix, "weights": values["weights"].weights, "loss": values["loss"].values,
                "inverse": values["inverse"].matrix}
        assert {name: a.tolist() for name, a in kept.items()} == numbers
        fresh = Kernel(space, space, numbers["matrix"])
        assert (alpha(t), lambda_coeff(t)) == (alpha(fresh), lambda_coeff(fresh))


class TestCompose:
    def test_identity_neutral(self):
        t = binary_noise(0.2)
        left = compose(identity(t.codomain), t)
        np.testing.assert_array_equal(left.matrix, t.matrix)

    def test_binary_noise_rates_combine(self):
        # hand-multiplied 2x2 product: 0.1*0.8 + 0.9*0.2 = 0.26
        combined = compose(binary_noise(0.2), binary_noise(0.1))
        np.testing.assert_allclose(combined.matrix, binary_noise(0.26).matrix, atol=1e-15)

    def test_constant_absorbs(self):
        t = binary_noise(0.3)
        g = constant_kernel(t.codomain, [0.25, 0.75])
        out = compose(g, t)
        np.testing.assert_allclose(out.matrix[:, 0], out.matrix[:, 1])

    def test_space_mismatch(self):
        with pytest.raises(errors.SpaceMismatch):
            compose(binary_noise(0.1), identity(Space(["a", "b"])))

    def test_stochasticity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t1 = random_kernel(rng, 3, 4)
            t2 = Kernel(t1.codomain, Space(["z0", "z1", "z2"]),
                        rng.dirichlet(np.ones(3), size=4).T)
            np.testing.assert_allclose(compose(t2, t1).matrix.sum(axis=0), 1.0, atol=1e-9)


class TestPushforwardPullback:
    def test_pushforward_identity(self):
        p = make_dist(Space(["a", "b"]), [0.3, 0.7])
        np.testing.assert_array_equal(pushforward(identity(p.space), p).weights, p.weights)

    def test_pushforward_reads_column(self):
        t = binary_noise(0.25)
        out = pushforward(t, point_mass(t.domain, "+1"))
        np.testing.assert_allclose(out.weights, [0.25, 0.75])

    def test_pushforward_constant(self):
        dom = Space(["a", "b", "c"])
        t = constant_kernel(dom, [0.2, 0.8])
        for w in ([1, 0, 0], [0.2, 0.3, 0.5]):
            out = pushforward(t, make_dist(dom, w))
            np.testing.assert_allclose(out.weights, [0.2, 0.8])

    def test_pullback_identity(self):
        t = identity(Space(["a", "b", "c"]))
        np.testing.assert_array_equal(pullback(t, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_pullback_transpose(self):
        np.testing.assert_allclose(pullback(binary_noise(0.25), [1.0, 0.0]), [0.75, 0.25])

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = random_kernel(rng, 3, 5)
            p = Dist(t.domain, rng.dirichlet(np.ones(3)))
            f = rng.normal(size=5)
            lhs = float(pushforward(t, p).weights @ f)
            rhs = float(p.weights @ pullback(t, f))
            assert abs(lhs - rhs) <= 1e-12

    def test_composition_functorial(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t1 = random_kernel(rng, 3, 4)
            t2 = Kernel(t1.codomain, Space(["z0", "z1"]), rng.dirichlet(np.ones(2), size=4).T)
            p = Dist(t1.domain, rng.dirichlet(np.ones(3)))
            via_compose = pushforward(compose(t2, t1), p)
            via_steps = pushforward(t2, pushforward(t1, p))
            np.testing.assert_allclose(via_compose.weights, via_steps.weights, atol=1e-12)


class TestProducts:
    def test_identity_product(self):
        t = parallel_product([identity(Space(["a", "b"]))] * 2)
        np.testing.assert_array_equal(t.matrix, np.eye(4))
        assert t.codomain.labels == ("a⊗a", "a⊗b", "b⊗a", "b⊗b")

    def test_single_factor_passthrough(self):
        t = binary_noise(0.2)
        assert parallel_product([t]) is t

    def test_columns_stay_stochastic(self):
        t = parallel_product([binary_noise(0.1), binary_noise(0.3)])
        np.testing.assert_allclose(t.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_product_pushforward_factorizes(self):
        t = binary_noise(0.2)
        p = make_dist(t.domain, [0.3, 0.7])
        big = pushforward(replicate(t, 2), Dist(replicate(t, 2).domain,
                                                np.kron(p.weights, p.weights)))
        small = pushforward(t, p).weights
        np.testing.assert_allclose(big.weights, np.kron(small, small), atol=1e-12)

    def test_replicate_identity(self):
        t = replicate(identity(Space(["a", "b"])), 3)
        np.testing.assert_array_equal(t.matrix, np.eye(8))

    def test_size_guard(self):
        t = identity(Space([str(i) for i in range(64)]))
        with pytest.raises(errors.SizeGuardExceeded):
            replicate(t, 4)

    def test_size_guard_message_stays_short(self):
        # 2**20000 rows: a message with the full count would pass 4,300 digits
        with pytest.raises(errors.SizeGuardExceeded) as info:
            replicate(binary_noise(0.2), 20000)
        assert len(str(info.value)) < 100

    def test_replicate_checks_the_guard_before_listing_factors(self):
        # a list of 2**62 factors would not fit in memory
        with pytest.raises(errors.SizeGuardExceeded):
            replicate(binary_noise(0.2), 2**62)

    def test_a_kernel_built_in_python_is_held_to_the_entry_guard(self):
        # at the bound, and one column past it: refused only once its matrix is checked
        assert Kernel(Space([f"x{i}" for i in range(1000)]), Space([f"y{i}" for i in range(1000)]),
                      np.eye(1000)).matrix.size == kernels.PRODUCT_ENTRY_GUARD
        domain, codomain = Space([f"x{i}" for i in range(1001)]), Space([f"y{i}" for i in range(1000)])
        with pytest.raises(errors.NotNormalized):
            Kernel(domain, codomain, np.zeros((1000, 1001)))
        with pytest.raises(errors.SizeGuardExceeded,
                           match="^kernel entries, 1000x1001 = 1001000 exceeds guard 1000000$"):
            Kernel(domain, codomain, np.eye(1000, 1001) + np.eye(1000, 1001, 1000))

    def test_replicate_of_one_entry_stops_at_the_bound(self, monkeypatch):
        # past 19 = log2 of the guard, any kernel of two entries is past it
        one = identity(Space(["a"]))
        assert replicate(one, 19).domain.labels == ("⊗".join("a" * 19),)

        def no_factors(ts):
            raise AssertionError(f"{len(ts)} factors listed")

        monkeypatch.setattr(kernels, "parallel_product", no_factors)
        for n in (20, 10**5, 2**62):
            with pytest.raises(errors.SizeGuardExceeded, match=f"^replication count {n} exceeds guard 19$"):
                replicate(one, n)


class TestJson:
    def test_kernel_round_trip(self):
        t = binary_noise(0.2)
        again = kernel_from_json(json.loads(json.dumps(kernel_to_json(t))))
        np.testing.assert_array_equal(again.matrix, t.matrix)
        assert again.domain.labels == t.domain.labels

    def test_dist_round_trip(self):
        d = make_dist(Space(["a", "b"]), [0.25, 0.75])
        again = dist_from_json(dist_to_json(d))
        np.testing.assert_array_equal(again.weights, d.weights)

    #: Doubles whose shortest text is easy to get wrong: both zeros, the least
    #: subnormal, the least normal, the largest double, 17-digit values and
    #: integers past 2**53.
    EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1 / 3, 2.0**53 + 2, 1e16, 1e-7]

    @pytest.mark.parametrize("seed", range(5))
    def test_writers_give_the_text_of_one_float_per_entry(self, seed):
        # the writers serialise with ndarray.tolist(); the text is that of float() entry by entry
        rng = np.random.default_rng(seed)
        t = random_kernel(rng, 5, 7)
        values = np.vstack([rng.permutation(self.EDGE_VALUES * 2).reshape(4, 6),
                            rng.standard_normal((3, 6)) * 10.0 ** rng.integers(-300, 300, (3, 6))])
        loss = LossTable(Space([f"o{i}" for i in range(7)]), [f"a{i}" for i in range(6)], values)
        d = make_dist(t.codomain, rng.dirichlet(np.ones(7)))
        rec = pseudoinverse(t)

        def by_entry(a):
            return [float(x) for x in a] if a.ndim == 1 else [[float(x) for x in row] for row in a]

        for written, array in [(kernel_to_json(t)["matrix"], t.matrix), (dist_to_json(d)["weights"], d.weights),
                               (loss_to_json(loss)["values"], values), (rec.to_json()["matrix"], rec.matrix)]:
            assert json.dumps(written) == json.dumps(by_entry(array))
        assert json.dumps(loss_to_json(loss)["values"][:4]).count("-0.0") == 2

    def test_rejects_bad_columns(self):
        with pytest.raises(errors.NotNormalized):
            kernel_from_json({"from": ["a"], "to": ["x", "y"], "matrix": [[0.5], [0.4]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(errors.ParseError):
            kernel_from_json({"from": ["a"], "matrix": [[1.0]]})
