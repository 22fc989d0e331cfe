import numpy as np
import pytest

from coocrefine import (
    CondProbMatrix,
    GcnModel,
    NumericError,
    ValidationError,
    gcn_backward,
    gcn_forward,
    init_model,
    load_model,
    save_model,
)
from coocrefine.gcn import propagation_matrix, with_weights

from oracles import central_difference, dense_gcn, gradient_close


def random_cond(rng, n):
    probs = rng.random((n, n)) * 0.8
    np.fill_diagonal(probs, 1.0)
    return CondProbMatrix(probs, frozenset())


def identity_cond(n):
    return CondProbMatrix(np.eye(n), frozenset())


class TestInitModel:
    def test_shapes(self):
        model = init_model((1, 64, 64, 1), seed=0)
        assert [w.shape for w in model.weights] == [(1, 64), (64, 64), (64, 1)]
        assert model.layer_dims == (1, 64, 64, 1)

    def test_same_seed_identical(self):
        a = init_model((1, 8, 1), seed=4)
        b = init_model((1, 8, 1), seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_uniform_bound(self):
        model = init_model((1, 1), seed=0)
        assert abs(model.weights[0][0, 0]) <= np.sqrt(6.0 / 2.0)
        wide = init_model((1, 64, 1), seed=1)
        assert np.abs(wide.weights[0]).max() <= np.sqrt(6.0 / 65.0)

    def test_end_widths_must_be_one(self):
        with pytest.raises(ValidationError):
            init_model((2, 4, 1), seed=0)
        with pytest.raises(ValidationError):
            init_model((1, 4, 3), seed=0)


class TestPropagationMatrix:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        prop = propagation_matrix(random_cond(rng, 6))
        assert np.allclose(prop.sum(axis=1), 1.0)

    def test_identity_rows_preserved(self):
        cond = CondProbMatrix(np.eye(4), frozenset({2}))
        assert np.array_equal(propagation_matrix(cond), np.eye(4))

    def test_computed_once_and_read_only(self):
        cond = random_cond(np.random.default_rng(2), 5)
        prop = propagation_matrix(cond)
        assert propagation_matrix(cond) is prop
        assert not prop.flags.writeable
        assert np.array_equal(prop, cond.probs / cond.probs.sum(axis=1, keepdims=True))


class TestForward:
    def test_zero_input_is_fixed_point(self):
        rng = np.random.default_rng(1)
        model = init_model((1, 4, 4, 1), seed=2)
        refined, _ = gcn_forward(model, random_cond(rng, 5), np.zeros((3, 5)))
        assert np.array_equal(refined, np.zeros((3, 5)))

    def test_single_layer_identity_graph_by_hand(self):
        model = GcnModel((1, 1), (np.array([[2.0]]),))
        refined, _ = gcn_forward(model, identity_cond(2), np.array([[1.0, -1.0]]))
        assert refined.tolist() == [[3.0, -3.0]]

    def test_zero_weights_give_exact_residual_identity(self):
        rng = np.random.default_rng(3)
        model = init_model((1, 4, 4, 1), seed=0)
        zero = with_weights(model, [np.zeros_like(w) for w in model.weights])
        h0 = rng.normal(size=(4, 6))
        refined, _ = gcn_forward(zero, random_cond(rng, 6), h0)
        assert np.array_equal(refined, h0)

    def test_isolated_node_depends_only_on_itself(self):
        rng = np.random.default_rng(4)
        n, m = 5, 2
        probs = rng.random((n, n)) * 0.7
        np.fill_diagonal(probs, 1.0)
        probs[m, :] = 0.0
        probs[:, m] = 0.0
        probs[m, m] = 1.0
        cond = CondProbMatrix(probs, frozenset())
        model = init_model((1, 4, 1), seed=5)
        h0 = rng.normal(size=(2, n))
        base, _ = gcn_forward(model, cond, h0)
        bumped = h0.copy()
        bumped[:, [j for j in range(n) if j != m]] += rng.normal(size=(2, n - 1))
        moved, _ = gcn_forward(model, cond, bumped)
        assert np.allclose(base[:, m], moved[:, m])
        assert not np.allclose(base, moved)

    def test_final_nonlinearity_flag(self):
        weights = (np.array([[1.0]]),)
        plain = GcnModel((1, 1), weights, leaky_slope=0.5, final_nonlinearity=False)
        squashed = GcnModel((1, 1), weights, leaky_slope=0.5, final_nonlinearity=True)
        h0 = np.array([[-2.0, 2.0]])
        cond = identity_cond(2)
        out_plain, _ = gcn_forward(plain, cond, h0)
        out_squashed, _ = gcn_forward(squashed, cond, h0)
        assert out_plain.tolist() == [[-4.0, 4.0]]
        assert out_squashed.tolist() == [[-3.0, 4.0]]

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(6)
        model = init_model((1, 8, 1), seed=7)
        cond = random_cond(rng, 4)
        h0 = rng.normal(size=(3, 4))
        a, _ = gcn_forward(model, cond, h0)
        b, _ = gcn_forward(model, cond, h0)
        assert np.array_equal(a, b)

    def test_shape_and_finiteness_errors(self):
        model = init_model((1, 4, 1), seed=0)
        cond = identity_cond(3)
        with pytest.raises(ValidationError):
            gcn_forward(model, cond, np.zeros((2, 4)))
        with pytest.raises(NumericError):
            gcn_forward(model, cond, np.array([[np.inf, 0.0, 0.0]]))

    def test_overflow_names_layer(self):
        model = GcnModel((1, 1), (np.array([[1e308]]),))
        with pytest.raises(NumericError, match="layer 1"):
            gcn_forward(model, identity_cond(2), np.array([[1e308, 0.0]]))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(8)
        model = init_model((1, 4, 4, 1), seed=9)
        cond = random_cond(rng, 5)
        h0 = rng.normal(size=(2, 5))
        _, cache = gcn_forward(model, cond, h0)
        grads = gcn_backward(model, cond, cache, np.zeros((2, 5)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.d_weights)
        assert np.array_equal(grads.d_input, np.zeros((2, 5)))

    def test_single_layer_hand_gradients(self):
        model = GcnModel((1, 1), (np.array([[2.0]]),))
        cond = identity_cond(2)
        h0 = np.array([[1.0, -1.0]])
        _, cache = gcn_forward(model, cond, h0)
        grads = gcn_backward(model, cond, cache, np.array([[1.0, 1.0]]))
        # residual identity plus the weight path: 1 + 2
        assert grads.d_input.tolist() == [[3.0, 3.0]]
        # sum over nodes of h0 * upstream: 1*1 + (-1)*1
        assert grads.d_weights[0].tolist() == [[0.0]]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        checked = 0
        # the last ten use a deeper head, to reach the generic path of layers >= 3
        while checked < 20:
            dims = (1, 4, 4, 1) if checked < 10 else (1, 3, 4, 5, 1)
            n = int(rng.integers(2, 7))
            batch = int(rng.integers(1, 4))
            cond = random_cond(rng, n)
            model = init_model(dims, seed=int(rng.integers(0, 2**31)))
            h0 = rng.normal(size=(batch, n))
            coeffs = rng.normal(size=(batch, n))

            refined, cache = gcn_forward(model, cond, h0)
            # FD steps must not flip a LeakyReLU pre-activation sign
            if min(np.abs(z).min() for z in cache.pre_acts) < 5e-3:
                continue
            checked += 1
            grads = gcn_backward(model, cond, cache, coeffs)

            weights = [w.copy() for w in model.weights]

            def functional():
                out, _ = gcn_forward(with_weights(model, weights), cond, h0)
                return float((out * coeffs).sum())

            for layer, analytic in enumerate(grads.d_weights):
                numeric = central_difference(functional, weights[layer], step=1e-3)
                assert gradient_close(analytic, numeric)

            def input_functional():
                out, _ = gcn_forward(model, cond, h0)
                return float((out * coeffs).sum())

            numeric_input = central_difference(input_functional, h0, step=1e-3)
            assert gradient_close(grads.d_input, numeric_input)

    @pytest.mark.parametrize(
        "dims", [(1, 1), (1, 4, 1), (1, 5, 3, 1), (1, 4, 4, 1), (1, 3, 4, 5, 1)], ids=str
    )
    @pytest.mark.parametrize("slope", [0.01, 0.2])
    @pytest.mark.parametrize("final", [False, True])
    def test_matches_dense_oracle(self, dims, slope, final):
        rng = np.random.default_rng(sum(dims) + int(final))
        n, isolated = 6, 4
        probs = random_cond(rng, n).probs.copy()
        probs[isolated, :] = 0.0
        probs[:, isolated] = 0.0
        probs[isolated, isolated] = 1.0
        cond = CondProbMatrix(probs, frozenset())
        h0 = rng.normal(size=(5, n))
        h0[1] = 0.0                     # P @ h0 is 0 on every node
        h0[3, isolated] = 0.0           # and on the isolated node only
        coeffs = rng.normal(size=h0.shape)
        model = init_model(dims, leaky_slope=slope, seed=sum(dims), final_nonlinearity=final)

        refined, cache = gcn_forward(model, cond, h0)
        grads = gcn_backward(model, cond, cache, coeffs)
        want_refined, want_dw, want_input = dense_gcn(
            model.weights, slope, final, propagation_matrix(cond), h0, coeffs
        )

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        assert close(refined, want_refined)
        assert all(close(g, w) for g, w in zip(grads.d_weights, want_dw, strict=True))
        assert close(grads.d_input, want_input)

    def test_cache_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        model = init_model((1, 4, 1), seed=0)
        cond = random_cond(rng, 3)
        _, cache = gcn_forward(model, cond, rng.normal(size=(2, 3)))
        with pytest.raises(ValidationError):
            gcn_backward(model, cond, cache, np.zeros((3, 3)))
        other = init_model((1, 5, 1), seed=0)
        with pytest.raises(ValidationError):
            gcn_backward(other, cond, cache, np.zeros((2, 3)))


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        model = init_model((1, 5, 3, 1), seed=13, leaky_slope=0.2, final_nonlinearity=True)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.leaky_slope == model.leaky_slope
        assert loaded.final_nonlinearity == model.final_nonlinearity
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))

    def test_save_is_deterministic(self, tmp_path):
        model = init_model((1, 4, 1), seed=3)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, first)
        save_model(model, second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something else\n")
        with pytest.raises(ValidationError, match="header"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model((1, 4, 1), seed=3)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValidationError):
            load_model(path)

    @pytest.mark.parametrize("lineno, text, fragment", [
        (2, "layer_dims 1 -4 1", "line 2: layer widths must be positive"),
        (3, "leaky_slope", "line 3: expected 1 values"),
        (3, "leaky_slope 2.0", "leaky_slope must be in"),
        (4, "final_nonlinearity 2", "line 4: expected final_nonlinearity"),
        (5, "weights x 4 1", "line 5: invalid literal"),
        (5, "weights 0 -1 1", "line 5: expected 'weights 0 1 4'"),
        (5, "weights 0 1 5", "line 5: expected 'weights 0 1 4'"),
        (6, "0.5 x 0.5 0.5", "line 6: could not convert"),
    ])
    def test_malformed_model_names_file_and_line(self, tmp_path, lineno, text, fragment):
        path = tmp_path / "model.txt"
        save_model(init_model((1, 4, 1), seed=3), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"model.txt: bad model file: {fragment}"):
            load_model(path)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ValidationError, match="gone.txt"):
            load_model(tmp_path / "gone.txt")
