from dataclasses import replace

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
from coocrefine import gcn
from coocrefine.gcn import GcnGradients, HeadSectors, _sector_ids

from oracles import central_difference, dense_gcn, gradient_close, stacked_sector_table


def random_cond(rng, n):
    probs = rng.random((n, n)) * 0.8
    np.fill_diagonal(probs, 1.0)
    return CondProbMatrix(probs)


def identity_cond(n):
    return CondProbMatrix(np.eye(n))


def close(got, want):
    """Equal to 1e-12 of ``want``'s largest magnitude."""
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def assert_matches_oracle(model, cond, h0, coeffs):
    refined, cache = gcn_forward(model, cond, h0)
    grads = gcn_backward(cache, coeffs)
    want_refined, want_dw, want_input, _ = dense_gcn(
        model.weights, model.leaky_slope, model.final_nonlinearity,
        cond.propagation, h0, coeffs,
    )
    assert close(refined, want_refined)
    assert all(close(g, w) for g, w in zip(grads.d_weights, want_dw, strict=True))
    assert close(grads.d_input, want_input)
    return cache


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

    @pytest.mark.parametrize("dims", [(1, -1, 1), (1, -3, 1), (1, 0, 1), (1,)], ids=str)
    def test_width_rule_checked_before_any_draw(self, dims):
        with pytest.raises(ValidationError):
            init_model(dims, seed=0)

    def test_end_widths_must_be_one(self):
        with pytest.raises(ValidationError):
            init_model((2, 4, 1), seed=0)
        with pytest.raises(ValidationError):
            init_model((1, 4, 3), seed=0)


@pytest.mark.parametrize("make", [
    lambda: init_model((1, 4, 1), 0.01, 0, False),
    lambda: identity_cond(3),
], ids=["GcnModel", "CondProbMatrix"])
def test_equality_and_hash_are_identity(make):
    # a forward cache binds its model and prior by identity; == and hash() agree
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestPropagationMatrix:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        prop = random_cond(rng, 6).propagation
        assert np.allclose(prop.sum(axis=1), 1.0)

    def test_identity_rows_preserved(self):
        cond = CondProbMatrix(np.eye(4))
        assert np.array_equal(cond.propagation, np.eye(4))

    def test_computed_once_and_read_only(self):
        cond = random_cond(np.random.default_rng(2), 5)
        prop = cond.propagation
        assert cond.propagation is prop
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
        zero = replace(model, weights=[np.zeros_like(w) for w in model.weights])
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
        cond = CondProbMatrix(probs)
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
        grads = gcn_backward(cache, np.zeros((2, 5)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.d_weights)
        assert np.array_equal(grads.d_input, np.zeros((2, 5)))

    def test_single_layer_hand_gradients(self):
        model = GcnModel((1, 1), (np.array([[2.0]]),))
        cond = identity_cond(2)
        h0 = np.array([[1.0, -1.0]])
        _, cache = gcn_forward(model, cond, h0)
        grads = gcn_backward(cache, np.array([[1.0, 1.0]]))
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
            *_, pre_acts = dense_gcn(model.weights, model.leaky_slope, model.final_nonlinearity,
                                     cond.propagation, h0, coeffs)
            if min(np.abs(z).min() for z in pre_acts) < 5e-3:
                continue
            checked += 1
            grads = gcn_backward(cache, coeffs)

            weights = [w.copy() for w in model.weights]

            def functional():
                out, _ = gcn_forward(replace(model, weights=weights), cond, h0)
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
        cond = CondProbMatrix(probs)
        h0 = rng.normal(size=(5, n))
        h0[1] = 0.0                     # P @ h0 is 0 on every node
        h0[3, isolated] = 0.0           # and on the isolated node only
        coeffs = rng.normal(size=h0.shape)
        model = init_model(dims, leaky_slope=slope, seed=sum(dims), final_nonlinearity=final)
        assert_matches_oracle(model, cond, h0, coeffs)

    def test_cache_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        model = init_model((1, 4, 1), seed=0)
        cond = random_cond(rng, 3)
        _, cache = gcn_forward(model, cond, rng.normal(size=(2, 3)))
        with pytest.raises(ValidationError, match="does not match"):
            gcn_backward(cache, np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="gcn_forward"):
            gcn_backward((model, cond), np.zeros((2, 3)))


class TestSectorForm:
    """The three-weight-layer head's piecewise-linear form."""

    @pytest.mark.parametrize("final", [False, True])
    def test_exact_tie_takes_slope_one(self, final):
        # P = [[1, 0], [.5, .5]] and h0 = (2, -4) give a = (2, -1), so node 1
        # has q+ = 1, q- = -0.5 and t = 2/3. With w1 = (1, -1) and slope 0.5,
        # units 0 and 1 have (A, B) = (1, 2) and (-1, -2): both break at
        # t = 2/3, rising and falling, and their pre-activation there is 0.
        cond = CondProbMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        weights = (
            np.array([[1.0, -1.0]]),
            np.array([[0.0, 0.0, 0.75], [-2.0, 2.0, 0.25]]),
            np.array([[1.0], [-0.5], [-1.5]]),
        )
        model = GcnModel((1, 2, 3, 1), weights, leaky_slope=0.5, final_nonlinearity=final)
        h0 = np.array([[2.0, -4.0], [-1.0, 3.0]])
        coeffs = np.array([[0.5, -2.0], [1.5, 1.0]])
        cache = assert_matches_oracle(model, cond, h0, coeffs)
        *_, pre_acts = dense_gcn(weights, 0.5, final, cond.propagation, h0, coeffs)
        assert pre_acts[1][0, 1, :2].tolist() == [0.0, 0.0]
        tie = cache.sector_ids[1, 0]
        assert model.sectors.breaks[(tie - 1) // 2] == 2.0 / 3.0
        assert model.sectors.slopes[tie, :2].tolist() == [1.0, 1.0]
        # either neighbouring sector gives one of the two units slope 0.5
        assert 0.5 in model.sectors.slopes[tie - 1, :2]
        assert 0.5 in model.sectors.slopes[tie + 1, :2]

    @pytest.mark.parametrize("slope", [0.01, 0.2])
    @pytest.mark.parametrize("final", [False, True])
    def test_default_width_matches_dense_oracle(self, slope, final):
        rng = np.random.default_rng(int(100 * slope) + final)
        n = 30
        probs = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(probs, 1.0)
        cond = CondProbMatrix(probs)
        h0 = rng.normal(size=(6, n))
        h0[2] = 0.0                     # every node in the q+ = q- = 0 sector
        h0[4, h0[4] < 0] = 0.0          # no negative evidence: t == 1
        model = init_model((1, 64, 64, 1), leaky_slope=slope, seed=n, final_nonlinearity=final)
        cache = assert_matches_oracle(model, cond, h0, rng.normal(size=h0.shape))
        zero_sector = len(model.sectors.coeffs) - 1
        assert (cache.sector_ids[:, 2] == zero_sector).all()
        assert (cache.sector_ids[:, [0, 1, 3, 5]] < zero_sector).all()

    def test_cache_holds_no_wide_array(self):
        rng = np.random.default_rng(12)
        n, batch = 80, 32
        model = init_model((1, 64, 64, 1), seed=12)
        _, cache = gcn_forward(model, random_cond(rng, n), rng.normal(size=(batch, n)))
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        arrays += list(vars(model.sectors).values())
        assert len(arrays) == 9
        assert max(x.size for x in arrays) <= 3 * batch * n

    # the first case overflows the sector table, the third the bound on |Z_2|
    @pytest.mark.parametrize("scale, layer", [
        ((1e200, 1e200, 1.0), 2), ((1.0, 1.0, 1e308), 3), ((1.0, 1e299, 1.0), 2),
    ])
    def test_overflow_names_layer(self, scale, layer):
        model = init_model((1, 4, 4, 1), seed=0)
        big = replace(model, weights=[w * s for w, s in zip(model.weights, scale)])
        with pytest.raises(NumericError, match=f"layer {layer}"):
            gcn_forward(big, identity_cond(3), np.array([[1e10, -1e10, 1.0]]))

    def test_table_matches_stacked_build(self):
        rng = np.random.default_rng(16)
        ties = zero_totals = 0
        for i in range(50):
            d = int(rng.integers(2, 17))
            if i % 2:
                # small integers and a dyadic slope: exact ties, t of exactly 0
                # or 1, and units with A + B == 0
                slope = float(rng.choice([0.125, 0.25, 0.5]))
                weights = [rng.integers(-2, 3, shape).astype(float)
                           for shape in ((1, d), (d, d), (d, 1))]
            else:
                slope = float(rng.uniform(0.01, 0.5))
                weights = init_model((1, d, d, 1), seed=i).weights
            model = GcnModel((1, d, d, 1), tuple(weights), slope)
            want = stacked_sector_table(model.weights, slope)
            got = model.sectors
            for field, value in zip(("factors", "breaks", "slopes", "coeffs"), want):
                assert np.array_equal(getattr(got, field), value), (i, field)
            total = want[0][0] + want[0][1]
            t = want[0][1][total != 0] / total[total != 0]
            ties += np.unique(t[(0 <= t) & (t <= 1)]).size < ((0 <= t) & (t <= 1)).sum()
            zero_totals += (total == 0).any()
        assert ties and zero_totals

    def test_model_builds_its_table_once(self, monkeypatch):
        rng = np.random.default_rng(18)
        cond, model = random_cond(rng, 5), init_model((1, 8, 8, 1), seed=18)
        built = []
        monkeypatch.setattr(gcn, "HeadSectors", lambda *a: built.append(a) or HeadSectors(*a))
        for _ in range(2):
            _, cache = gcn_forward(model, cond, rng.normal(size=(3, 5)))
            gcn_backward(cache, rng.normal(size=(3, 5)))
        assert len(built) == 1
        assert model.sectors is model.sectors

    def test_table_needs_three_weight_layers(self):
        with pytest.raises(ValidationError, match="3 weight layers"):
            init_model((1, 3, 4, 5, 1), seed=0).sectors

    def test_sector_ids_match_searchsorted(self):
        rng = np.random.default_rng(13)
        breaks = np.unique(np.concatenate([rng.random(40), [0.0, 1.0, 0.5, 3 / 1024]]))
        near = np.concatenate([np.nextafter(breaks, -1.0), np.nextafter(breaks, 2.0)])
        edges = np.arange(1025) / 1024
        t = np.clip(np.concatenate([breaks, near, edges, rng.random(500)]), 0.0, 1.0)
        want = np.searchsorted(breaks, t) + np.searchsorted(breaks, t, "right")
        assert np.array_equal(_sector_ids(breaks, t), want)
        assert np.array_equal(_sector_ids(breaks[:0], t), np.zeros(t.size, np.intp))


class TestGradients:
    def test_non_finite_input_gradient_raises_on_first_read(self):
        nan = GcnGradients((np.ones((1, 1)),), lambda: np.array([[1.0, np.nan]]))
        inf = GcnGradients((np.ones((1, 1)),), lambda: np.array([[np.inf]]))
        for grads in (nan, inf):
            with pytest.raises(NumericError, match="input gradient"):
                grads.d_input

    def test_non_finite_weight_gradient_raises_at_once(self):
        with pytest.raises(NumericError, match="weight gradient"):
            GcnGradients((np.array([[np.nan]]),), lambda: np.zeros((1, 2)))

    @pytest.mark.parametrize("dims", [(1, 4, 4, 1), (1, 3, 4, 5, 1)], ids=str)
    def test_backward_computes_input_gradient_once_when_read(self, dims):
        rng = np.random.default_rng(17)
        cond, model = random_cond(rng, 4), init_model(dims, seed=4)
        _, cache = gcn_forward(model, cond, rng.normal(size=(3, 4)))
        grads = gcn_backward(cache, rng.normal(size=(3, 4)))
        assert "d_input" not in vars(grads)
        assert grads.d_input is grads.d_input
        assert grads.d_input.shape == (3, 4)


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

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_load_alike(self, tmp_path, end):
        model = init_model((1, 5, 3, 1), seed=13, leaky_slope=0.2, final_nonlinearity=True)
        path = tmp_path / "model.txt"
        save_model(model, path)
        other = tmp_path / "other.txt"
        other.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        lf, loaded = load_model(path), load_model(other)
        assert (loaded.layer_dims, loaded.leaky_slope, loaded.final_nonlinearity) == (
            lf.layer_dims, lf.leaky_slope, lf.final_nonlinearity)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, lf.weights))

    @pytest.mark.parametrize("lineno, text", [
        (3, "leaky_slope"), (5, "weights 0 1 5"), (6, "0.5 x 0.5 0.5"), (12, "0.5"),
    ])
    def test_malformed_crlf_model_names_the_line_of_its_lf_copy(self, tmp_path, lineno, text):
        path = tmp_path / "model.txt"
        save_model(init_model((1, 4, 1), seed=3), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1:lineno] = [text]
        messages = []
        for end in ("\n", "\r\n"):
            path.write_bytes((end.join(lines) + end).encode())
            with pytest.raises(ValidationError, match=f"line {lineno}: ") as info:
                load_model(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("space", ["\x0c", "\x85"], ids=["ff", "nel"])
    def test_space_that_ends_no_line_loads_as_its_lf_copy(self, tmp_path, space):
        path = tmp_path / "model.txt"
        save_model(init_model((1, 4, 1), seed=3), path)
        lf = load_model(path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(" ", space, 1)     # between two weights of layer 1
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_model(path)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, lf.weights))

    @pytest.mark.parametrize("space", ["\x0c", "\x85"], ids=["ff", "nel"])
    @pytest.mark.parametrize("lineno, text", [(7, "weights 1 4 2"), (12, "0.5")])
    def test_malformed_model_with_a_space_that_ends_no_line_names_the_line_of_its_lf_copy(
        self, tmp_path, space, lineno, text
    ):
        path = tmp_path / "model.txt"
        save_model(init_model((1, 4, 1), seed=3), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1:lineno] = [text]
        messages = []
        for row in (lines[5], lines[5].replace(" ", space, 1)):
            path.write_text("\n".join([*lines[:5], row, *lines[6:]]) + "\n", encoding="utf-8")
            with pytest.raises(ValidationError, match=f"line {lineno}: ") as info:
                load_model(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

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
        (6, "0.5 nan 0.5 0.5", "layer 1 weights contain non-finite values"),
        (3, "slope 0.01", "line 3: expected leaky_slope"),
        (12, "0.5", "line 12: trailing content after weight blocks"),
    ])
    def test_malformed_model_names_file_and_line(self, tmp_path, lineno, text, fragment):
        path = tmp_path / "model.txt"
        save_model(init_model((1, 4, 1), seed=3), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1:lineno] = [text]         # a line past the end is appended
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"model.txt: bad model file: {fragment}"):
            load_model(path)

    def test_model_file_widths_follow_the_width_rule(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("coocrefine-gcn v1\nlayer_dims 2 1\n")
        with pytest.raises(ValidationError, match="model.txt: bad model file: line 2: first and last"):
            load_model(path)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ValidationError, match="gone.txt"):
            load_model(tmp_path / "gone.txt")
