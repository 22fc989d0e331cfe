import math

import numpy as np
import pytest

from coocrefine import (
    GcnModel,
    LabelMatrix,
    LogitMatrix,
    NumericError,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    cosine_lr,
    init_model,
    sgd_step,
    synth_generate,
    train,
)
from coocrefine.gcn import GcnGradients


def tiny_dataset(seed=0, n=32, n_classes=4):
    spec = SyntheticSpec(
        n_classes=n_classes,
        n_samples=n,
        clusters=((0, 1),),
        within_cluster_prob=0.9,
        base_prob=0.4,
        signal_strength=(0.2, 1.5, 1.5, 0.2),
        noise_std=1.0,
        seed=seed,
    )
    return synth_generate(spec)


class TestCosineSchedule:
    def test_starts_at_lr0(self):
        assert cosine_lr(0.002, 0, 50) == 0.002

    def test_ends_at_zero(self):
        assert cosine_lr(0.002, 50, 50) == pytest.approx(0.0, abs=1e-18)

    def test_halfway_is_half(self):
        assert cosine_lr(0.002, 25, 50) == pytest.approx(0.001, abs=1e-12)

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValidationError):
            cosine_lr(0.002, 51, 50)

    def test_non_increasing_over_fifty_epochs(self):
        values = [cosine_lr(0.002, e, 50) for e in range(51)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestSgdStep:
    def test_plain_step(self):
        model = init_model((1, 3, 1), seed=0)
        grads = GcnGradients(
            tuple(np.ones_like(w) for w in model.weights), lambda: np.zeros((1, 2))
        )
        updated, _ = sgd_step(model, grads, lr=1.0, momentum=0.0)
        for before, after in zip(model.weights, updated.weights):
            assert np.allclose(after, before - 1.0)

    def test_zero_lr_is_identity(self):
        model = init_model((1, 3, 1), seed=0)
        grads = GcnGradients(
            tuple(np.ones_like(w) for w in model.weights), lambda: np.zeros((1, 2))
        )
        updated, _ = sgd_step(model, grads, lr=0.0, momentum=0.0)
        for before, after in zip(model.weights, updated.weights):
            assert np.array_equal(after, before)

    def test_non_finite_update_raises(self):
        model = init_model((1, 3, 1), seed=0)
        grads = GcnGradients(
            tuple(np.full_like(w, 1e300) for w in model.weights), lambda: np.zeros((1, 2))
        )
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="training diverged"):
            sgd_step(model, grads, lr=1e10)

    def test_shape_mismatch_raises(self):
        model = init_model((1, 3, 1), seed=0)
        grads = GcnGradients((np.ones((1, 3)), np.ones((1, 3))), lambda: np.zeros((1, 2)))
        with pytest.raises(ValidationError, match="shape"):
            sgd_step(model, grads, lr=1.0)

    def test_returns_a_new_model_with_read_only_weights(self):
        model = init_model((1, 3, 1), seed=0)
        grads = GcnGradients(tuple(np.ones_like(w) for w in model.weights), lambda: np.zeros((1, 2)))
        updated, _ = sgd_step(model, grads, lr=0.5, momentum=0.9)
        assert updated is not model and updated.layer_dims == model.layer_dims
        for w in updated.weights:
            assert w.dtype == np.float64 and w.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 0.0

    def test_new_model_builds_its_own_tables(self):
        model = init_model((1, 4, 4, 1), seed=0)
        parent = model.first_layer, model.sectors
        grads = GcnGradients(tuple(np.ones_like(w) for w in model.weights), lambda: np.zeros((1, 2)))
        updated, _ = sgd_step(model, grads, lr=0.5)
        fresh = GcnModel(updated.layer_dims, updated.weights, updated.leaky_slope)
        assert updated.first_layer is not parent[0] and updated.sectors is not parent[1]
        for got, want in zip(updated.first_layer, fresh.first_layer, strict=True):
            assert np.array_equal(got, want)
        for field in ("factors", "breaks", "slopes", "coeffs"):
            assert np.array_equal(getattr(updated.sectors, field), getattr(fresh.sectors, field))

    def test_momentum_unrolls_to_expected_displacement(self):
        model = init_model((1, 1), seed=0)
        start = model.weights[0].copy()
        grads = GcnGradients((np.ones((1, 1)),), lambda: np.zeros((1, 2)))
        model, velocity = sgd_step(model, grads, lr=1.0, momentum=0.9)
        model, velocity = sgd_step(model, grads, lr=1.0, momentum=0.9, velocity=velocity)
        # v1 = 1, v2 = 0.9 + 1 -> total displacement 2.9
        assert model.weights[0][0, 0] == pytest.approx(start[0, 0] - 2.9, abs=1e-12)


class TestTrain:
    def test_vanishing_lr_returns_initialization(self):
        # updates of 1e-300 * grad are absorbed below one ulp of every
        # weight, so the returned model is bit-identical to the init
        labels, logits = tiny_dataset()
        config = TrainConfig(epochs=1, lr0=1e-300, batch_size=8, seed=3, gcn_dims=(1, 4, 1))
        model, _, _, history = train(labels, logits, config)
        reference = init_model((1, 4, 1), seed=3)
        for trained, fresh in zip(model.weights, reference.weights):
            assert np.array_equal(trained, fresh)
        assert len(history) == 1

    def test_deterministic(self):
        labels, logits = tiny_dataset()
        config = TrainConfig(epochs=3, batch_size=8, seed=5, gcn_dims=(1, 8, 1))
        first, _, _, hist_a = train(labels, logits, config)
        second, _, _, hist_b = train(labels, logits, config)
        assert all(np.array_equal(a, b) for a, b in zip(first.weights, second.weights))
        assert hist_a == hist_b

    def test_loss_decreases_on_tiny_dataset(self):
        labels, logits = tiny_dataset(seed=1)
        config = TrainConfig(epochs=10, batch_size=8, seed=1, gcn_dims=(1, 8, 1))
        _, _, _, history = train(labels, logits, config)
        losses = [r.mean_loss for r in history]
        assert losses[9] < losses[0]

    def test_lr_follows_schedule_exactly(self):
        labels, logits = tiny_dataset()
        config = TrainConfig(epochs=4, batch_size=8, seed=2, gcn_dims=(1, 4, 1))
        _, _, _, history = train(labels, logits, config)
        for record in history:
            assert record.lr == cosine_lr(config.lr0, record.epoch, config.epochs)
            assert record.val_map is None

    def test_none_mode_equals_uniform_weights(self):
        labels, logits = tiny_dataset(seed=4)
        config = TrainConfig(reweight_mode="none", epochs=3, batch_size=8, seed=7,
                             gcn_dims=(1, 6, 1))
        _, none_weights, _, _ = train(labels, logits, config)
        assert np.array_equal(none_weights.alphas, np.ones(4))

    def test_frequency_alphas_are_unit_mean(self):
        labels, logits = tiny_dataset(seed=6)
        config = TrainConfig(epochs=1, batch_size=8, seed=0, gcn_dims=(1, 4, 1))
        _, weights, _, _ = train(labels, logits, config)
        assert weights.mode == "frequency"
        assert weights.alphas.mean() == pytest.approx(1.0, abs=1e-12)

    def test_validation_map_recorded(self):
        labels, logits = tiny_dataset(seed=8, n=48)
        from coocrefine import split

        (tl, tg), (vl, vg) = split(labels, logits, 0.75, seed=0)
        config = TrainConfig(epochs=2, batch_size=8, seed=0, gcn_dims=(1, 4, 1))
        _, _, _, history = train(tl, tg, config, validation=(vl, vg))
        for record in history:
            assert record.val_map is not None and 0.0 <= record.val_map <= 1.0

    def test_divergence_guard_raises(self):
        labels, logits = tiny_dataset(seed=9)
        config = TrainConfig(epochs=5, lr0=1e160, batch_size=8, seed=0, gcn_dims=(1, 4, 1))
        with pytest.raises(NumericError):
            train(labels, logits, config)

    def test_shape_mismatch_rejected(self):
        labels, logits = tiny_dataset()
        bad = LogitMatrix(np.zeros((labels.n_samples, labels.n_classes + 1)))
        with pytest.raises(ValidationError):
            train(labels, bad, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("fields, message", [
        ({"lr0": float("inf")}, "lr0 must be positive and finite"),
        ({"lr0": float("nan")}, "lr0 must be positive and finite"),
        ({"gcn_dims": (1, -3, 1)}, "gcn_dims: layer widths must be positive"),
        ({"gcn_dims": (1, 4, 2)}, "gcn_dims: first and last layer widths must be 1"),
        ({"gcn_dims": (1,)}, "gcn_dims: need at least one layer"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
    ])
    def test_config_names_the_bad_setting(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            TrainConfig(**fields)


def test_history_loss_values_are_finite():
    labels, logits = tiny_dataset(seed=10)
    config = TrainConfig(epochs=3, batch_size=8, seed=1, gcn_dims=(1, 4, 1))
    _, _, _, history = train(labels, logits, config)
    assert all(math.isfinite(r.mean_loss) for r in history)
