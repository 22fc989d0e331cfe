import numpy as np
import pytest

from coocrefine import (
    NumericError,
    RaslParams,
    ReweightVector,
    ValidationError,
    rasl_grad,
    rasl_loss,
    sigmoid,
)

from oracles import central_difference, masked_sigmoid


def ones_params(n, **overrides):
    fields = dict(gamma_pos=1.0, gamma_neg=3.0, delta=0.05, eps=1e-8)
    fields.update(overrides)
    return RaslParams(alphas=ReweightVector(np.ones(n), "none"), **fields)


def random_case(rng, batch=4, n=3, scale=3.0):
    logits = rng.normal(size=(batch, n)) * scale
    labels = rng.integers(0, 2, size=(batch, n))
    return logits, labels


class TestSigmoid:
    def test_stable_at_extremes(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        s = sigmoid(x)
        assert np.isfinite(s).all()
        assert s[2] == 0.5
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_bit_identical_to_masked_form(self):
        specials = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 745.0, -745.0, np.inf, -np.inf]
        x = np.concatenate([specials, np.random.default_rng(0).normal(scale=40.0, size=10_000)])
        assert np.array_equal(sigmoid(x).view(np.int64), masked_sigmoid(x).view(np.int64))

    def test_matches_naive_in_moderate_range(self):
        x = np.linspace(-20, 20, 401)
        assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)


class TestRaslLoss:
    def test_hand_computed_positive_element(self):
        params = RaslParams(alphas=ReweightVector(np.array([2.0, 2.0]), "frequency"))
        _, per_element = rasl_loss(np.zeros((1, 2)), np.array([[1, 0]]), params)
        assert per_element[0, 0] == pytest.approx(-2.0 * 0.5 * np.log(0.5), abs=1e-12)

    def test_confident_positive_tends_to_zero(self):
        params = ones_params(2)
        _, per_element = rasl_loss(np.array([[30.0, 30.0]]), np.array([[1, 1]]), params)
        assert np.all(per_element < 1e-8)

    def test_negatives_inside_margin_are_exactly_zero(self):
        params = ones_params(2, delta=0.05)
        # sigmoid(-4) ~ 0.018 < delta
        _, per_element = rasl_loss(np.full((1, 2), -4.0), np.array([[0, 0]]), params)
        assert np.array_equal(per_element, np.zeros((1, 2)))

    def test_every_element_non_negative(self):
        rng = np.random.default_rng(0)
        params = ones_params(5)
        for _ in range(30):
            logits, labels = random_case(rng, batch=6, n=5)
            _, per_element = rasl_loss(logits, labels, params)
            assert (per_element >= 0).all()

    def test_reduces_to_bce(self):
        rng = np.random.default_rng(1)
        params = ones_params(4, gamma_pos=0.0, gamma_neg=0.0, delta=0.0)
        for _ in range(20):
            logits, labels = random_case(rng, n=4)
            total, per_element = rasl_loss(logits, labels, params)
            s = sigmoid(logits)
            bce = -(labels * np.log(s) + (1 - labels) * np.log(1 - s))
            assert np.allclose(per_element, bce, atol=1e-9)
            assert total == pytest.approx(bce.sum(), abs=1e-9)

    def test_monotone_in_logit(self):
        params = ones_params(1)
        grid = np.linspace(-6, 6, 200).reshape(-1, 1)
        pos_losses = rasl_loss(grid, np.ones_like(grid, dtype=int), params)[1].ravel()
        assert np.all(np.diff(pos_losses) < 0)
        above = grid[sigmoid(grid) > 0.05 + 1e-6].reshape(-1, 1)
        neg_losses = rasl_loss(above, np.zeros_like(above, dtype=int), params)[1].ravel()
        assert np.all(np.diff(neg_losses) > 0)

    def test_alpha_scaling_is_exact(self):
        rng = np.random.default_rng(2)
        logits, labels = random_case(rng)
        base = ones_params(3)
        scaled = RaslParams(alphas=ReweightVector(np.full(3, 7.0), "none"))
        assert rasl_loss(logits, labels, scaled)[0] == pytest.approx(
            7.0 * rasl_loss(logits, labels, base)[0], rel=1e-15
        )

    def test_validation(self):
        params = ones_params(2)
        with pytest.raises(NumericError):
            rasl_loss(np.array([[np.nan, 0.0]]), np.array([[0, 1]]), params)
        with pytest.raises(ValidationError):
            rasl_loss(np.zeros((1, 2)), np.array([[0, 2]]), params)
        with pytest.raises(ValidationError):
            rasl_loss(np.zeros((1, 3)), np.zeros((1, 3), dtype=int), params)
        with pytest.raises(ValidationError):
            RaslParams(alphas=ReweightVector(np.ones(2), "none"), delta=1.0)
        with pytest.raises(ValidationError):
            RaslParams(alphas=ReweightVector(np.ones(2), "none"), eps=1e-3)

    @pytest.mark.parametrize("name", ["gamma_pos", "gamma_neg"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_focusing_exponents_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            RaslParams(alphas=ReweightVector(np.ones(2), "none"), **{name: value})


class TestRaslGrad:
    def test_zero_below_margin(self):
        params = ones_params(3)
        grad = rasl_grad(np.full((2, 3), -5.0), np.zeros((2, 3), dtype=int), params)
        assert np.array_equal(grad, np.zeros((2, 3)))

    def test_plain_bce_gradient_for_positives(self):
        params = ones_params(2, gamma_pos=0.0)
        logits = np.array([[0.3, -1.2]])
        grad = rasl_grad(logits, np.array([[1, 1]]), params)
        assert np.allclose(grad, sigmoid(logits) - 1.0, atol=1e-12)

    def test_matches_finite_differences_away_from_kink(self):
        # FD step 1e-3 moves sigmoid by <= 2.5e-4, so keep a generous
        # clearance band around s = delta; the clamp region needs
        # |logit| > 18, far outside the sampled range
        rng = np.random.default_rng(3)
        params = ones_params(4)
        checked = 0
        while checked < 25:
            logits, labels = random_case(rng, batch=3, n=4, scale=4.0)
            s = sigmoid(logits)
            if np.any(np.abs(s - params.delta) < 1e-3):
                continue
            analytic = rasl_grad(logits, labels, params)

            def total():
                return rasl_loss(logits, labels, params)[0]

            numeric = central_difference(total, logits, step=1e-3)
            assert np.all(
                np.abs(analytic - numeric)
                <= np.maximum(1e-5 * np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            )
            checked += 1

    def test_fractional_exponents_near_margin(self):
        params = ones_params(1, gamma_pos=0.5, gamma_neg=0.5)
        just_above = np.log(np.array([[0.0501 / (1 - 0.0501)]]))
        grad = rasl_grad(just_above, np.array([[0]]), params)
        assert np.isfinite(grad).all()

    def test_saturated_positive_keeps_recovery_gradient(self):
        # gradient of the pure formula tends to -alpha, not 0, when a
        # positive saturates at s ~ 0
        alphas = ReweightVector(np.array([1.5, 3.0]), "frequency")
        params = RaslParams(alphas=alphas)
        grad = rasl_grad(np.full((1, 2), -40.0), np.array([[1, 1]]), params)
        assert np.allclose(grad, [[-1.5, -3.0]], atol=1e-12)

    def test_gradient_sign_conventions(self):
        params = ones_params(1)
        pos = rasl_grad(np.array([[0.2]]), np.array([[1]]), params)
        neg = rasl_grad(np.array([[0.2]]), np.array([[0]]), params)
        assert pos[0, 0] < 0 and neg[0, 0] > 0
