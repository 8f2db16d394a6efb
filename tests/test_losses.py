"""BCE loss and L1 penalty: closed-form values, bounds, gradients."""

import numpy as np
import pytest

from latent_guard.nn import bce_loss, bce_loss_and_grad, l1_penalty

from helpers import numeric_grad, assert_grad_close


class TestBceLoss:
    def test_half_everywhere_is_ln2(self):
        p = np.full((3, 4), 0.5)
        np.testing.assert_allclose(bce_loss(p, p), np.log(2.0), rtol=1e-12)

    def test_perfect_binary_prediction_is_near_zero(self):
        t = np.array([0.0, 1.0, 1.0, 0.0])
        loss = bce_loss(t, t)
        assert 0.0 <= loss < 1e-6  # bounded by the 1e-7 clamp

    def test_closed_form_example(self):
        loss = bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss, -np.log(0.9), rtol=1e-12)
        np.testing.assert_allclose(loss, 0.10536, atol=5e-6)

    def test_rejects_out_of_range_predictions(self):
        with pytest.raises(ValueError, match="sigmoid"):
            bce_loss(np.array([1.2]), np.array([1.0]))
        with pytest.raises(ValueError, match="sigmoid"):
            bce_loss(np.array([-0.1]), np.array([0.0]))
        # NaN fails every comparison, so a naive "< 0 or > 1" test lets it by
        with pytest.raises(ValueError, match="sigmoid"):
            bce_loss(np.array([0.5, np.nan]), np.array([1.0, 0.0]))

    def test_binary_target_is_minimized_at_target(self):
        # bce(p, t) >= bce(t, t) for binary t, any p
        rng = np.random.default_rng(0)
        t = (rng.uniform(size=50) > 0.5).astype(float)
        floor = bce_loss(t, t)
        for _ in range(20):
            p = rng.uniform(size=50)
            assert bce_loss(p, t) >= floor

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(size=30)
            t = rng.uniform(size=30)
            assert bce_loss(p, t) >= 0.0

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.05, 0.95, size=12)
        t = rng.uniform(size=12)
        _, grad = bce_loss_and_grad(p, t)
        num = numeric_grad(lambda v: bce_loss(v, t), p.copy())
        assert_grad_close(grad, num, rtol=1e-5)


class TestL1Penalty:
    def test_zero_lambda(self):
        value, grad = l1_penalty(np.array([1.0, -2.0]), 0.0)
        assert value == 0.0
        assert not grad.any()

    def test_arithmetic(self):
        value, _ = l1_penalty(np.array([-2.0, 3.0]), 1e-5)
        np.testing.assert_allclose(value, 5e-5, rtol=1e-12)

    def test_sign_of_zero_is_zero(self):
        _, grad = l1_penalty(np.array([0.0, -1.0, 2.0]), 1.0)
        np.testing.assert_array_equal(grad, [0.0, -1.0, 1.0])

    def test_grad_matches_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(15)
        a[np.abs(a) < 0.1] += 0.2  # keep clear of the kink
        lam = 1e-5
        _, grad = l1_penalty(a, lam)
        num = numeric_grad(lambda v: l1_penalty(v, lam)[0], a.copy())
        assert_grad_close(grad, num, rtol=1e-4, atol=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            l1_penalty(np.zeros(3), -1.0)
