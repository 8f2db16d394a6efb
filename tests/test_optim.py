"""Adadelta: reference recurrence, scalar oracle, no-op and decay behavior."""

import numpy as np
import pytest

from latent_guard.nn import Adadelta


def scalar_adadelta_oracle(grads, rho=0.95, eps=1e-6):
    """Reference recurrence run step by step on python floats."""
    eg, ed, x = 0.0, 0.0, 0.0
    xs, deltas = [], []
    for g in grads:
        eg = rho * eg + (1 - rho) * g * g
        delta = -np.sqrt((ed + eps) / (eg + eps)) * g
        ed = rho * ed + (1 - rho) * delta * delta
        x += delta
        xs.append(x)
        deltas.append(delta)
    return xs, deltas


def reference_adadelta_step(param, grad, acc_grad_sq, acc_delta_sq, rho=0.95, eps=1e-6):
    """The recurrence as a free function, statement for statement; every
    array is updated in place."""
    acc_grad_sq *= rho
    acc_grad_sq += (1.0 - rho) * grad * grad
    delta = -np.sqrt((acc_delta_sq + eps) / (acc_grad_sq + eps)) * grad
    acc_delta_sq *= rho
    acc_delta_sq += (1.0 - rho) * delta * delta
    param += 1.0 * delta


class TestAdadeltaStep:
    def test_bit_identical_to_reference_recurrence(self):
        rng = np.random.default_rng(42)
        shapes = [tuple(rng.integers(1, 6, size=rng.integers(1, 4))) for _ in range(4)]
        params = {f"p{i}": rng.standard_normal(shape) for i, shape in enumerate(shapes)}
        ref = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p))
               for name, p in params.items()}
        opt = Adadelta(params)
        for _ in range(20):
            grads = {}
            for name, p in params.items():
                g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 3)
                g[rng.random(p.shape) < 0.2] = 0.0  # zeros among both signs
                grads[name] = g
            opt.step(grads)
            for name, (ref_p, ref_eg, ref_ed) in ref.items():
                reference_adadelta_step(ref_p, grads[name], ref_eg, ref_ed)
        for name, (ref_p, ref_eg, ref_ed) in ref.items():
            np.testing.assert_array_equal(params[name], ref_p)
            np.testing.assert_array_equal(opt.acc_grad_sq[name], ref_eg)
            np.testing.assert_array_equal(opt.acc_delta_sq[name], ref_ed)

    def test_zero_gradient_is_noop(self):
        param = np.array([1.0, -2.0, 3.0])
        opt = Adadelta({"p": param})
        opt.step({"p": np.zeros(3)})
        np.testing.assert_array_equal(param, [1.0, -2.0, 3.0])
        assert not opt.acc_grad_sq["p"].any() and not opt.acc_delta_sq["p"].any()

    def test_first_step_closed_form(self):
        g = 0.7
        param = np.array([0.0])
        Adadelta({"p": param}).step({"p": np.array([g])})
        expected = -np.sqrt(1e-6 / (0.05 * g * g + 1e-6)) * g
        np.testing.assert_allclose(param[0], expected, rtol=1e-12)

    def test_matches_scalar_oracle_over_ten_steps(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(10)
        xs, _ = scalar_adadelta_oracle(grads)
        param = np.array([0.0])
        opt = Adadelta({"p": param})
        for g, expected in zip(grads, xs):
            opt.step({"p": np.array([g])})
            np.testing.assert_allclose(param[0], expected, rtol=1e-12)

    def test_constant_gradient_follows_oracle_and_never_flips_sign(self):
        # the recurrence grows |dx| from zero accumulators toward |g|;
        # the oracle-derived magnitudes are the source of truth here
        _, deltas = scalar_adadelta_oracle([0.5] * 10)
        assert all(d < 0 for d in deltas)
        assert np.all(np.diff(np.abs(deltas)) > 0)
        param = np.array([0.0])
        opt = Adadelta({"p": param})
        for expected_delta in deltas:
            before = param[0]
            opt.step({"p": np.array([0.5])})
            np.testing.assert_allclose(param[0] - before, expected_delta, rtol=1e-12)

    def test_accumulators_stay_nonnegative_and_decay(self):
        opt = Adadelta({"p": np.array([0.0])})
        opt.step({"p": np.array([1.0])})
        high = opt.acc_grad_sq["p"].copy()
        for _ in range(50):
            opt.step({"p": np.array([0.0])})
        assert opt.acc_grad_sq["p"][0] < high[0] * 0.1
        assert opt.acc_grad_sq["p"][0] >= 0 and opt.acc_delta_sq["p"][0] >= 0

    def test_non_finite_gradient_aborts(self):
        opt = Adadelta({"encoder.0.weight": np.array([0.0])})
        with pytest.raises(FloatingPointError, match="non-finite.*encoder.0.weight"):
            opt.step({"encoder.0.weight": np.array([np.nan])})

    def test_shape_mismatch(self):
        opt = Adadelta({"p": np.zeros(3)})
        with pytest.raises(ValueError, match="shape"):
            opt.step({"p": np.zeros(4)})


class TestAdadeltaOptimizer:
    def test_updates_params_in_place(self):
        params = {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}
        w_ref = params["w"]
        opt = Adadelta(params)
        opt.step({"w": np.array([0.1, -0.1]), "b": np.array([1.0])})
        assert params["w"] is w_ref
        assert w_ref[0] != 1.0 and params["b"][0] != 0.5

    def test_zero_grads_leave_everything_unchanged(self):
        params = {"w": np.array([1.0, 2.0])}
        opt = Adadelta(params)
        opt.step({"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])
