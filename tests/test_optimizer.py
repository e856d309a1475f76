import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pseudograd.model import Architecture, ModelParams, init_params
from pseudograd.numerics import InvalidInputError, softmax_rows
from pseudograd.optimizer import (
    OptState,
    decay_lr,
    init_opt_state,
    pseudo_step,
    sgd_nesterov_step,
)
from pseudograd.pseudo_labels import PseudoTable


def _grads_like(params, fill=0.0):
    return ModelParams(params.arch, np.full_like(params.flat, fill))


class TestNesterovStep:
    def test_zero_gradients_no_motion(self):
        params = init_params(Architecture(3, (4,), 2), seed=0)
        before = params.flat.copy()
        state = init_opt_state(params, lr=0.1)
        sgd_nesterov_step(params, _grads_like(params), state)
        np.testing.assert_array_equal(params.flat, before)

    def test_reduces_to_plain_sgd(self):
        params = init_params(Architecture(3, (), 2), seed=1)
        before = params.head_w.copy()
        g = _grads_like(params, fill=0.5)
        state = init_opt_state(params, lr=0.2)
        state.momentum = 0.0
        sgd_nesterov_step(params, g, state)
        np.testing.assert_allclose(params.head_w, before - 0.2 * 0.5, atol=1e-15)

    def test_quadratic_trajectory_matches_reference(self):
        # loss 0.5*theta^2, grad = theta; reference recurrence written out below
        arch = Architecture(1, (), 2)
        params = init_params(arch, seed=0)
        params.head_w[...] = np.array([[1.0, 1.0]])
        state = init_opt_state(params, lr=0.1)

        theta_ref, v_ref = 1.0, 0.0
        for _ in range(25):
            grads = _grads_like(params)
            grads.head_w[...] = params.head_w
            sgd_nesterov_step(params, grads, state)
            # reference: v <- mu*v - lr*g; theta <- theta + mu*v - lr*g
            g = theta_ref
            v_ref = 0.9 * v_ref - 0.1 * g
            theta_ref = theta_ref + 0.9 * v_ref - 0.1 * g
            np.testing.assert_allclose(params.head_w[0, 0], theta_ref, atol=1e-14)

    def test_in_place_step_has_the_reference_bits(self):
        # the recurrence as written with a new array per term
        params = init_params(Architecture(3, (4, 5), 2), seed=3)
        state = init_opt_state(params, lr=0.05, weight_decay=0.01)
        theta, v = params.flat.copy(), np.zeros_like(params.flat)
        rng = np.random.default_rng(3)
        for _ in range(20):
            grads = ModelParams(params.arch, rng.normal(size=params.flat.size))
            g_eff = grads.flat + state.decay * theta
            v = 0.9 * v - 0.05 * g_eff
            theta = theta + (0.9 * v - 0.05 * g_eff)
            sgd_nesterov_step(params, grads, state)
            np.testing.assert_array_equal(params.flat, theta)
            np.testing.assert_array_equal(state.velocity, v)

    def test_weight_decay_skips_biases(self):
        params = init_params(Architecture(3, (4, 5), 2), seed=2)
        params.layer_biases[0][...] = 1.0
        params.layer_biases[1][...] = 1.0
        state = init_opt_state(params, lr=0.5, weight_decay=0.1)
        state.momentum = 0.0
        w_before = params.head_w.copy()
        sgd_nesterov_step(params, _grads_like(params), state)
        np.testing.assert_array_equal(params.layer_biases[0], np.ones(4))
        np.testing.assert_array_equal(params.layer_biases[1], np.ones(5))
        np.testing.assert_allclose(params.head_w, w_before * (1 - 0.5 * 0.1), atol=1e-15)

    def test_shape_mismatch_rejected(self):
        params = init_params(Architecture(3, (), 2), seed=0)
        grads = _grads_like(init_params(Architecture(2, (), 2), seed=0))
        state = init_opt_state(params, lr=0.1)
        with pytest.raises(InvalidInputError):
            sgd_nesterov_step(params, grads, state)


class TestPseudoStep:
    def test_fixed_point_unchanged(self):
        table = PseudoTable(np.array([[1.0, -1.0]]), np.array([False]), np.array([0.0]))
        pseudo_step(table, np.zeros((1, 2)), 4000.0, [0])
        np.testing.assert_array_equal(table.logits, [[1.0, -1.0]])

    def test_saturated_reference_update(self):
        # y~=[0,0], p_hat -> [1,0], lambda=4000, alpha=0.1:
        # grad = 0.1*([0.5,0.5]-[1,0]) = [-0.05,+0.05]; step -> [200,-200]
        table = PseudoTable(np.zeros((1, 2)), np.array([False]), np.array([0.0]))
        p_hat = softmax_rows(np.array([[300.0, 0.0]]))
        grad = 0.1 * (softmax_rows(table.logits) - p_hat)
        pseudo_step(table, grad, 4000.0, [0])
        np.testing.assert_allclose(table.logits[0], [200.0, -200.0], atol=1e-9)

    def test_row_sum_conserved_per_step(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 3))
        table = PseudoTable(logits.copy(), np.zeros(5, bool), logits.sum(axis=1))
        p_hat = np.exp(rng.normal(size=(5, 3)))
        p_hat /= p_hat.sum(axis=1, keepdims=True)
        grads = 0.1 * (np.exp(logits) / np.exp(logits).sum(1, keepdims=True) - p_hat)
        pseudo_step(table, grads, 4000.0, np.arange(5))
        assert table.sum_drift().max() < 1e-12

    def test_frozen_rows_ignored(self):
        table = PseudoTable(
            np.array([[5.0, 0.0], [0.0, 5.0]]),
            np.array([True, False]),
            np.array([5.0, 5.0]),
        )
        pseudo_step(table, np.ones((2, 2)), 1.0, [0, 1])
        np.testing.assert_array_equal(table.logits[0], [5.0, 0.0])
        np.testing.assert_array_equal(table.logits[1], [-1.0, 4.0])

    def test_subset_rows(self):
        table = PseudoTable(np.zeros((4, 2)), np.zeros(4, bool), np.zeros(4))
        pseudo_step(table, np.ones((2, 2)), 0.5, [1, 3])
        np.testing.assert_array_equal(table.logits[0], [0.0, 0.0])
        np.testing.assert_array_equal(table.logits[1], [-0.5, -0.5])
        np.testing.assert_array_equal(table.logits[3], [-0.5, -0.5])

    @given(data=st.data(), n=st.integers(1, 5), k=st.integers(2, 4), lam=st.floats(0.1, 10.0))
    def test_repeated_rows_move_by_their_summed_gradients(self, data, n, k, lam):
        # n + 1 or more rows drawn from n repeat at least one
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n + 1,
                                           max_size=3 * n)))
        frozen = data.draw(arrays(bool, n))
        grads = data.draw(arrays(np.float64, (rows.size, k), elements=st.floats(-1.0, 1.0)))
        logits = data.draw(arrays(np.float64, (n, k), elements=st.floats(-5.0, 5.0)))
        table = PseudoTable(logits.copy(), frozen, logits.sum(axis=1))
        expected = logits.copy()
        for row, grad in zip(rows, grads):
            if not frozen[row]:
                expected[row] -= lam * grad
        pseudo_step(table, grads, lam, rows)
        np.testing.assert_allclose(table.logits, expected, rtol=0, atol=1e-12)


class TestDecayLr:
    def test_two_decays_compound(self):
        state = OptState(lr=1.0)
        decay_lr(state, 0.1)
        decay_lr(state, 0.1)
        np.testing.assert_allclose(state.lr, 0.01, atol=1e-15)

    def test_velocity_preserved(self):
        params = init_params(Architecture(3, (), 2), seed=0)
        state = init_opt_state(params, lr=0.1)
        grads = _grads_like(params, fill=1.0)
        sgd_nesterov_step(params, grads, state)
        vel_before = state.velocity.copy()
        decay_lr(state, 0.5)
        np.testing.assert_array_equal(state.velocity, vel_before)

    def test_pseudo_lr_not_touched(self):
        # decay acts on the network lr only; the pseudo-logit rate lives in
        # LossConfig and is never part of OptState
        state = OptState(lr=1.0)
        decay_lr(state, 0.5)
        assert not hasattr(state, "lam")


class TestNoOpStage:
    def test_zero_rates_freeze_everything(self):
        params = init_params(Architecture(3, (4,), 2), seed=5)
        before = params.flat.copy()
        state = init_opt_state(params, lr=0.0)
        table = PseudoTable(np.ones((2, 2)), np.zeros(2, bool), np.full(2, 2.0))
        rng = np.random.default_rng(0)
        for _ in range(10):
            grads = _grads_like(params, fill=float(rng.normal()))
            sgd_nesterov_step(params, grads, state)
            pseudo_step(table, rng.normal(size=(2, 2)), 0.0, [0, 1])
        np.testing.assert_array_equal(params.flat, before)
        np.testing.assert_array_equal(table.logits, np.ones((2, 2)))
