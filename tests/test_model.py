import json

import numpy as np
import pytest
from hypothesis import example, given

from conftest import DOCUMENT_SLOTS, JSON_VALUES, damaged

from pseudograd.model import (
    ACTIVATIONS,
    Architecture,
    InvalidStateError,
    ModelParams,
    backward,
    forward_batch,
    forward_stack,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from pseudograd.numerics import InvalidInputError, softmax_rows


def _unfused_forward(params, x):
    """Reference forward: act(h @ w + b) per layer, every step a new array."""
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[params.arch.activation]
    h, post_acts = x, []
    for w, b in zip(params.layer_weights, params.layer_biases):
        h = act(h @ w + b)
        post_acts.append(h)
    return post_acts, h @ params.head_w


class TestInitParams:
    def test_zero_hidden_layers_head_on_input(self):
        arch = Architecture(5, (), 3)
        params = init_params(arch, seed=0)
        assert params.head_w.shape == (5, 3)
        assert not params.layer_weights

    def test_deterministic(self):
        arch = Architecture(4, (8,), 3)
        a = init_params(arch, seed=3)
        b = init_params(arch, seed=3)
        np.testing.assert_array_equal(a.head_w, b.head_w)
        np.testing.assert_array_equal(a.layer_weights[0], b.layer_weights[0])

    def test_sample_mean_near_zero(self):
        # uniform(-b, b) over ~10^4 draws: mean within 3 sigma of zero
        arch = Architecture(100, (100,), 2)
        params = init_params(arch, seed=1)
        w = params.layer_weights[0]
        bound = np.sqrt(6.0 / 200)
        sigma_mean = (2 * bound / np.sqrt(12)) / np.sqrt(w.size)
        assert abs(w.mean()) < 3 * sigma_mean

    def test_biases_zero(self):
        params = init_params(Architecture(4, (8, 8), 3), seed=0)
        for b in params.layer_biases:
            assert not b.any()

    def test_named_tensors_are_views_and_copy_does_not_alias(self):
        params = init_params(Architecture(4, (7, 5), 3), seed=0)
        clone = params.copy()
        params.head_w[...] = 9.0
        np.testing.assert_array_equal(params.flat[-15:], np.full(15, 9.0))
        params.flat[:28] = 2.0
        np.testing.assert_array_equal(params.layer_weights[0], np.full((4, 7), 2.0))
        np.testing.assert_array_equal(clone.flat, init_params(clone.arch, seed=0).flat)


class TestForward:
    def test_zero_params_uniform_prediction(self):
        arch = Architecture(4, (6,), 3)
        params = init_params(arch, seed=0)
        params.flat[...] = 0.0
        trace = forward_batch(params, np.ones((1, 4)))
        np.testing.assert_allclose(trace.p_hat[0], [1 / 3] * 3, atol=1e-15)

    def test_opposed_head_columns_give_logistic(self):
        # single-layer-free net, 2 classes, w2 = -w1: p1 = logistic(2 w1.x)
        arch = Architecture(3, (), 2)
        params = init_params(arch, seed=0)
        rng = np.random.default_rng(4)
        w1 = rng.normal(size=3)
        params.head_w[:, 0] = w1
        params.head_w[:, 1] = -w1
        x = rng.normal(size=3)
        expected = 1.0 / (1.0 + np.exp(-2.0 * w1 @ x))
        trace = forward_batch(params, x[None, :])
        np.testing.assert_allclose(trace.p_hat[0, 0], expected, atol=1e-12)

    def test_finite_on_unit_inputs(self):
        arch = Architecture(10, (16, 8), 4)
        params = init_params(arch, seed=2)
        rng = np.random.default_rng(0)
        trace = forward_batch(params, rng.uniform(0, 1, size=(32, 10)))
        assert np.isfinite(trace.y_hat).all()

    def test_p_hat_is_softmax_of_y_hat(self):
        arch = Architecture(4, (5,), 3)
        params = init_params(arch, seed=5)
        trace = forward_batch(params, np.array([[0.1, -0.2, 0.3, 0.4]]))
        np.testing.assert_array_equal(trace.p_hat, softmax_rows(trace.y_hat))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("strided_input", [False, True])
    @pytest.mark.parametrize("hidden", [(), (64, 32)])
    def test_matches_unfused_reference_bit_for_bit(self, activation, strided_input, hidden):
        arch = Architecture(3, hidden, 4, activation=activation)
        params = init_params(arch, seed=8)
        rng = np.random.default_rng(8)
        params.flat[...] = rng.normal(size=params.flat.size)  # nonzero biases
        x = rng.normal(size=(1000, 6))[:, ::2] if strided_input else rng.normal(size=(1000, 3))
        x_before = x.copy()
        trace = forward_batch(params, x)
        post_acts, y_hat = _unfused_forward(params, x)
        assert len(trace.post_acts) == len(post_acts)
        for got, want in zip(trace.post_acts, post_acts):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(trace.y_hat, y_hat)
        np.testing.assert_array_equal(trace.p_hat, softmax_rows(y_hat))
        np.testing.assert_array_equal(x, x_before)

    def test_dim_mismatch(self):
        params = init_params(Architecture(4, (5,), 3), seed=0)
        with pytest.raises(InvalidInputError):
            forward_batch(params, np.zeros((1, 5)))


class TestForwardStack:
    """One stacked forward gives every vector's forward_batch bits."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 5, 4)])
    def test_equals_one_forward_per_vector(self, activation, hidden):
        arch = Architecture(4, hidden, 3, activation=activation)
        rng = np.random.default_rng(len(hidden))
        for rows in (1, 3, 64):
            x = rng.normal(size=(rows, 4))
            for k in (1, 203):  # 203 * 3 rows cross the column-reduction gate
                stack = rng.normal(size=(k, param_count(arch)))
                kept = stack.copy()
                got = forward_stack(arch, stack, x)
                want = [forward_batch(ModelParams(arch, v), x).p_hat for v in kept]
                assert got.shape == (k * rows, 3)
                np.testing.assert_array_equal(got.view(np.int64),
                                              np.concatenate(want).view(np.int64))
                np.testing.assert_array_equal(stack.view(np.int64), kept.view(np.int64))

    def test_shape_mismatch(self):
        arch = Architecture(4, (5,), 3)
        with pytest.raises(InvalidInputError, match="stack must be"):
            forward_stack(arch, np.zeros((2, param_count(arch) - 1)), np.zeros((1, 4)))
        with pytest.raises(InvalidInputError, match="input must be"):
            forward_stack(arch, np.zeros((2, param_count(arch))), np.zeros((1, 5)))


class TestBackward:
    def test_zero_grad_in_zero_grads_out(self):
        arch = Architecture(4, (6,), 3)
        params = init_params(arch, seed=1)
        trace = forward_batch(params, np.ones((1, 4)))
        grads = backward(trace, np.zeros((1, 3)), params)
        assert not grads.flat.any()

    def test_head_gradient_outer_product(self):
        # no hidden layers: head grad column n must be g[n] * x
        arch = Architecture(4, (), 3)
        params = init_params(arch, seed=1)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        g = np.array([0.3, -0.2, -0.1])
        trace = forward_batch(params, x[None, :])
        grads = backward(trace, g[None, :], params)
        np.testing.assert_allclose(grads.head_w, np.outer(x, g), atol=1e-14)

    @pytest.mark.parametrize("hidden,activation", [((6,), "relu"), ((6, 5), "tanh")])
    def test_matches_finite_differences_of_probe(self, hidden, activation):
        # probe scalar: sum(v * y_hat) for fixed v; gradient via backward(v)
        arch = Architecture(4, hidden, 3, activation=activation)
        params = init_params(arch, seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4))
        v = rng.normal(size=(2, 3))

        def probe():
            return float((v * forward_batch(params, x).y_hat).sum())

        trace = forward_batch(params, x)
        grads = backward(trace, v, params)
        h = 1e-5
        flat = params.flat
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = probe()
            flat[i] = orig - h
            fm = probe()
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            denom = max(abs(numeric), 1e-8)
            assert abs(grads.flat[i] - numeric) / denom < 1e-6

    def test_relu_mask_from_pre_activation_at_exact_zeros(self):
        # unit 1 has zero weights and bias, so its pre-activation is 0 on every
        # row; the zero input row also zeroes unit 3, whose bias is 0. The
        # ReLU subgradient at 0 must be 0, as the pre-activation mask says
        arch = Architecture(3, (5,), 2, activation="relu")
        params = init_params(arch, seed=4)
        params.layer_weights[0][:, 1] = 0.0
        params.layer_biases[0][...] = [0.3, 0.0, -0.2, 0.0, 0.1]
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        x[2] = 0.0
        g = rng.normal(size=(6, 2))
        pre = x @ params.layer_weights[0] + params.layer_biases[0]
        assert (pre == 0.0).sum() == 6 + 1
        dz = (g @ params.head_w.T) * (pre > 0.0).astype(np.float64)
        grads = backward(forward_batch(params, x), g, params)
        np.testing.assert_array_equal(grads.layer_weights[0], x.T @ dz)
        np.testing.assert_array_equal(grads.layer_biases[0], dz.sum(axis=0))
        assert not grads.layer_weights[0][:, 1].any()

    def test_out_buffer_equals_a_fresh_gradient(self):
        params = init_params(Architecture(4, (6, 5), 3, activation="tanh"), seed=2)
        out = ModelParams(params.arch, np.full_like(params.flat, np.nan))
        rng = np.random.default_rng(2)
        for rows in (7, 3):  # the buffer is overwritten, whatever it held
            x, g = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 3))
            trace = forward_batch(params, x)
            fresh = backward(trace, g, params)
            assert backward(trace, g, params, out=out) is out
            np.testing.assert_array_equal(out.flat, fresh.flat)

    def test_out_must_be_a_separate_gradient_of_the_same_arch(self):
        params = init_params(Architecture(4, (5,), 3), seed=0)
        before = params.flat.copy()
        trace = forward_batch(params, np.ones((2, 4)))
        other_arch = init_params(Architecture(4, (6,), 3), seed=0)
        for out in (params, ModelParams(params.arch, params.flat), other_arch):
            with pytest.raises(InvalidStateError):
                backward(trace, np.ones((2, 3)), params, out=out)
        np.testing.assert_array_equal(params.flat, before)

    def test_stale_trace_rejected(self):
        arch = Architecture(4, (5,), 3)
        params = init_params(arch, seed=0)
        trace = forward_batch(params, np.ones((1, 4)))
        with pytest.raises(InvalidStateError):
            backward(trace, np.zeros((1, 4)), params)

    def test_head_gradient_matches_stationarity_factor(self):
        # composing the joint-loss logit gradient with backward must give
        # head columns of the closed form
        # ((a-b)*log p_n - a*log p~_n - L) * p_n * f
        from pseudograd.loss import LossConfig, joint_loss_rows

        arch = Architecture(4, (6,), 3, activation="tanh")
        params = init_params(arch, seed=13)
        rng = np.random.default_rng(13)
        x = rng.normal(size=4)
        p_tilde = softmax_rows(rng.normal(size=(1, 3)))
        cfg = LossConfig()
        trace = forward_batch(params, x[None, :])
        loss = joint_loss_rows(trace.p_hat, p_tilde, cfg)
        grads = backward(trace, loss.grad_y, params)
        p_hat, p_tilde, total = trace.p_hat[0], p_tilde[0], loss.total[0]
        f = trace.features[0]
        for n in range(3):
            factor = (
                (cfg.alpha - cfg.beta) * np.log(p_hat[n])
                - cfg.alpha * np.log(p_tilde[n])
                - total
            ) * p_hat[n]
            np.testing.assert_allclose(grads.head_w[:, n], factor * f, atol=1e-10)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        arch = Architecture(4, (7, 5), 3, activation="tanh")
        params = init_params(arch, seed=9)
        save_checkpoint(params, tmp_path / "ckpt.json")
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        assert doc["arch"] == {"input_dim": 4, "hidden_dims": [7, 5], "num_classes": 3,
                               "activation": "tanh"}
        assert [(k, len(v)) for k, v in doc["tensors"].items()] == [
            ("layer0.w", 28), ("layer0.b", 7), ("layer1.w", 35),
            ("layer1.b", 5), ("head.w", 15)]
        loaded = load_checkpoint(tmp_path / "ckpt.json", arch)
        assert loaded.arch == params.arch
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_version_check(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format_version": 99}')
        with pytest.raises(InvalidInputError):
            load_checkpoint(tmp_path / "bad.json", Architecture(2, (1,), 2))

    def test_refuses_version_1_document_with_head_bias(self, tmp_path):
        arch = {"input_dim": 2, "hidden_dims": [1], "num_classes": 2,
                "activation": "relu", "head_bias": True}
        tensors = {"layer0.w": [1.0, 2.0], "layer0.b": [3.0],
                   "head.w": [4.0, 5.0], "head.b": [6.0, 7.0]}
        doc = {"format_version": 1, "arch": arch, "tensors": tensors}
        (tmp_path / "v1.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="version 1"):
            load_checkpoint(tmp_path / "v1.json", Architecture(2, (1,), 2))

    @given(DOCUMENT_SLOTS, JSON_VALUES)
    @example(None, [])
    def test_any_json_document_loads_or_is_refused_by_name(self, tmp_path_factory, slot, value):
        arch = Architecture(2, (2,), 2, activation="tanh")
        path = tmp_path_factory.getbasetemp() / "checkpoint_property.json"
        save_checkpoint(init_params(arch, seed=0), path)
        path.write_text(json.dumps(damaged(json.loads(path.read_text()), slot, value)))
        try:
            load_checkpoint(path, arch)
        except InvalidInputError as exc:
            assert str(path) in str(exc)
