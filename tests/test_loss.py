import warnings

import numpy as np
import pytest

from pseudograd.config import ConfigError
from pseudograd.loss import (
    VARIANTS,
    LossConfig,
    grad_wrt_logits,
    grad_wrt_pseudo_logits,
    loss_value,
)
from pseudograd.numerics import InvalidInputError, entropy, softmax


def _fd_grad_logits(y_hat, y_tilde, cfg, h=1e-6):
    g = np.zeros_like(y_hat)
    for i in range(y_hat.size):
        yp = y_hat.copy()
        yp[i] += h
        ym = y_hat.copy()
        ym[i] -= h
        fp = loss_value(softmax(yp), softmax(y_tilde), cfg).total
        fm = loss_value(softmax(ym), softmax(y_tilde), cfg).total
        g[i] = (fp - fm) / (2 * h)
    return g


def _fd_grad_pseudo(y_hat, y_tilde, cfg, h=1e-6):
    g = np.zeros_like(y_tilde)
    for i in range(y_tilde.size):
        yp = y_tilde.copy()
        yp[i] += h
        ym = y_tilde.copy()
        ym[i] -= h
        fp = loss_value(softmax(y_hat), softmax(yp), cfg).total
        fm = loss_value(softmax(y_hat), softmax(ym), cfg).total
        g[i] = (fp - fm) / (2 * h)
    return g


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.alpha == 0.1
        assert cfg.beta == 0.03
        assert cfg.lam == 4000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LossConfig()

    def test_alpha_le_beta_flagged(self):
        with pytest.warns(UserWarning):
            LossConfig(alpha=0.01, beta=0.03)

    def test_invalid_variant(self):
        with pytest.raises(ConfigError):
            LossConfig(variant="mse")


class TestLossValue:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_identical_distributions_zero_lc(self, variant):
        cfg = LossConfig(variant=variant)
        p = softmax(np.array([0.3, -0.1, 0.5]))
        out = loss_value(p, p, cfg)
        assert abs(out.lc) < 1e-12
        np.testing.assert_allclose(out.total, cfg.beta * entropy(p), atol=1e-12)

    def test_uniform_pair_reference_value(self):
        # alpha=0.1, beta=0.03, both uniform over 2: total = 0.03*log(2)
        out = loss_value([0.5, 0.5], [0.5, 0.5], LossConfig())
        np.testing.assert_allclose(out.total, 0.020794415416798359, atol=1e-12)

    def test_l2_antipodal(self):
        cfg = LossConfig(variant="l2")
        out = loss_value([0.0, 1.0], [1.0, 0.0], cfg)
        np.testing.assert_allclose(out.lc, 2.0, atol=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(0)
        for variant in VARIANTS:
            cfg = LossConfig(variant=variant)
            p = softmax(rng.normal(size=4))
            q = softmax(rng.normal(size=4))
            out = loss_value(p, q, cfg)
            np.testing.assert_allclose(
                out.total, cfg.alpha * out.lc + cfg.beta * out.le, atol=1e-12
            )

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            loss_value([0.5, 0.5], [0.3, 0.3, 0.4], LossConfig())


class TestPseudoLogitGradient:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fixed_point_at_equal_distributions(self, variant):
        cfg = LossConfig(variant=variant)
        p = softmax(np.array([1.0, 0.2, -0.4]))
        g = grad_wrt_pseudo_logits(p, p, cfg)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_saturated_prediction_reference(self):
        # p_hat -> [1, 0] via large logits, p_tilde uniform, alpha = 0.1
        cfg = LossConfig()
        p_hat = softmax(np.array([200.0, 0.0]))
        g = grad_wrt_pseudo_logits(p_hat, np.array([0.5, 0.5]), cfg)
        np.testing.assert_allclose(g, [-0.05, 0.05], atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(10)
        cfg = LossConfig(variant=variant)
        for _ in range(30):
            y_hat = rng.normal(size=4) * 2
            y_tilde = rng.normal(size=4) * 2
            analytic = grad_wrt_pseudo_logits(softmax(y_hat), softmax(y_tilde), cfg)
            numeric = _fd_grad_pseudo(y_hat, y_tilde, cfg)
            denom = max(np.abs(numeric).max(), 1e-10)
            assert np.abs(analytic - numeric).max() / denom < 1e-6

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_components_sum_to_zero(self, variant):
        rng = np.random.default_rng(11)
        cfg = LossConfig(variant=variant)
        for _ in range(100):
            p = softmax(rng.normal(size=5) * 3)
            q = softmax(rng.normal(size=5) * 3)
            assert abs(grad_wrt_pseudo_logits(p, q, cfg).sum()) < 1e-12


class TestLogitGradient:
    def test_beta_equals_alpha_reference(self):
        # beta = alpha and p_tilde = p_hat: g[n] = p_n * (-a*log p_n - L), L = a*H(p)
        with pytest.warns(UserWarning):
            cfg = LossConfig(alpha=0.1, beta=0.1)
        p = np.array([0.6, 0.3, 0.1])
        expected = [-0.023227206065447346, 0.009180812384074686, 0.014046393681372659]
        np.testing.assert_allclose(grad_wrt_logits(p, p, cfg), expected, atol=1e-12)
        numeric = _fd_grad_logits(np.log(p), np.log(p), cfg)
        np.testing.assert_allclose(grad_wrt_logits(p, p, cfg), numeric, atol=1e-8)

    def test_uniform_pair_symmetric(self):
        cfg = LossConfig()
        p = np.ones(4) / 4
        g = grad_wrt_logits(p, p, cfg)
        np.testing.assert_allclose(g, g[0], atol=1e-14)
        np.testing.assert_allclose(g.sum(), 4 * g[0], atol=1e-14)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(12)
        for _ in range(30):
            cfg = LossConfig(
                alpha=float(rng.uniform(0.05, 0.5)),
                beta=float(rng.uniform(0.0, 0.04)),
                variant=variant,
            )
            y_hat = rng.normal(size=4) * 2
            y_tilde = rng.normal(size=4) * 2
            analytic = grad_wrt_logits(softmax(y_hat), softmax(y_tilde), cfg)
            numeric = _fd_grad_logits(y_hat, y_tilde, cfg)
            denom = max(np.abs(numeric).max(), 1e-10)
            assert np.abs(analytic - numeric).max() / denom < 1e-6

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_components_sum_to_zero(self, variant):
        rng = np.random.default_rng(13)
        cfg = LossConfig(variant=variant)
        for _ in range(100):
            p = softmax(rng.normal(size=5) * 3)
            q = softmax(rng.normal(size=5) * 3)
            assert abs(grad_wrt_logits(p, q, cfg).sum()) < 1e-10


class TestFlatteningBound:
    def test_loss_dominates_entropy_term(self):
        # total >= beta * H(p_hat) for the kl_pred_pseudo variant
        rng = np.random.default_rng(14)
        cfg = LossConfig()
        for _ in range(200):
            p = softmax(rng.normal(size=4) * 2)
            q = softmax(rng.normal(size=4) * 2)
            out = loss_value(p, q, cfg)
            assert out.total >= cfg.beta * entropy(p) - 1e-10

    def test_algebraic_top_probability_bound(self):
        # whenever L >= -beta*log(p_n): exp(-L/a) * p_n^(1-b/a) <= p_n
        rng = np.random.default_rng(15)
        for _ in range(1000):
            alpha = rng.uniform(0.02, 0.5)
            beta = alpha * rng.uniform(0.0, 0.999)
            p_n = rng.uniform(1e-6, 1.0)
            loss_floor = -beta * np.log(p_n)
            total = loss_floor + abs(rng.normal()) * 0.1
            bound = np.exp(-total / alpha) * p_n ** (1 - beta / alpha)
            assert bound <= p_n + 1e-12
