from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import storage_directory
from hypothesis.extra.numpy import arrays

from conftest import bits, central_diff, loss_total
from pseudograd.config import ConfigError
from pseudograd.loss import (
    VARIANTS,
    JointLoss,
    LossConfig,
    grad_wrt_logits_rows,
    grad_wrt_pseudo_logits_rows,
    joint_loss_rows,
    link_residual_matrix,
    loss_terms_rows,
)
from pseudograd.numerics import ROW_SUM_GATE, InvalidInputError, clamped_log, entropy_rows
from pseudograd.numerics import softmax_rows

# the properties' domain: 1-8 rows of 2-7 classes, |logit| <= 6, alpha in
# [0.05, 0.5] and beta in [0, 0.04], so alpha > beta
ALPHA, BETA = st.floats(0.05, 0.5), st.floats(0.0, 0.04)
SHAPES = st.tuples(st.integers(1, 8), st.integers(2, 7))


def logit_arrays(*lead):
    return SHAPES.flatmap(lambda shape: arrays(np.float64, (*lead, *shape),
                                               elements=st.floats(-6.0, 6.0)))


LOGITS, LOGIT_PAIRS = logit_arrays(), logit_arrays(2)  # a pair unpacks as (y_hat, y_tilde)
# central differences at h = 1e-6 round to about eps*|L|/h ~ 2e-10, so the
# 1e-6 relative tolerance can only hold for gradients well above 2e-4; the
# zero gradient at equal rows is the fixed-point property's
FD_FLOOR, FD_H = 1e-3, 1e-6


def _fd_grad_logits(y_hat, y_tilde, variant, alpha, beta):
    return central_diff(lambda y: loss_total(y, y_tilde, variant, alpha, beta), y_hat, FD_H)


def _fd_grad_pseudo(y_hat, y_tilde, variant, alpha, beta):
    return central_diff(lambda y: loss_total(y_hat, y, variant, alpha, beta), y_tilde, FD_H)


def test_hypothesis_profile_is_deterministic_and_writes_nothing_here():
    assert settings.default.derandomize and settings.default.database is None
    home = storage_directory(intent_to_write=False).path
    assert Path(__file__).resolve().parents[1] not in home.resolve().parents


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.alpha == 0.1
        assert cfg.beta == 0.03
        assert cfg.lam == 4000.0

    def test_invalid_variant(self):
        with pytest.raises(ConfigError):
            LossConfig(variant="mse")


class TestLossValue:
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(y=LOGITS, alpha=ALPHA, beta=BETA)
    def test_identical_distributions_zero_lc(self, variant, y, alpha, beta):
        p = softmax_rows(y)
        out = joint_loss_rows(p, p, variant, alpha, beta)
        assert np.abs(out.lc).max() < 1e-12
        np.testing.assert_allclose(out.total, beta * entropy_rows(p), atol=1e-12)

    def test_uniform_pair_reference_value(self):
        # alpha=0.1, beta=0.03, both uniform over 2: total = 0.03*log(2)
        out = joint_loss_rows([[0.5, 0.5]], [[0.5, 0.5]], "kl_pred_pseudo", 0.1, 0.03)
        np.testing.assert_allclose(out.total, [0.020794415416798359], atol=1e-12)

    def test_l2_antipodal(self):
        lc, _ = loss_terms_rows([[0.0, 1.0]], [[1.0, 0.0]], "l2")
        np.testing.assert_allclose(lc, [2.0], atol=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(0)
        for variant in VARIANTS:
            p = softmax_rows(rng.normal(size=(1, 4)))
            q = softmax_rows(rng.normal(size=(1, 4)))
            out = joint_loss_rows(p, q, variant, 0.1, 0.03)
            np.testing.assert_allclose(out.total, 0.1 * out.lc + 0.03 * out.le, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(pair=LOGIT_PAIRS, alpha=ALPHA, beta=BETA)
    def test_joint_terms_equal_loss_terms_rows(self, variant, pair, alpha, beta):
        # the fused kernel and the loss-only evaluator share one formula,
        # and its total is alpha*lc + beta*le
        cfg = LossConfig(alpha=alpha, beta=beta, variant=variant)
        p, q = map(softmax_rows, pair)
        out = joint_loss_rows(p, q, variant, alpha, beta)
        lc, le = loss_terms_rows(p, q, variant)
        for got, want in [(out.lc, lc), (out.le, le), (out.total, alpha * lc + beta * le),
                          (grad_wrt_logits_rows(p, q, cfg), out.grad_y),
                          (grad_wrt_pseudo_logits_rows(p, q, cfg), out.grad_pseudo)]:
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("nc", range(2, 8))
    def test_weighted_rows_equal_one_call_per_row(self, variant, nc):
        # the weighted call crosses the row-sum column gate while each one-row
        # call stays on numpy's reduce
        rng = np.random.default_rng(nc)
        n = ROW_SUM_GATE * nc
        alpha, beta = rng.uniform(0.05, 0.5, size=n), rng.uniform(0.0, 0.04, size=n)
        p = softmax_rows(rng.normal(0.0, 2.0, size=(n, nc)))
        q = softmax_rows(rng.normal(0.0, 2.0, size=(n, nc)))
        got = joint_loss_rows(p, q, variant, alpha, beta)
        for k in range(n):
            want = joint_loss_rows(p[k : k + 1], q[k : k + 1], variant, float(alpha[k]),
                                   float(beta[k]))
            for field, value in zip(JointLoss._fields, want):
                np.testing.assert_array_equal(
                    bits(getattr(got, field)[k : k + 1]), bits(value), err_msg=field)

    @pytest.mark.parametrize("variant", ["KL", "l2 ", LossConfig(variant="l2")],
                             ids=["misspelt", "trailing_space", "loss_config"])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["loss_terms_rows", "joint_loss_weighted_rows"])
    def test_unknown_variant_is_refused_by_name(self, weighted, variant):
        # never computed as l2, the variant the check once fell through to;
        # the joint loss is called with each row's own weights
        p, q = softmax_rows(np.array([[0.0, 1.0, 2.0]])), softmax_rows(np.array([[2.0, 1.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="unknown Lc variant .* one of"):
            if weighted:
                joint_loss_rows(p, q, variant, np.array([0.1]), np.array([0.03]))
            else:
                loss_terms_rows(p, q, variant)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            loss_terms_rows([[0.5, 0.5]], [[0.3, 0.3, 0.4]], "kl_pred_pseudo")

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(InvalidInputError):
            joint_loss_rows([0.5, 0.5], [0.5, 0.5], "kl_pred_pseudo", 0.1, 0.03)


class _GradientProperties:
    """One gradient of ``joint_loss_rows``, named by ``FIELD``: its rows sum
    to zero within ``SUM_TOL``, and it matches the central differences ``FD``
    of the summed loss."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(pair=LOGIT_PAIRS, alpha=ALPHA, beta=BETA)
    def test_components_sum_to_zero(self, variant, pair, alpha, beta):
        grad = getattr(joint_loss_rows(*map(softmax_rows, pair), variant, alpha, beta), self.FIELD)
        assert np.abs(grad.sum(axis=1)).max() < self.SUM_TOL

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(pair=LOGIT_PAIRS, alpha=ALPHA, beta=BETA)
    def test_matches_finite_differences(self, variant, pair, alpha, beta):
        numeric = self.FD(*pair, variant, alpha, beta)
        assume(np.abs(numeric).max() > FD_FLOOR)
        analytic = getattr(joint_loss_rows(*map(softmax_rows, pair), variant, alpha, beta),
                           self.FIELD)
        denom = max(np.abs(numeric).max(), 1e-10)
        assert np.abs(analytic - numeric).max() / denom < 1e-6


class TestPseudoLogitGradient(_GradientProperties):
    FIELD, SUM_TOL, FD = "grad_pseudo", 1e-12, staticmethod(_fd_grad_pseudo)

    @pytest.mark.parametrize("variant", VARIANTS)
    @given(y=LOGITS, alpha=ALPHA, beta=BETA)
    def test_fixed_point_at_equal_distributions(self, variant, y, alpha, beta):
        p = softmax_rows(y)
        g = joint_loss_rows(p, p, variant, alpha, beta).grad_pseudo
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_saturated_prediction_reference(self):
        # p_hat -> [1, 0] via large logits, p_tilde uniform, alpha = 0.1
        p_hat = softmax_rows(np.array([[200.0, 0.0]]))
        g = joint_loss_rows(p_hat, np.array([[0.5, 0.5]]), "kl_pred_pseudo", 0.1, 0.03).grad_pseudo
        np.testing.assert_allclose(g, [[-0.05, 0.05]], atol=1e-12)


class TestLogitGradient(_GradientProperties):
    FIELD, SUM_TOL, FD = "grad_y", 1e-10, staticmethod(_fd_grad_logits)

    def test_beta_equals_alpha_reference(self):
        # beta = alpha and p_tilde = p_hat: g[n] = p_n * (-a*log p_n - L), L = a*H(p)
        p = np.array([[0.6, 0.3, 0.1]])
        expected = [[-0.023227206065447346, 0.009180812384074686, 0.014046393681372659]]
        grad_y = joint_loss_rows(p, p, "kl_pred_pseudo", 0.1, 0.1).grad_y
        np.testing.assert_allclose(grad_y, expected, atol=1e-12)
        numeric = _fd_grad_logits(np.log(p), np.log(p), "kl_pred_pseudo", 0.1, 0.1)
        np.testing.assert_allclose(grad_y, numeric, atol=1e-8)

    def test_uniform_pair_symmetric(self):
        p = np.ones((1, 4)) / 4
        g = joint_loss_rows(p, p, "kl_pred_pseudo", 0.1, 0.03).grad_y[0]
        np.testing.assert_allclose(g, g[0], atol=1e-14)
        np.testing.assert_allclose(g.sum(), 4 * g[0], atol=1e-14)


class TestLinkResidualMatrix:
    """The kl_pred_pseudo head gradient is p_hat times the link residual at
    every class: both gradient entries have the bits of that one formula."""

    @given(pair=LOGIT_PAIRS, alpha=ALPHA, beta=BETA)
    def test_head_gradient_is_p_hat_times_the_residuals(self, pair, alpha, beta):
        p, q = map(softmax_rows, pair)
        out = joint_loss_rows(p, q, "kl_pred_pseudo", alpha, beta)
        want = p * link_residual_matrix(clamped_log(p), clamped_log(q), out.total, alpha, beta)
        np.testing.assert_array_equal(bits(out.grad_y), bits(want))

    @pytest.mark.parametrize("nc", [2, 3, 5, 10])  # the flatness bound's class counts
    def test_weighted_head_gradient_is_p_hat_times_the_residuals(self, nc):
        rng = np.random.default_rng(nc)
        n = 20 * nc
        alpha, beta = rng.uniform(0.05, 0.5, size=n), rng.uniform(0.0, 0.04, size=n)
        p, q = softmax_rows(rng.normal(0.0, 2.0, size=(2 * n, nc))).reshape(2, n, nc)
        out = joint_loss_rows(p, q, "kl_pred_pseudo", alpha, beta)
        want = p * link_residual_matrix(
            clamped_log(p), clamped_log(q), out.total, alpha[:, None], beta[:, None])
        np.testing.assert_array_equal(bits(out.grad_y), bits(want))


class TestFlatteningBound:
    @given(pair=LOGIT_PAIRS, alpha=ALPHA, beta=BETA)
    def test_loss_dominates_entropy_term(self, pair, alpha, beta):
        # kl_pred_pseudo with alpha > beta: L >= beta*H(p_hat) >= -beta*log(p_n),
        # so each row's top probability obeys exp(-L/a) * p_n^(1-b/a) <= p_n
        p, q = map(softmax_rows, pair)
        total = joint_loss_rows(p, q, "kl_pred_pseudo", alpha, beta).total
        assert np.all(total >= beta * entropy_rows(p) - 1e-10)
        p_n = p.max(axis=1)
        assert np.all(np.exp(-total / alpha) * p_n ** (1 - beta / alpha) <= p_n + 1e-12)

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
