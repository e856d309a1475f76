"""The joint loss L = alpha*Lc + beta*Le and its analytic gradients.

Lc compares the network prediction ``p_hat`` with the pseudo-label ``p_tilde``
in one of three variants; Le is the entropy of ``p_hat``. ``joint_loss_rows``
returns both terms, their weighted total and the two gradients: with respect
to the head activation (``grad_y``, the scalar factors g such that
dL/dw_n = g[n] * f) and with respect to the pseudo-logits (``grad_pseudo``).
Both gradients are images of a softmax Jacobian, so each gradient row sums to
zero.

Every function takes row-stacked batches: two 2-D arrays of the same shape,
one probability row per example.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import VARIANT_KL_PRED_PSEUDO, VARIANT_KL_PSEUDO_PRED, LossConfig
from .config import VARIANTS  # noqa: F401  (re-exported with the loss functions)
from .numerics import InvalidInputError, clamped_log, row_sum


class JointLoss(NamedTuple):
    """Per-row loss terms and gradients of one batch (rows = examples)."""

    lc: np.ndarray
    le: np.ndarray
    total: np.ndarray  # alpha*lc + beta*le
    grad_y: np.ndarray  # d total / d head activation
    grad_pseudo: np.ndarray  # d total / d pseudo-logits


def _check_pair(p_hat, p_tilde):
    ph = np.asarray(p_hat, dtype=np.float64)
    pt = np.asarray(p_tilde, dtype=np.float64)
    if ph.ndim != 2 or ph.shape != pt.shape:
        raise InvalidInputError(
            f"expected two 2-D probability arrays of one shape, got {ph.shape} and {pt.shape}"
        )
    return ph, pt


def _terms(ph, pt, log_ph, log_pt, variant: str):
    """Per-row (lc, le) from the probability rows and their clamped logs."""
    if variant == VARIANT_KL_PRED_PSEUDO:
        lc = row_sum(ph * (log_ph - log_pt))
    elif variant == VARIANT_KL_PSEUDO_PRED:
        lc = row_sum(pt * (log_pt - log_ph))
    else:
        lc = row_sum((pt - ph) ** 2)
    return lc, -row_sum(ph * log_ph)


def loss_terms_rows(p_hat, p_tilde, cfg: LossConfig, logs=None):
    """Per-row (lc, le), without the gradients; ``logs`` is the pair's
    clamped logs when the caller has them."""
    ph, pt = _check_pair(p_hat, p_tilde)
    log_ph, log_pt = (clamped_log(ph), clamped_log(pt)) if logs is None else logs
    return _terms(ph, pt, log_ph, log_pt, cfg.variant)


def joint_loss_rows(p_hat, p_tilde, cfg: LossConfig) -> JointLoss:
    """The loss terms and both gradients from one pass over the batch.

    For the kl_pred_pseudo variant the head gradient is the closed form
    g[n] = p_hat[n] * ((alpha-beta)*log p_hat[n] - alpha*log p_tilde[n] - L),
    so dL/dw_n = g[n] * f. The other variants differentiate their Lc through
    the softmax plus the shared entropy term. Le does not depend on the
    pseudo-logits, so only Lc contributes to ``grad_pseudo``.
    """
    ph, pt = _check_pair(p_hat, p_tilde)
    return _joint(ph, pt, cfg.variant, cfg.alpha, cfg.beta, cfg.alpha, cfg.beta)


def joint_loss_weighted_rows(p_hat, p_tilde, variant: str, alpha, beta) -> JointLoss:
    """``joint_loss_rows`` with each row's own weights: ``alpha`` and ``beta``
    are ``(n,)`` arrays, and row k has the bits of ``joint_loss_rows`` on row
    k alone under ``LossConfig(alpha=alpha[k], beta=beta[k], variant=variant)``."""
    ph, pt = _check_pair(p_hat, p_tilde)
    return _joint(ph, pt, variant, alpha, beta, alpha[:, None], beta[:, None])


def _joint(ph, pt, variant: str, alpha, beta, alpha_c, beta_c) -> JointLoss:
    """The one kernel of both entries: ``alpha``/``beta`` weigh the per-row
    terms and ``alpha_c``/``beta_c`` the gradient rows (the same floats, or
    each row's weights as a column)."""
    log_ph, log_pt = clamped_log(ph), clamped_log(pt)
    lc, le = _terms(ph, pt, log_ph, log_pt, variant)
    total = alpha * lc + beta * le
    if variant == VARIANT_KL_PRED_PSEUDO:
        grad_y = ph * ((alpha_c - beta_c) * log_ph - alpha_c * log_pt - total[:, None])
        return JointLoss(lc, le, total, grad_y, alpha_c * (pt - ph))
    # shared entropy-term gradient: dLe/dy[n] = -p_hat[n]*(log p_hat[n] + Le)
    le_grad = -ph * (log_ph + le[:, None])
    if variant == VARIANT_KL_PSEUDO_PRED:
        lc_grad = ph - pt
        diff = log_pt - log_ph
        scale = alpha_c
    else:
        diff = pt - ph
        lc_grad = -2.0 * ph * (diff - row_sum(ph * diff)[:, None])
        scale = 2.0 * alpha_c
    grad_pseudo = scale * pt * (diff - row_sum(pt * diff)[:, None])
    return JointLoss(lc, le, total, alpha_c * lc_grad + beta_c * le_grad, grad_pseudo)


def grad_wrt_logits_rows(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    """``joint_loss_rows(...).grad_y``."""
    return joint_loss_rows(p_hat, p_tilde, cfg).grad_y


def grad_wrt_pseudo_logits_rows(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    """``joint_loss_rows(...).grad_pseudo``."""
    return joint_loss_rows(p_hat, p_tilde, cfg).grad_pseudo
