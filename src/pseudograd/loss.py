"""The joint loss L = alpha*Lc + beta*Le and its analytic gradients.

Lc compares the network prediction ``p_hat`` with the pseudo-label ``p_tilde``
in one of three variants; Le is the entropy of ``p_hat``. ``joint_loss_rows``
returns both terms, their weighted total and the two gradients: with respect
to the head activation (``grad_y``, the scalar factors g such that
dL/dw_n = g[n] * f) and with respect to the pseudo-logits (``grad_pseudo``).
Both gradients are images of a softmax Jacobian, so each gradient row sums to
zero.

Every function takes row-stacked batches: two 2-D arrays of the same shape,
one probability row per example. Each entry takes the Lc variant by name, and
``joint_loss_rows`` takes the weights as floats or as each row's own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import VARIANT_KL_PRED_PSEUDO, VARIANT_KL_PSEUDO_PRED, VARIANT_L2, VARIANTS, LossConfig
from .numerics import InvalidInputError, clamped_log, entropy_rows, row_sum


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
    """Per-row (lc, le) from the probability rows and their clamped logs; the
    one check of the Lc ``variant`` for every entry."""
    if variant == VARIANT_KL_PRED_PSEUDO:
        lc = row_sum(ph * (log_ph - log_pt))
    elif variant == VARIANT_KL_PSEUDO_PRED:
        lc = row_sum(pt * (log_pt - log_ph))
    elif variant == VARIANT_L2:
        lc = row_sum((pt - ph) ** 2)
    else:
        raise InvalidInputError(f"unknown Lc variant {variant!r}: one of {VARIANTS}")
    return lc, entropy_rows(ph, log_ph)


def loss_terms_rows(p_hat, p_tilde, variant: str, logs=None):
    """Per-row (lc, le) of the Lc ``variant``, without the gradients; ``logs``
    is the pair's clamped logs when the caller has them."""
    ph, pt = _check_pair(p_hat, p_tilde)
    log_ph, log_pt = (clamped_log(ph), clamped_log(pt)) if logs is None else logs
    return _terms(ph, pt, log_ph, log_pt, variant)


def joint_loss_rows(p_hat, p_tilde, variant: str, alpha, beta) -> JointLoss:
    """The loss terms and both gradients of the Lc ``variant`` from one pass
    over the batch. ``alpha`` and ``beta`` are floats, or ``(n,)`` arrays of
    each row's weights; row k then has the bits of the float call on row k
    alone with ``alpha[k]`` and ``beta[k]``.

    For the kl_pred_pseudo variant the head gradient is the closed form
    g = p_hat * link_residual_matrix(log p_hat, log p_tilde, L, alpha, beta),
    so dL/dw_n = g[n] * f. The other variants differentiate their Lc through
    the softmax plus the shared entropy term. Le does not depend on the
    pseudo-logits, so only Lc contributes to ``grad_pseudo``.
    """
    ph, pt = _check_pair(p_hat, p_tilde)
    # the gradient rows' weights: the same floats, or each row's as a column
    alpha_c, beta_c = (alpha[:, None], beta[:, None]) if np.ndim(alpha) else (alpha, beta)
    log_ph, log_pt = clamped_log(ph), clamped_log(pt)
    lc, le = _terms(ph, pt, log_ph, log_pt, variant)
    total = alpha * lc + beta * le
    if variant == VARIANT_KL_PRED_PSEUDO:
        grad_y = ph * link_residual_matrix(log_ph, log_pt, total, alpha_c, beta_c)
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


def link_residual_matrix(log_ph, log_pt, total, alpha, beta) -> np.ndarray:
    """``(alpha - beta) * log p_hat - alpha * log p_tilde - L`` at every class
    of every row: the per-class factor of the kl_pred_pseudo head gradient,
    ``grad_y = p_hat * link_residual_matrix(...)``. At the predicted class it
    is the exponential link's residual r, so the link holds where this
    factor is 0. ``alpha`` and ``beta`` are floats or ``(n, 1)`` columns."""
    return (alpha - beta) * log_ph - alpha * log_pt - total[:, None]


def grad_wrt_logits_rows(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    """``joint_loss_rows(...).grad_y`` under ``cfg``'s variant and weights."""
    return joint_loss_rows(p_hat, p_tilde, cfg.variant, cfg.alpha, cfg.beta).grad_y


def grad_wrt_pseudo_logits_rows(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    """``joint_loss_rows(...).grad_pseudo`` under ``cfg``'s variant and weights."""
    return joint_loss_rows(p_hat, p_tilde, cfg.variant, cfg.alpha, cfg.beta).grad_pseudo
