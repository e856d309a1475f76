"""The joint loss L = alpha*Lc + beta*Le and its analytic gradients.

Lc compares the network prediction ``p_hat`` with the pseudo-label ``p_tilde``
in one of three variants; Le is the entropy of ``p_hat``. Gradients are
provided with respect to both the head activation (``grad_wrt_logits``, the
scalar factors g such that dL/dw_n = g[n] * f) and the pseudo-logits
(``grad_wrt_pseudo_logits``). Both are images of a softmax Jacobian, so each
gradient vector sums to zero.

Per-example functions take 1-D probability vectors; ``*_rows`` variants take
row-stacked batches and are what the trainer uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import VARIANT_KL_PRED_PSEUDO, VARIANT_KL_PSEUDO_PRED, LossConfig
from .config import VARIANTS  # noqa: F401  (re-exported with the loss functions)
from .numerics import (
    InvalidInputError,
    clamped_log,
    entropy_rows,
)


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    lc: float
    le: float


def _check_pair(p_hat, p_tilde):
    ph = np.asarray(p_hat, dtype=np.float64)
    pt = np.asarray(p_tilde, dtype=np.float64)
    if ph.shape != pt.shape:
        raise InvalidInputError(f"dimension mismatch: {ph.shape} vs {pt.shape}")
    return ph, pt


def loss_terms_rows(p_hat, p_tilde, cfg: LossConfig):
    """Per-row (lc, le) for batches of probability rows."""
    ph, pt = _check_pair(p_hat, p_tilde)
    if cfg.variant == VARIANT_KL_PRED_PSEUDO:
        lc = (ph * (clamped_log(ph) - clamped_log(pt))).sum(axis=-1)
    elif cfg.variant == VARIANT_KL_PSEUDO_PRED:
        lc = (pt * (clamped_log(pt) - clamped_log(ph))).sum(axis=-1)
    else:
        lc = ((pt - ph) ** 2).sum(axis=-1)
    le = entropy_rows(np.atleast_2d(ph))
    if ph.ndim == 1:
        le = le[0]
    return lc, le


def loss_value(p_hat, p_tilde, cfg: LossConfig) -> LossBreakdown:
    """L = alpha*Lc + beta*Le for one example."""
    lc, le = loss_terms_rows(p_hat, p_tilde, cfg)
    lc, le = float(lc), float(le)
    return LossBreakdown(cfg.alpha * lc + cfg.beta * le, lc, le)


def grad_wrt_pseudo_logits_rows(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    """d(alpha*Lc + beta*Le)/d(pseudo-logits), rows = examples.

    Le does not depend on the pseudo-logits, so only Lc contributes.
    """
    ph, pt = _check_pair(p_hat, p_tilde)
    if cfg.variant == VARIANT_KL_PRED_PSEUDO:
        return cfg.alpha * (pt - ph)
    if cfg.variant == VARIANT_KL_PSEUDO_PRED:
        diff = clamped_log(pt) - clamped_log(ph)
        inner = (pt * diff).sum(axis=-1, keepdims=ph.ndim == 2)
        return cfg.alpha * pt * (diff - inner)
    diff = pt - ph
    inner = (pt * diff).sum(axis=-1, keepdims=ph.ndim == 2)
    return 2.0 * cfg.alpha * pt * (diff - inner)


def grad_wrt_pseudo_logits(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    return grad_wrt_pseudo_logits_rows(p_hat, p_tilde, cfg)


def grad_wrt_logits_rows(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    """d(alpha*Lc + beta*Le)/d(head activation), rows = examples.

    For the kl_pred_pseudo variant this is the closed form
    g[n] = p_hat[n] * ((alpha-beta)*log p_hat[n] - alpha*log p_tilde[n] - L),
    so dL/dw_n = g[n] * f. The other variants differentiate their Lc through
    the softmax plus the shared entropy term.
    """
    ph, pt = _check_pair(p_hat, p_tilde)
    keep = ph.ndim == 2
    log_ph = clamped_log(ph)
    if cfg.variant == VARIANT_KL_PRED_PSEUDO:
        lc, le = loss_terms_rows(ph, pt, cfg)
        total = cfg.alpha * np.asarray(lc) + cfg.beta * np.asarray(le)
        bracket = (
            (cfg.alpha - cfg.beta) * log_ph
            - cfg.alpha * clamped_log(pt)
            - (total[..., None] if keep else total)
        )
        return ph * bracket
    # shared entropy-term gradient: dLe/dy[n] = -p_hat[n]*(log p_hat[n] + Le)
    le = entropy_rows(np.atleast_2d(ph))
    le = le[:, None] if keep else le[0]
    le_grad = -ph * (log_ph + le)
    if cfg.variant == VARIANT_KL_PSEUDO_PRED:
        lc_grad = ph - pt
    else:
        diff = pt - ph
        inner = (ph * diff).sum(axis=-1, keepdims=keep)
        lc_grad = -2.0 * ph * (diff - inner)
    return cfg.alpha * lc_grad + cfg.beta * le_grad


def grad_wrt_logits(p_hat, p_tilde, cfg: LossConfig) -> np.ndarray:
    return grad_wrt_logits_rows(p_hat, p_tilde, cfg)
