"""Empirical verification of the method's convergence properties.

Checks provided:

* exponential link: at weight-stationarity the top pseudo-label probability
  approaches exp(-L/alpha) * p_hat_n^(1-beta/alpha), equivalently the
  residual r, ``loss.link_residual_matrix`` at the predicted class n,
  vanishes (L the per-example loss);
* flattening: wherever the link holds, p_tilde_n <= p_hat_n, so optimized
  pseudo-labels are never sharper than the predictions;
* sum conservation: the kl_pred_pseudo pseudo-logit update preserves each
  row's coordinate sum, so |sum(y~) - init_sum| stays at accumulation noise;
* gradient correctness: every analytic gradient path is compared against
  central finite differences.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .data import SplitDataset
from .loss import (
    VARIANT_KL_PRED_PSEUDO,
    VARIANTS,
    LossConfig,
    joint_loss_rows,
    link_residual_matrix,
    loss_terms_rows,
)
from .model import (
    Architecture,
    ModelParams,
    backward,
    forward_batch,
    forward_stack,
    init_params,
)
from .numerics import (
    InvalidInputError,
    clamped_log,
    entropy_rows,
    random_stream,
    row_max,
    row_sum,
    softmax_rows,
)
from .pseudo_labels import PseudoTable, pseudo_probs_rows

# what verify judges by, each read where a section records it and judges by it
LINK_TOLERANCE = 1e-2  # |r| below which a row satisfies the exponential link
LINK_PASS_FRACTION = 0.9  # share of unlabeled rows within LINK_TOLERANCE to pass
FLATNESS_TOLERANCE = 1e-6  # allowed p_tilde_n - p_hat_n on link-satisfying rows
BOUND_TOLERANCE = 1e-12  # allowed excess of the algebraic flattening bound
SUM_DRIFT_TOLERANCE = 1e-6  # allowed |sum(y~) - init_sum| of a kl_pred_pseudo row
GRADIENT_TOLERANCE = 1e-6  # worst relative error of each gradient path but one
DEEP_GRADIENT_TOLERANCE = 1e-5  # params:deep's, whose differences are noisier
VERIFY_GRADIENT_TRIALS = 25  # gradient oracle instances per path
VERIFY_BOUND_SAMPLES = 100_000  # draws of the algebraic flattening bound

# the note of a link or flatness section that has no rows to judge
NO_LIVE_ROWS = "no unlabeled, unfrozen rows: nothing to check"


# ---------------------------------------------------------------------------
# Exponential link


def link_residuals(
    params: ModelParams, table: PseudoTable, split: SplitDataset, cfg: LossConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_hat, p_tilde, r) over the unlabeled rows from one fresh forward
    pass: the predictions, the pseudo-label rows and each row's residual."""
    unl = split.unlabeled_idx
    p_hat = forward_batch(params, split.base.features[unl]).p_hat
    p_tilde = pseudo_probs_rows(table, unl)
    logs = (clamped_log(p_hat), clamped_log(p_tilde))
    return p_hat, p_tilde, link_residual_rows(p_hat, p_tilde, logs, cfg)


def link_residual_rows(
    p_hat: np.ndarray, p_tilde: np.ndarray, logs: tuple[np.ndarray, np.ndarray], cfg: LossConfig
) -> np.ndarray:
    """Residual r of each prediction row against its pseudo-label row, from
    the rows and their clamped logs ``logs = (log p_hat, log p_tilde)``: the
    predicted-class column of ``link_residual_matrix``.

    Uses each example's own loss value, not a batch mean: the stationarity
    argument is per-example.
    """
    lc, le = loss_terms_rows(p_hat, p_tilde, cfg.variant, logs)
    total = cfg.alpha * lc + cfg.beta * le
    n = p_hat.argmax(axis=1)
    return link_residual_matrix(*logs, total, cfg.alpha, cfg.beta)[np.arange(n.size), n]


def check_link_residual(
    params: ModelParams, table: PseudoTable, split: SplitDataset, cfg: LossConfig
) -> dict:
    """The ``link_residual`` section: quantiles of |r| over the unlabeled
    rows; it passes when at least ``LINK_PASS_FRACTION`` of them lie within
    ``LINK_TOLERANCE``."""
    if cfg.variant != VARIANT_KL_PRED_PSEUDO:
        raise InvalidInputError("the exponential link is proved for the kl_pred_pseudo loss only")
    _, _, r = link_residuals(params, table, split, cfg)
    if r.size == 0:
        return {"asserted": False, "pass": True, "note": NO_LIVE_ROWS}
    within = float((np.abs(r) < LINK_TOLERANCE).mean())
    return {
        **residual_quantiles(r),
        "fraction_within": within,
        "tolerance": LINK_TOLERANCE,
        "asserted": True,
        "pass": within >= LINK_PASS_FRACTION,
    }


QUANTILES = (0.5, 0.9, 0.99)


@functools.lru_cache(maxsize=16)
def _quantile_plan(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, float], ...]]:
    """The kth indices to partition ``n`` values at, and per quantile the
    ``(lo, hi, t)`` of numpy's linear rule at virtual index ``(n - 1) * q``."""
    plan = []
    for q in QUANTILES:
        v = (n - 1) * q
        lo = math.floor(v)
        plan.append((lo, min(lo + 1, n - 1), v - lo))
    return tuple(sorted({i for lo, hi, _ in plan for i in (lo, hi)})), tuple(plan)


def residual_quantiles(r: np.ndarray) -> dict[str, float]:
    """p50, p90 and p99 of |r|: the ``link_residual`` section's quantiles and
    the report's ``link_residual_*`` columns. The bits of ``np.quantile(np.abs(r),
    QUANTILES)`` without its call overhead: partition, then interpolate as numpy
    does. Empty or non-finite input goes to ``np.quantile`` itself."""
    a = np.abs(r)
    if a.size == 0 or not np.isfinite(a).all():
        qs = [float(q) for q in np.quantile(a, QUANTILES)]
    else:
        kth, plan = _quantile_plan(a.size)
        a.partition(kth)
        qs = []
        for lo, hi, t in plan:
            x, y = float(a[lo]), float(a[hi])
            qs.append(x + (y - x) * t if t < 0.5 else y - (y - x) * (1 - t))
    return {"p50": qs[0], "p90": qs[1], "p99": qs[2]}


# ---------------------------------------------------------------------------
# Flattening


def check_flatness(
    params: ModelParams, table: PseudoTable, split: SplitDataset, cfg: LossConfig
) -> dict:
    """The ``flatness`` section: violations of p_tilde_n <= p_hat_n, beyond
    ``FLATNESS_TOLERANCE``, among link-satisfying examples; it passes when
    there are none.

    The flattening statement is conditional on the link holding, so rows with
    residual magnitude >= ``LINK_TOLERANCE`` are excluded.
    """
    p_hat, p_tilde, r = link_residuals(params, table, split, cfg)
    if r.size == 0:
        return {"asserted": False, "pass": True, "note": NO_LIVE_ROWS}
    mask = np.abs(r) < LINK_TOLERANCE
    n = p_hat.argmax(axis=1)
    rows = np.arange(r.size)
    excess = p_tilde[rows, n][mask] - p_hat[rows, n][mask] - FLATNESS_TOLERANCE
    violations = int((excess > 0).sum())
    return {
        "checked": int(mask.sum()),
        "violations": violations,
        "max_violation": float(excess.max()) if excess.size else 0.0,
        "mean_entropy_pred": float(entropy_rows(p_hat).mean()),
        "mean_entropy_pseudo": float(entropy_rows(p_tilde).mean()),
        "tolerance": FLATNESS_TOLERANCE,
        "asserted": True,
        "pass": violations == 0,
    }


# rows per step of the flatness bound's arithmetic and per p_tilde draw, so
# that its temporaries stay small at any sample count; every row keeps its
# bits, and the stream its state, for any block size
FLAT_BLOCK_ROWS = 2048


def flatness_bound_check(n_samples: int, seed: int) -> dict:
    """Random algebraic check of the flattening bound.

    For random predictions, random pseudo-labels and random alpha > beta the
    loss satisfies L >= -beta*log(p_hat_n), hence
    exp(-L/alpha) * p_hat_n^(1-beta/alpha) <= p_hat_n. Returns violation
    counts, beyond ``BOUND_TOLERANCE``, over ``n_samples`` draws, at least one
    per class count.

    One draw buffer holds ``p_hat``: each class count draws all of its rows
    into it. ``p_tilde`` enters a row only through that row's ``lc`` and
    ``le``, so it is drawn a block of ``FLAT_BLOCK_ROWS`` rows at a time into
    one block buffer and folded into those two terms at once. alpha and beta
    are drawn after all of ``p_tilde``, as one draw of each, and the bound
    then runs over the same blocks.
    """
    sizes = (2, 3, 5, 10)
    if n_samples < len(sizes):
        raise InvalidInputError(f"n_samples must be >= {len(sizes)}, one per class count")
    stream = random_stream(seed, stream_id=3)
    per = n_samples // len(sizes)
    counts = [per] * (len(sizes) - 1) + [n_samples - per * (len(sizes) - 1)]
    hat_buf = np.empty(max(m * nc for m, nc in zip(counts, sizes)))
    tilde_buf = np.empty(min(FLAT_BLOCK_ROWS, max(counts)) * max(sizes))
    violations = 0
    max_excess = -np.inf
    for m, nc in zip(counts, sizes):
        # Dirichlet(1) rows; the draws of gamma(1.0, 1.0, size), and the same stream state
        p_hat = stream.standard_exponential(out=hat_buf[: m * nc].reshape(m, nc))
        blocks = [slice(start, start + FLAT_BLOCK_ROWS) for start in range(0, m, FLAT_BLOCK_ROWS)]
        lc, le = np.empty(m), np.empty(m)
        for rows in blocks:
            ph = p_hat[rows]
            pt = stream.standard_exponential(out=tilde_buf[: ph.size].reshape(ph.shape))
            ph /= row_sum(ph)[:, None]
            pt /= row_sum(pt)[:, None]
            lc[rows], le[rows] = loss_terms_rows(ph, pt, VARIANT_KL_PRED_PSEUDO)
        alpha = stream.uniform(0.02, 0.5, size=m)
        beta = alpha * stream.uniform(0.0, 0.999, size=m)
        for rows in blocks:
            a, b = alpha[rows], beta[rows]
            total = a * lc[rows] + b * le[rows]
            top = row_max(p_hat[rows])
            bound = np.exp(-total / a) * top ** (1.0 - b / a)
            excess = bound - top - BOUND_TOLERANCE
            violations += int((~(excess <= 0)).sum())  # a NaN bound is a violation
            max_excess = float(np.maximum(max_excess, (bound - top).max()))  # and propagates
    return {
        "samples": sum(counts),
        "violations": violations,
        "max_excess": max_excess,
        "tolerance": BOUND_TOLERANCE,
    }


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle

FD_STEP = 1e-5
# trials per loss call of the pseudo and logits paths, so that one call's
# memory stays bounded at any trial count; the draws and every result are
# the same for any block size
FD_BLOCK_TRIALS = 1024


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Each row's worst absolute error over its numeric gradient's scale;
    ``inf`` where either side has a non-finite entry (the ratio is then NaN
    or inf)."""
    scale = np.maximum(np.abs(numeric).max(axis=1), 1e-12)
    with np.errstate(invalid="ignore"):
        err = np.abs(analytic - numeric).max(axis=1) / scale
    err[np.isnan(err)] = math.inf
    return err


def _central_diff(loss_rows, x: np.ndarray) -> np.ndarray:
    """Central differences of a loss at each row of ``x``, a ``(n, d)`` stack
    of independent inputs, from one ``loss_rows`` call.

    ``loss_rows`` maps a ``(2 * n * d, d)`` stack of copies of the rows to one
    loss per row: row ``2 * (r * d + i)`` holds row ``r`` of ``x`` with
    ``FD_STEP`` added at entry ``i``, and the row after it holds it
    subtracted there. Returns the ``(n, d)`` gradients; ``x`` is never written.
    """
    n, d = x.shape
    idx = np.arange(d)
    stack = np.repeat(x, 2 * d, axis=0)
    sides = stack.reshape(n, d, 2, d)  # [input, entry moved, side, entry]
    sides[:, idx, 0, idx] = x + FD_STEP
    sides[:, idx, 1, idx] = x - FD_STEP
    f = loss_rows(stack).reshape(n, d, 2)
    return (f[..., 0] - f[..., 1]) / (2.0 * FD_STEP)


def _loss_total_rows(
    y_hat: np.ndarray, y_tilde: np.ndarray, variant: str, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """``alpha * Lc + beta * Le`` of each row pair of logits, with the Lc
    ``variant`` and each row's own ``alpha`` and ``beta``."""
    lc, le = loss_terms_rows(softmax_rows(y_hat), softmax_rows(y_tilde), variant)
    return alpha * lc + beta * le


def _softmax_paths(stream, variant: str, trials: int):
    """Worst relative error of the ``pseudo`` and ``logits`` gradients of
    ``variant`` over ``trials`` random single-row instances.

    Trials are drawn in order, a block at a time; the trials of a block that
    share a class count get their central differences from one loss call and
    their analytic gradients from one ``joint_loss_rows`` call with each
    trial's own weights.
    """
    worst_pseudo = worst_logits = 0.0
    for start in range(0, trials, FD_BLOCK_TRIALS):
        groups: dict[int, list] = {}  # class count -> its trials' (alpha, beta, y_hat, y_tilde)
        for _ in range(min(FD_BLOCK_TRIALS, trials - start)):
            nc = int(stream.integers(2, 8))
            alpha, beta = float(stream.uniform(0.05, 0.5)), float(stream.uniform(0.0, 0.04))
            y_hat = stream.normal(0.0, 2.0, size=(1, nc))
            y_tilde = stream.normal(0.0, 2.0, size=(1, nc))
            groups.setdefault(nc, []).append((alpha, beta, y_hat, y_tilde))
        for nc, group in groups.items():
            alphas, betas, y_hats, y_tildes = zip(*group)
            alpha, beta = np.array(alphas), np.array(betas)
            y_hat, y_tilde = np.concatenate(y_hats), np.concatenate(y_tildes)
            a, b = np.repeat(alpha, 2 * nc), np.repeat(beta, 2 * nc)
            # the operand that does not move is repeated to each input's 2*nc rows
            num_pseudo = _central_diff(lambda s: _loss_total_rows(
                np.repeat(y_hat, 2 * nc, axis=0), s, variant, a, b), y_tilde)
            num_logits = _central_diff(lambda s: _loss_total_rows(
                s, np.repeat(y_tilde, 2 * nc, axis=0), variant, a, b), y_hat)
            loss = joint_loss_rows(softmax_rows(y_hat), softmax_rows(y_tilde), variant, alpha, beta)
            worst_pseudo = max(worst_pseudo, float(_rel_err(loss.grad_pseudo, num_pseudo).max()))
            worst_logits = max(worst_logits, float(_rel_err(loss.grad_y, num_logits).max()))
    return worst_pseudo, worst_logits


def finite_diff_suite(seed: int, trials: int) -> dict[str, float]:
    """Worst relative error of each analytic gradient path vs central
    differences over ``trials`` random instances.

    Paths: `pseudo:<variant>` and `logits:<variant>` probe the loss through
    the softmax; `params:linear` and `params:deep` probe the full network
    gradient (zero and three hidden layers). A non-finite gradient on either
    side reports ``inf``.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    stream = random_stream(seed, stream_id=4)
    worst: dict[str, float] = {}
    for variant in VARIANTS:
        worst[f"pseudo:{variant}"], worst[f"logits:{variant}"] = _softmax_paths(
            stream, variant, trials)

    alpha, beta = 0.1, 0.03  # the network paths' fixed weights
    for label, hidden in (("params:linear", ()), ("params:deep", (6, 5, 4))):
        worst[label] = 0.0
        arch = Architecture(4, hidden, 3, activation="tanh")
        for t in range(max(1, trials // 10)):
            variant = VARIANTS[t % len(VARIANTS)]
            params = init_params(arch, seed + t)
            x = stream.normal(0.0, 1.0, size=(3, 4))
            p_tilde = softmax_rows(stream.normal(0.0, 2.0, size=(3, 3)))

            def batch_loss(stack: np.ndarray) -> np.ndarray:
                # every perturbed vector in one stacked forward; the mean
                # loss over the batch per vector
                lc, le = loss_terms_rows(forward_stack(arch, stack, x),
                                         np.tile(p_tilde, (stack.shape[0], 1)), variant)
                return (alpha * lc + beta * le).reshape(stack.shape[0], -1).mean(axis=1)

            trace = forward_batch(params, x)
            loss = joint_loss_rows(trace.p_hat, p_tilde, variant, alpha, beta)
            grads = backward(trace, loss.grad_y / x.shape[0], params)
            numeric = ModelParams(arch, _central_diff(batch_loss, params.flat[None])[0])
            # judged per tensor: one ratio over the whole vector would be looser
            for (_, g), (_, n) in zip(grads.tensors(), numeric.tensors()):
                err = _rel_err(g.reshape(1, -1), n.reshape(1, -1))[0]
                worst[label] = max(worst[label], float(err))
    return worst


def gradient_oracle(seed: int, trials: int) -> dict:
    """The gradient verdict: each path's worst relative error against its
    tolerance, ``DEEP_GRADIENT_TOLERANCE`` for params:deep and
    ``GRADIENT_TOLERANCE`` for every other path."""
    worst = finite_diff_suite(seed, trials)
    tol = {path: DEEP_GRADIENT_TOLERANCE if path == "params:deep" else GRADIENT_TOLERANCE
           for path in worst}
    return {"worst_rel_err": worst, "tolerance": tol, "pass": all(worst[p] < tol[p] for p in worst)}


# ---------------------------------------------------------------------------
# Aggregate verification (consumed by the verify command)


def run_verification(
    params: ModelParams, table: PseudoTable, split: SplitDataset, cfg: LossConfig, seed: int = 0
) -> dict:
    """All checks as one JSON-ready document: {check: {stats, pass, tolerance}}.

    A check that is informational for the active variant, or that has no
    live unlabeled rows to judge, reports ``asserted: false`` and never fails
    the run.
    """
    doc: dict = {"gradient_oracle": {**gradient_oracle(seed, VERIFY_GRADIENT_TRIALS),
                                     "asserted": True}}
    link_ok = cfg.variant == VARIANT_KL_PRED_PSEUDO
    if link_ok:
        doc["link_residual"] = check_link_residual(params, table, split, cfg)
        doc["flatness"] = check_flatness(params, table, split, cfg)
    else:
        doc["link_residual"] = {"asserted": False, "pass": True,
                                "note": f"link check defined for kl_pred_pseudo, variant is {cfg.variant}"}
        doc["flatness"] = {"asserted": False, "pass": True}

    alg = flatness_bound_check(VERIFY_BOUND_SAMPLES, seed)
    doc["flatness_algebraic"] = {**alg, "asserted": True, "pass": alg["violations"] == 0}

    # asserted only for kl_pred_pseudo; informational for the other variants
    drift = float(table.sum_drift().max())
    doc["sum_invariance"] = {
        "max_drift": drift,
        "tolerance": SUM_DRIFT_TOLERANCE,
        "asserted": link_ok,
        "pass": (drift < SUM_DRIFT_TOLERANCE) if link_ok else True,
    }
    doc["all_pass"] = all(v["pass"] for k, v in doc.items() if isinstance(v, dict))
    return doc
