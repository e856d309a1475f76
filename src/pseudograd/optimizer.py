"""Optimizers: Nesterov-momentum SGD for network weights, a momentum-free
descent step with its own learning rate for pseudo-logits.

The Nesterov recurrence used here (lookahead form), with mu = ``MOMENTUM``
and g~ = g + wd*theta:

    v     <- mu * v - lr * g~
    theta <- theta + mu * v - lr * g~

With mu = 0 and wd = 0 this reduces to plain SGD. The recurrence runs on the
whole flat parameter vector at once. Weight decay applies to weight-matrix
entries only, never to biases and never to pseudo-logits (a decay term on
pseudo-logits would break their sum conservation). ``init_opt_state`` builds
a network's whole state: learning rate, velocity, per-entry decay and the
step's two buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, weight_mask
from .numerics import InvalidInputError
from .pseudo_labels import PseudoTable

MOMENTUM = 0.9  # mu of every network step


@dataclass
class OptState:
    lr: float
    velocity: np.ndarray
    decay: np.ndarray  # per flat entry
    scratch: np.ndarray  # step temporaries


def init_opt_state(params: ModelParams, lr: float, weight_decay: float = 0.0) -> OptState:
    return OptState(lr, np.zeros_like(params.flat), weight_decay * weight_mask(params.arch),
                    np.empty((2, params.flat.size)))


def sgd_nesterov_step(params: ModelParams, grads: ModelParams, state: OptState) -> None:
    """One in-place Nesterov SGD step over the flat parameter vector."""
    theta = params.flat
    if not grads.flat.size == state.velocity.size == state.scratch.shape[1] == theta.size:
        raise InvalidInputError(
            f"gradient size {grads.flat.size}, velocity size {state.velocity.size} and "
            f"scratch size {state.scratch.shape[1]} must equal param size {theta.size}"
        )
    lr_g, move = state.scratch
    np.multiply(state.decay, theta, out=lr_g)
    lr_g += grads.flat  # g~ = g + wd * theta
    lr_g *= state.lr
    state.velocity *= MOMENTUM
    state.velocity -= lr_g
    np.multiply(state.velocity, MOMENTUM, out=move)
    move -= lr_g
    theta += move


def pseudo_step(table: PseudoTable, pseudo_grads: np.ndarray, lam: float, rows: np.ndarray) -> None:
    """One descent step on pseudo-logits: y~[rows] <- y~[rows] - lam * grad.

    ``rows`` (required) lists the batch's table rows; ``pseudo_grads`` aligns
    with it. Frozen rows are never touched regardless of the gradients
    supplied. No momentum, no weight decay. A row listed twice in ``rows``
    moves by the sum of its gradient rows, as ``backward`` sums both into
    the network step, so this is gradient descent on the batch loss.
    """
    grads = np.asarray(pseudo_grads, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    if grads.shape != (rows.size, table.num_classes):
        raise InvalidInputError(
            f"pseudo_grads shape {grads.shape} != ({rows.size}, {table.num_classes})"
        )
    live = ~table.frozen[rows]
    np.subtract.at(table.logits, rows[live], lam * grads[live])


def decay_lr(state: OptState, factor: float) -> None:
    """Multiply the network learning rate; the velocity is preserved.

    The pseudo-logit learning rate is out of scope here: it stays fixed for a
    whole run.
    """
    state.lr *= factor
