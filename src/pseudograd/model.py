"""MLP backbone with a linear classification head, hand-written backprop.

The backbone maps the raw input through fully connected layers to a feature
``f`` (the last hidden width, or the input itself when there are no hidden
layers). The head computes the pre-softmax activation ``y_hat = W^T f`` and
the prediction ``p_hat = softmax(y_hat)``. The head has no bias: the
exponential link the stationarity checks rely on is derived for that head.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import InvalidInputError, json_array, json_text, random_stream, read_artifact
from .numerics import softmax_rows, write_artifact

CHECKPOINT_VERSION = 2

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class Architecture:
    """A network's shape, built from checked values (``config.ArchSpec``), widths as a tuple."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    @property
    def feature_dim(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim


class TensorSlot(NamedTuple):
    """One named tensor of the flat parameter vector: flat[start:stop]."""

    name: str
    start: int
    stop: int
    shape: tuple[int, ...]


@functools.cache
def param_layout(arch: Architecture) -> tuple[TensorSlot, ...]:
    """Every network parameter's slot, in a fixed order; 1-D slots are biases.
    Checkpoints key on these names; the optimizer sees only the flat vector."""
    dims = [arch.input_dim, *arch.hidden_dims]
    shapes = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes += [(f"layer{i}.w", (d_in, d_out)), (f"layer{i}.b", (d_out,))]
    shapes.append(("head.w", (arch.feature_dim, arch.num_classes)))
    slots, start = [], 0
    for name, shape in shapes:
        slots.append(TensorSlot(name, start, start + math.prod(shape), shape))
        start = slots[-1].stop
    return tuple(slots)


def param_count(arch: Architecture) -> int:
    return param_layout(arch)[-1].stop


def weight_mask(arch: Architecture) -> np.ndarray:
    """1.0 on weight-matrix entries, 0.0 on bias entries of the flat vector."""
    return np.concatenate(
        [np.full(s.stop - s.start, float(len(s.shape) == 2)) for s in param_layout(arch)]
    )


@dataclass
class ModelParams:
    """All network parameters in one float64 vector ``flat``; the named
    tensors are views into it, so writing through either changes both."""

    arch: Architecture
    flat: np.ndarray
    layer_weights: list[np.ndarray] = field(init=False, repr=False)  # (in, out)
    layer_biases: list[np.ndarray] = field(init=False, repr=False)  # (out,)
    head_w: np.ndarray = field(init=False, repr=False)  # (feature_dim, N)

    def __post_init__(self):
        if self.flat.shape != (param_count(self.arch),) or self.flat.dtype != np.float64:
            raise InvalidInputError(f"flat must be float64 ({param_count(self.arch)},)")
        views = dict(self.tensors())
        hidden = range(len(self.arch.hidden_dims))
        self.layer_weights = [views[f"layer{i}.w"] for i in hidden]
        self.layer_biases = [views[f"layer{i}.b"] for i in hidden]
        self.head_w = views["head.w"]

    def tensors(self):
        """Yield (name, view) in layout order."""
        for slot in param_layout(self.arch):
            yield slot.name, self.flat[slot.start : slot.stop].reshape(slot.shape)


@dataclass
class ForwardTrace:
    """Per-layer caches from one forward pass over a batch (rows = examples)."""

    x: np.ndarray  # (B, input_dim)
    post_acts: list[np.ndarray]  # per hidden layer, (B, width)
    features: np.ndarray  # (B, feature_dim)
    y_hat: np.ndarray  # (B, N)
    p_hat: np.ndarray  # (B, N)


def init_params(arch: Architecture, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    stream = random_stream(seed, stream_id=2)
    params = ModelParams(arch, np.zeros(param_count(arch)))
    for w in [*params.layer_weights, params.head_w]:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = stream.uniform(-bound, bound, size=w.shape)
    return params


def _activate_in_place(z: np.ndarray, kind: str) -> None:
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _activate_grad(post: np.ndarray, kind: str) -> np.ndarray:
    """Activation derivative from the output alone: a ReLU output is > 0
    exactly where its input is, and tanh' = 1 - tanh^2."""
    if kind == "relu":
        return (post > 0.0).astype(np.float64)
    return 1.0 - post**2


def _check_batch(arch: Architecture, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise InvalidInputError(f"input must be (batch, {arch.input_dim}), got {x.shape}")
    return x


def _layer_loop(h, weights, biases, head_w, activation: str):
    """(post-activations, features, y_hat) of the rows ``h``.

    Each layer is computed in the one buffer its matmul returns (bias and
    activation in place), which rounds exactly as ``act(h @ w + b)`` does.
    The tensors may carry a leading stack axis: ``(K, in, out)`` weights and
    ``(K, 1, out)`` biases, whose matmul computes each slice's product as
    the 2-D matmul does.
    """
    post_acts = []
    for w, b in zip(weights, biases):
        h = h @ w
        h += b
        _activate_in_place(h, activation)
        post_acts.append(h)
    return post_acts, h, h @ head_w


def forward_batch(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Forward pass over a batch; rows are examples."""
    x = _check_batch(params.arch, x)
    post_acts, features, y_hat = _layer_loop(
        x, params.layer_weights, params.layer_biases, params.head_w, params.arch.activation
    )
    return ForwardTrace(x, post_acts, features, y_hat, softmax_rows(y_hat))


def forward_stack(arch: Architecture, stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``p_hat`` of the batch ``x`` under every row of a ``(K, P)`` stack of
    flat parameter vectors, as ``(K * B, N)`` rows: row ``k * B + b`` has the
    bits of ``forward_batch(ModelParams(arch, stack[k]), x).p_hat[b]``.

    Runs forward_batch's layer loop once, on views of the stack laid out by
    ``param_layout``; the stack is never written.
    """
    x = _check_batch(arch, x)
    if stack.ndim != 2 or stack.shape[1] != param_count(arch):
        raise InvalidInputError(f"stack must be (K, {param_count(arch)}), got {stack.shape}")
    k = stack.shape[0]
    views = {}
    for slot in param_layout(arch):
        shape = slot.shape if len(slot.shape) == 2 else (1, *slot.shape)  # a bias spans the rows
        views[slot.name] = stack[:, slot.start : slot.stop].reshape(k, *shape)
    hidden = range(len(arch.hidden_dims))
    _, _, y_hat = _layer_loop(
        x, [views[f"layer{i}.w"] for i in hidden], [views[f"layer{i}.b"] for i in hidden],
        views["head.w"], arch.activation,
    )
    return softmax_rows(y_hat.reshape(-1, arch.num_classes))


def backward(
    trace: ForwardTrace, grad_y_hat: np.ndarray, params: ModelParams, out: ModelParams | None = None
) -> ModelParams:
    """Backprop d(sum over batch of loss)/d(theta) given dL/d(y_hat) rows.

    The gradient is written into ``out`` when given (it may not share memory
    with ``params``), else into a new ModelParams of the same architecture.

    The head-weight gradient column n is sum_b grad_y_hat[b, n] * f[b], which
    reduces to grad_y_hat[n] * f for a single example.
    """
    g = np.asarray(grad_y_hat, dtype=np.float64)
    if g.shape != trace.y_hat.shape:
        raise InvalidInputError(
            f"grad_y_hat shape {g.shape} does not match trace {trace.y_hat.shape}"
        )
    if trace.features.shape[1] != params.head_w.shape[0]:
        raise InvalidInputError("trace feature dim does not match params")
    if out is None:
        out = ModelParams(params.arch, np.empty_like(params.flat))
    elif out.arch != params.arch or np.may_share_memory(out.flat, params.flat):
        raise InvalidInputError("out must be a separate gradient of the params' architecture")
    np.matmul(trace.features.T, g, out=out.head_w)
    dh = g @ params.head_w.T
    for l in reversed(range(len(params.layer_weights))):
        dz = dh * _activate_grad(trace.post_acts[l], params.arch.activation)
        h_prev = trace.x if l == 0 else trace.post_acts[l - 1]
        np.matmul(h_prev.T, dz, out=out.layer_weights[l])
        dz.sum(axis=0, out=out.layer_biases[l])
        if l > 0:  # the gradient wrt the input rows is never read
            dh = dz @ params.layer_weights[l].T
    return out


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned JSON checkpoint; float64 round-trips are bit-exact."""
    write_artifact(path, CHECKPOINT_VERSION, arch=asdict(params.arch),
                   tensors={name: arr.ravel().tolist() for name, arr in params.tensors()})


def load_checkpoint(path, arch: Architecture) -> ModelParams:
    """The network in the checkpoint file ``path``, which must be the one
    ``save_checkpoint`` writes for ``arch``: else InvalidInputError."""
    doc = read_artifact(path, "checkpoint", CHECKPOINT_VERSION, ("arch", "tensors"))
    saved, want = json_text(doc["arch"]), json_text(asdict(arch))
    if saved != want:
        raise InvalidInputError(f"{path}: checkpoint architecture {saved} != configured {want}")
    layout, tensors = param_layout(arch), doc["tensors"]
    if not isinstance(tensors, dict) or sorted(tensors) != sorted(s.name for s in layout):
        raise InvalidInputError(f"{path}: checkpoint tensors are not those of {want}")
    return ModelParams(arch, np.concatenate([json_array(
        tensors[s.name], f"{path}: checkpoint tensor {s.name}", {"entries": s.stop - s.start})
        for s in layout]))
