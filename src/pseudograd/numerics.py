"""Shared float64 numerics: stable softmax/entropy/KL kernels and seeded RNG streams.

Dense matrices and probability vectors are plain ``numpy.ndarray`` objects in
float64, row-major. Validation helpers enforce the invariants (finiteness,
normalization) at API boundaries instead of wrapping arrays in new types.

The log clamp ``LOG_EPS`` is applied inside entropy/KL only; softmax outputs
are never clamped.
"""

from __future__ import annotations

import numpy as np

LOG_EPS = 1e-12


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def as_float_array(v, name: str = "input") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def require_prob_vector(p, name: str = "p", tol: float = 1e-12) -> np.ndarray:
    """Validate that ``p`` is a probability vector: entries in [0, 1], sum 1."""
    arr = as_float_array(p, name)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInputError(f"{name} must be a 1-D vector of length >= 2")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInputError(f"{name} has entries outside [0, 1]")
    if abs(float(arr.sum()) - 1.0) > tol:
        raise InvalidInputError(f"{name} does not sum to 1 (got {arr.sum()!r})")
    return arr


def softmax(v) -> np.ndarray:
    """Shift-invariant stable softmax of a 1-D vector."""
    arr = as_float_array(v, "softmax input")
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInputError("softmax input must be a 1-D vector of length >= 2")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_rows(m) -> np.ndarray:
    """Row-wise stable softmax of a 2-D array."""
    arr = as_float_array(m, "softmax input")
    if arr.ndim != 2:
        raise InvalidInputError("softmax_rows expects a 2-D array")
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOG_EPS))


def entropy(p) -> float:
    """Shannon entropy -sum p*log(p), natural log, with the LOG_EPS clamp."""
    arr = np.asarray(p, dtype=np.float64)
    return float(-(arr * clamped_log(arr)).sum())


def entropy_rows(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    return -(arr * clamped_log(arr)).sum(axis=1)


def kl_divergence(p, q) -> float:
    """KL(p || q) = sum p*(log p - log q), with the LOG_EPS clamp on both logs."""
    parr = np.asarray(p, dtype=np.float64)
    qarr = np.asarray(q, dtype=np.float64)
    if parr.shape != qarr.shape:
        raise InvalidInputError(
            f"kl_divergence length mismatch: {parr.shape} vs {qarr.shape}"
        )
    return float((parr * (clamped_log(parr) - clamped_log(qarr))).sum())


class RandomStream:
    """Seeded, stream-addressable RNG.

    Two streams constructed with the same ``(seed, stream_id)`` produce the
    same draw sequence on every platform (PCG64 under a fixed seed sequence).
    Instances are single-owner: never share one across concurrent workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise InvalidInputError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self.generator.normal(loc, scale, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self.generator.integers(low, high, size)

    def choice(self, a, size=None, replace=True) -> np.ndarray:
        return self.generator.choice(a, size=size, replace=replace)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
