"""Datasets: synthetic generators, IDX (MNIST-format) ingestion, and class-balanced splits.

"Unlabeled" examples keep their true labels in ``Dataset.labels`` so that
evaluation code can score pseudo-label accuracy, but training code must only
read labels through ``SplitDataset.labeled_targets``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import InvalidInputError, random_stream, write_csv

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Pairwise distance between synthetic blob centers; the spread parameter is
# the per-class Gaussian sigma, so separation difficulty = spread / this.
BLOB_CENTER_DISTANCE = 4.0


@dataclass
class Dataset:
    """Feature matrix (examples x dims), integer labels, and the class count."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InvalidInputError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise InvalidInputError("labels length must match example count")
        if self.num_classes < 2:
            raise InvalidInputError("num_classes must be >= 2")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("features contain NaN or infinity")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise InvalidInputError("labels must lie in [0, num_classes)")

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def to_csv(self, path) -> None:
        """Write `x0,...,x{D-1},label` rows."""
        header = [*(f"x{i}" for i in range(self.input_dim)), "label"]
        rows = zip(self.features.tolist(), self.labels.tolist())
        write_csv(path, header, ([*row, lab] for row, lab in rows))


@dataclass
class SplitDataset:
    """A dataset partitioned into labeled and unlabeled index sets."""

    base: Dataset
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray

    def __post_init__(self):
        self.labeled_idx = np.asarray(self.labeled_idx, dtype=np.int64)
        self.unlabeled_idx = np.asarray(self.unlabeled_idx, dtype=np.int64)
        n = self.base.n_examples
        rows = np.concatenate((self.labeled_idx, self.unlabeled_idx))
        # counted, not np.unique'd: its first sort adds 0.5-1.6 MB of RSS to the process
        counts = np.bincount(rows[(rows >= 0) & (rows < n)], minlength=n)
        if (counts > 1).any():
            row = np.flatnonzero(counts > 1)[0]
            for name, idx in (("labeled", self.labeled_idx), ("unlabeled", self.unlabeled_idx)):
                if np.count_nonzero(idx == row) > 1:
                    raise InvalidInputError(f"{name} index {row} appears more than once")
            raise InvalidInputError("labeled and unlabeled index sets overlap")
        if rows.size != n or not counts.all():  # a row missing, or one outside [0, n)
            raise InvalidInputError("split does not cover all examples")

    @property
    def n_labeled(self) -> int:
        return self.labeled_idx.size

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled_idx.size

    @property
    def labeled_mask(self) -> np.ndarray:
        """True at each labeled row of ``base``."""
        mask = np.zeros(self.base.n_examples, dtype=bool)
        mask[self.labeled_idx] = True
        return mask

    def labeled_targets(self) -> np.ndarray:
        """Ground-truth labels of the labeled subset (training-visible)."""
        return self.base.labels[self.labeled_idx]

    def hidden_truth(self, idx) -> np.ndarray:
        """True labels of arbitrary rows. Evaluation-only access path."""
        return self.base.labels[np.asarray(idx, dtype=np.int64)]


def _simplex_vertices(k: int, dim: int) -> np.ndarray:
    """k points in R^dim with equal pairwise distances, deterministic layout.

    Requires dim >= k - 1 (``DataSpec`` checks it); the simplex lives in the
    first k-1 coordinates.
    """
    # Unit-radius regular simplex: |v_i| = 1, v_i.v_j = -1/(k-1) for i != j.
    verts = np.zeros((k, dim), dtype=np.float64)
    for i in range(k - 1):
        verts[i, i] = np.sqrt(1.0 - float((verts[i, :i] ** 2).sum()))
        for j in range(i + 1, k):
            dot = -1.0 / (k - 1)
            verts[j, i] = (dot - float(verts[j, :i] @ verts[i, :i])) / verts[i, i]
    # unit-radius simplex has pairwise distance sqrt(2k/(k-1)); rescale
    pairwise = np.sqrt(2.0 * k / (k - 1))
    return verts * (BLOB_CENTER_DISTANCE / pairwise)


def gen_gaussian_blobs(
    n_classes: int, n_per_class: int, dim: int, spread: float, seed: int
) -> Dataset:
    """Isotropic Gaussian clusters at deterministic simplex-vertex centers."""
    centers = _simplex_vertices(n_classes, dim)
    stream = random_stream(seed, stream_id=0)
    noise = stream.normal(0.0, spread, size=(n_classes * n_per_class, dim))
    feats = np.repeat(centers, n_per_class, axis=0) + noise
    return Dataset(feats, np.repeat(np.arange(n_classes), n_per_class), n_classes)


def gen_two_moons(n_per_class: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles with Gaussian perturbation."""
    t = np.linspace(0.0, np.pi, n_per_class)
    outer = np.column_stack((np.cos(t), np.sin(t)))
    inner = np.column_stack((1.0 - np.cos(t), 0.5 - np.sin(t)))
    feats = np.vstack((outer, inner))
    if noise > 0:
        stream = random_stream(seed, stream_id=0)
        feats = feats + stream.normal(0.0, noise, size=feats.shape)
    labels = np.concatenate(
        (np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64))
    )
    return Dataset(feats, labels, 2)


def _read_be_u32(f, path: Path, what: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise InvalidInputError(f"{path}: truncated while reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, magic: int, kind: str, dims: tuple[str, ...]) -> tuple[list[int], np.ndarray]:
    """The header sizes named ``dims`` and the uint8 payload of the IDX file
    ``path`` of ``kind`` ("image" or "label"), which must start with ``magic``."""
    path = Path(path)
    with path.open("rb") as f:
        found = _read_be_u32(f, path, "magic")
        if found != magic:
            raise InvalidInputError(f"{path}: bad {kind} magic 0x{found:08x}, "
                                    f"expected 0x{magic:08x}")
        sizes = [_read_be_u32(f, path, name) for name in dims]
        n = math.prod(sizes)
        raw = f.read(n)
    if len(raw) != n:
        raise InvalidInputError(f"{path}: truncated {kind} data ({len(raw)} bytes, expected {n})")
    return sizes, np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (big-endian, magic 2051/2049).

    Pixels are scaled to [0, 1]; label values are taken as class indices.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image",
                                            ("count", "rows", "cols"))
    (lcount,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", ("count",))
    if lcount != count:
        raise InvalidInputError(f"image/label count mismatch: {count} images vs {lcount} labels")
    feats = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    num_classes = int(labels.max()) + 1 if labels.size else 2
    return Dataset(feats, labels, max(num_classes, 2))


def split_per_class(ds: Dataset, labeled_per_class: int, seed: int) -> SplitDataset:
    """Uniform per-class sample without replacement; remainder is unlabeled."""
    labeled: list[np.ndarray] = []
    stream = random_stream(seed, stream_id=1)
    for k in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == k)
        if members.size < labeled_per_class:
            raise InvalidInputError(
                f"class {k} has {members.size} members, need {labeled_per_class}"
            )
        pick = stream.choice(members, size=labeled_per_class, replace=False)
        labeled.append(np.sort(pick))
    labeled_idx = np.concatenate(labeled)
    mask = np.ones(ds.n_examples, dtype=bool)
    mask[labeled_idx] = False
    unlabeled_idx = np.flatnonzero(mask)
    return SplitDataset(ds, labeled_idx, unlabeled_idx)
