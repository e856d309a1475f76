"""Per-example pseudo-logit storage: initialization, reprediction, readout.

Each training example owns one pseudo-logit row. Labeled rows are frozen at
K * one-hot(label) and never change; unlabeled rows start from the model's
head activation and are optimized during joint training. ``init_sum`` records
each row's sum at the last (re)initialization so the sum-conservation
property of the kl_pred_pseudo update can be asserted at runtime.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SplitDataset
from .model import ModelParams, forward_batch
from .numerics import InvalidInputError, as_float_array, row_sum, softmax_rows

INIT_K = 10.0  # the logit K of a labeled row's frozen K * one-hot


@dataclass
class PseudoTable:
    logits: np.ndarray  # (examples, num_classes)
    frozen: np.ndarray  # (examples,) bool
    init_sum: np.ndarray  # (examples,)

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.frozen = np.asarray(self.frozen, dtype=bool)
        self.init_sum = np.asarray(self.init_sum, dtype=np.float64)
        rows = self.logits.shape[:1]
        if self.logits.ndim != 2 or self.frozen.shape != rows or self.init_sum.shape != rows:
            raise InvalidInputError("logits must be 2-D, with one frozen/init_sum entry per row")

    @property
    def n_examples(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def copy(self) -> "PseudoTable":
        return PseudoTable(self.logits.copy(), self.frozen.copy(), self.init_sum.copy())

    def sum_drift(self) -> np.ndarray:
        """|sum(row) - init_sum| per example."""
        return np.abs(row_sum(self.logits) - self.init_sum)


def init_pseudo(split: SplitDataset, params: ModelParams) -> PseudoTable:
    """Labeled rows: K * one-hot(truth), frozen. Unlabeled rows: head activation."""
    n_classes = split.base.num_classes
    if params.arch.num_classes != n_classes:
        raise InvalidInputError(
            f"model has {params.arch.num_classes} classes, dataset has {n_classes}"
        )
    logits = np.zeros((split.base.n_examples, n_classes))
    frozen = np.zeros(split.base.n_examples, dtype=bool)
    labels = split.labeled_targets()
    logits[split.labeled_idx, labels] = INIT_K
    frozen[split.labeled_idx] = True
    unl = split.unlabeled_idx
    logits[unl] = forward_batch(params, split.base.features[unl]).y_hat
    return PseudoTable(logits, frozen, logits.sum(axis=1))


def repredict(table: PseudoTable, split: SplitDataset, params: ModelParams) -> PseudoTable:
    """Overwrite unfrozen rows with the current head activation; re-record sums.

    Frozen rows are copied bit-identically. Idempotent when the model has not
    changed between calls.
    """
    out = table.copy()
    unfrozen = np.flatnonzero(~table.frozen)
    trace = forward_batch(params, split.base.features[unfrozen])
    out.logits[unfrozen] = trace.y_hat
    out.init_sum[unfrozen] = trace.y_hat.sum(axis=1)
    return out


def pseudo_probs_rows(table: PseudoTable, idx) -> np.ndarray:
    return softmax_rows(table.logits[np.asarray(idx, dtype=np.int64)])


def hard_labels(table: PseudoTable) -> np.ndarray:
    """Argmax per row; ties resolve to the lowest class index."""
    return table.logits.argmax(axis=1).astype(np.int64)


def export_csv(table: PseudoTable, path) -> None:
    """Write `example_id,frozen,y0..y{N-1}` rows for post-hoc analysis."""
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["example_id", "frozen"] + [f"y{i}" for i in range(table.num_classes)]
        )
        for i in range(table.n_examples):
            writer.writerow(
                [i, int(table.frozen[i])] + [repr(float(v)) for v in table.logits[i]]
            )


def save_table(table: PseudoTable, path) -> None:
    """Full-state JSON checkpoint (logits + frozen + init_sum), bit-exact."""
    import json

    doc = {
        "format_version": 1,
        "logits": table.logits.tolist(),
        "frozen": table.frozen.astype(int).tolist(),
        "init_sum": table.init_sum.tolist(),
    }
    Path(path).write_text(json.dumps(doc))


def load_table(path) -> PseudoTable:
    import json

    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != 1:
        raise InvalidInputError("unsupported pseudo-table checkpoint version")
    return PseudoTable(
        as_float_array(doc["logits"], "pseudo-table logits"),
        np.asarray(doc["frozen"], dtype=bool),
        as_float_array(doc["init_sum"], "pseudo-table init_sum"),
    )
