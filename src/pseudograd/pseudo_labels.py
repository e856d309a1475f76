"""Per-example pseudo-logit storage: initialization, reprediction, readout.

Each training example owns one pseudo-logit row. Labeled rows are frozen at
K * one-hot(label) and never change; unlabeled rows start from the model's
head activation and are optimized during joint training. ``init_sum`` records
each row's sum at the last (re)initialization so the sum-conservation
property of the kl_pred_pseudo update can be asserted at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .model import ModelParams, forward_batch
from .numerics import InvalidInputError, json_array, json_text, read_artifact, row_sum
from .numerics import softmax_rows, write_artifact, write_csv

INIT_K = 10.0  # the logit K of a labeled row's frozen K * one-hot
TABLE_VERSION = 1


@dataclass
class PseudoTable:
    logits: np.ndarray  # (examples, num_classes)
    frozen: np.ndarray  # (examples,) bool
    init_sum: np.ndarray  # (examples,)

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
    logits = np.zeros((split.base.n_examples, n_classes))
    logits[split.labeled_idx, split.labeled_targets()] = INIT_K
    unl = split.unlabeled_idx
    logits[unl] = forward_batch(params, split.base.features[unl]).y_hat
    return PseudoTable(logits, split.labeled_mask, logits.sum(axis=1))


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
    header = ["example_id", "frozen", *(f"y{i}" for i in range(table.num_classes))]
    rows = zip(table.frozen.tolist(), table.logits.tolist())
    write_csv(path, header, ([i, frozen, *logits] for i, (frozen, logits) in enumerate(rows)))


def save_table(table: PseudoTable, path) -> None:
    """Full-state JSON checkpoint (logits + frozen + init_sum), bit-exact."""
    write_artifact(path, TABLE_VERSION, logits=table.logits.tolist(),
                   frozen=table.frozen.astype(int).tolist(), init_sum=table.init_sum.tolist())


def load_table(path, frozen: np.ndarray, num_classes: int) -> PseudoTable:
    """The pseudo table in the file ``path``, which must be the one ``save_table`` writes
    for ``num_classes`` and a split whose labeled rows are ``frozen``: else InvalidInputError."""
    doc = read_artifact(path, "pseudo table", TABLE_VERSION, ("logits", "frozen", "init_sum"))
    n = frozen.size
    logits = json_array(doc["logits"], f"{path}: pseudo table", {"rows": n, "classes": num_classes})
    init_sum = json_array(doc["init_sum"], f"{path}: pseudo table init_sum", {"rows": n})
    if json_text(doc["frozen"]) != json_text(frozen.astype(int).tolist()):
        raise InvalidInputError(f"{path}: labeled rows are not the split's {frozen.sum()} of {n}")
    return PseudoTable(logits, frozen.copy(), init_sum)
