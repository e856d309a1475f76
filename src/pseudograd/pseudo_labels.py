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
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def copy(self) -> "PseudoTable":
        return PseudoTable(self.logits.copy(), self.frozen.copy(), self.init_sum.copy())

    def sum_drift(self) -> np.ndarray:
        """|sum(row) - init_sum| per example."""
        return np.abs(row_sum(self.logits) - self.init_sum)


def _predict_unfrozen(table: PseudoTable, split: SplitDataset, params: ModelParams) -> PseudoTable:
    """``table`` with the head activation and its sums written into its unfrozen rows."""
    unfrozen = np.flatnonzero(~table.frozen)
    y_hat = forward_batch(params, split.base.features[unfrozen]).y_hat
    table.logits[unfrozen] = y_hat
    table.init_sum[unfrozen] = row_sum(y_hat)
    return table


def init_pseudo(split: SplitDataset, params: ModelParams) -> PseudoTable:
    """Labeled rows: K * one-hot(truth), frozen. Unlabeled rows: head activation,
    written as ``repredict`` writes it, so the first prediction is a reprediction."""
    logits = np.zeros((split.base.n_examples, split.base.num_classes))
    logits[split.labeled_idx, split.labeled_targets()] = INIT_K
    table = PseudoTable(logits, split.labeled_mask, row_sum(logits))
    return _predict_unfrozen(table, split, params)


def repredict(table: PseudoTable, split: SplitDataset, params: ModelParams) -> PseudoTable:
    """A copy of ``table`` whose unfrozen rows and sums the current head activation
    overwrites; frozen rows keep their bits. Idempotent while the model is unchanged."""
    return _predict_unfrozen(table.copy(), split, params)


def pseudo_probs_rows(table: PseudoTable, idx, out=None) -> np.ndarray:
    """The pseudo-label probabilities of the rows ``idx``, gathered into ``out``
    if given: every read of the table's rows as probabilities."""
    return softmax_rows(np.take(table.logits, np.asarray(idx, dtype=np.int64), axis=0, out=out))


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
