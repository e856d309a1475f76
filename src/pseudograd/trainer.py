"""Three-stage training pipeline with the reprediction/decay schedule.

Stage 1 trains the backbone on labeled examples only (cross entropy).
Stage 2 jointly optimizes network weights and unlabeled pseudo-logits under
L = alpha*Lc + beta*Le, in rounds: (re)predict pseudo-logits, train for a
fixed number of epochs, then decay the network learning rate. Stage 3
finetunes on all examples with hard targets taken from the final pseudo
table.

A ``Report`` owns evaluation. Built once per pipeline from the split, the
test set and the loss config, it gathers the rows its report rows read; a
stage given one adds a row per epoch through ``_eval_row``. The stages never
see the test set.

Every draw comes from a stream of the one run seed; ``numerics.random_stream``
lists the streams. Synthetic test sets use seed+1 so the train set matches
the bare generator call for the same seed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import theory
from .config import ArchSpec, ConfigError, DataSpec, LossConfig, StageOneConfig, TrainConfig
from .config import load_config  # noqa: F401  (re-exported with build_dataset)
from .data import Dataset, SplitDataset, gen_gaussian_blobs, gen_two_moons, load_idx, split_per_class
from .loss import joint_loss_rows
from .model import (
    Architecture,
    ModelParams,
    backward,
    forward_batch,
    init_params,
)
from .numerics import InvalidInputError, clamped_log, entropy_rows, random_stream, softmax_rows
from .numerics import write_csv
from .optimizer import decay_lr, init_opt_state, pseudo_step, sgd_nesterov_step
from .pseudo_labels import PseudoTable, hard_labels, init_pseudo, repredict

MOMENTUM = 0.9

# Report sentinel for "not applicable in this stage" (rows must stay finite).
NA = -1.0


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for error reporting."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"{stage} failed: {original}")
        self.stage = stage


@contextmanager
def stage_errors(stage: str):
    """Re-raise any exception of the block as a StageError naming ``stage``."""
    try:
        yield
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# Report


@dataclass
class ReportRow:
    stage: int
    epoch: int
    lr: float
    loss_total: float
    loss_lc: float
    loss_le: float
    labeled_acc: float
    unlabeled_pseudo_acc: float
    test_acc: float
    mean_entropy_pred: float
    mean_entropy_pseudo: float
    max_sum_drift: float
    link_residual_p50: float
    link_residual_p90: float
    link_residual_p99: float


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]


class PseudoEval(NamedTuple):
    """The report fields read off the pseudo table, with the unlabeled rows'
    pseudo-label probabilities and their clamped logs."""

    acc: float
    mean_entropy: float
    drift: float
    p_tilde: np.ndarray
    log_p_tilde: np.ndarray


class Report:
    """Per-epoch metric rows of one pipeline; -1.0 marks fields not
    applicable to a stage. It gathers the rows its evaluations read once:
    the labeled rows and labels, the unlabeled rows and their hidden truth,
    and the test set; ``loss`` is the run's loss config."""

    def __init__(self, split: SplitDataset, test: Dataset, loss: LossConfig):
        self.rows: list[ReportRow] = []
        self.test, self.loss = test, loss
        self.x_lab = split.base.features[split.labeled_idx]
        self.y_lab = split.labeled_targets()
        self.unl = split.unlabeled_idx
        self.x_unl = split.base.features[self.unl]
        self.y_unl = split.hidden_truth(self.unl)

    def pseudo_eval(self, table: PseudoTable) -> PseudoEval | None:
        """The table's fields over the unlabeled rows; None without any."""
        if not self.unl.size:
            return None
        logits = np.take(table.logits, self.unl, axis=0)
        p_tilde = softmax_rows(logits)
        log_p_tilde = clamped_log(p_tilde)
        return PseudoEval(
            float(np.count_nonzero(logits.argmax(axis=1) == self.y_unl) / self.unl.size),
            float(entropy_rows(p_tilde, log_p_tilde).mean()),
            float(table.sum_drift()[self.unl].max()),
            p_tilde,
            log_p_tilde,
        )

    def add(self, row: ReportRow) -> None:
        for name in REPORT_COLUMNS:
            value = getattr(row, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInputError(f"report field {name} is not finite")
        if self.rows:
            last = self.rows[-1]
            if (row.stage, row.epoch) <= (last.stage, last.epoch):
                raise InvalidInputError("report rows must be monotone in (stage, epoch)")
        self.rows.append(row)

    def to_csv(self, path) -> None:
        rows = ([getattr(row, c) for c in REPORT_COLUMNS] for row in self.rows)
        write_csv(path, REPORT_COLUMNS, rows)

    def stage_rows(self, stage: int) -> list[ReportRow]:
        return [r for r in self.rows if r.stage == stage]


# ---------------------------------------------------------------------------
# Dataset assembly


def build_dataset(spec: DataSpec, seed: int) -> tuple[SplitDataset, Dataset]:
    """Materialize (train split, test set) from a data spec. IDX data trains
    on the first ``take_first`` rows and tests on the last ``holdout`` rows."""
    if spec.kind == "blobs":
        train = gen_gaussian_blobs(spec.n_classes, spec.n_per_class, spec.dim, spec.spread, seed)
        test = gen_gaussian_blobs(
            spec.n_classes, spec.test_n_per_class, spec.dim, spec.spread, seed + 1
        )
    elif spec.kind == "moons":
        train = gen_two_moons(spec.n_per_class, spec.noise, seed)
        test = gen_two_moons(spec.test_n_per_class, spec.noise, seed + 1)
    else:
        full = load_idx(spec.images, spec.labels)
        n_avail = full.n_examples - spec.holdout
        n_train = min(spec.take_first or n_avail, n_avail)
        if n_train < 1:
            raise ConfigError("holdout leaves no training rows")
        train = Dataset(full.features[:n_train], full.labels[:n_train], full.num_classes)
        test = Dataset(full.features[-spec.holdout :], full.labels[-spec.holdout :],
                       full.num_classes)
    if spec.standardize:
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
        std[std < 1e-12] = 1.0
        train = Dataset((train.features - mean) / std, train.labels, train.num_classes)
        test = Dataset((test.features - mean) / std, test.labels, test.num_classes)
    split = split_per_class(train, spec.labeled_per_class, seed)
    return split, test


def build_run_data(cfg: TrainConfig) -> tuple[SplitDataset, Dataset]:
    """``build_dataset`` for a run; any failure is a StageError naming "data"."""
    with stage_errors("data"):
        return build_dataset(cfg.data, cfg.seed)


# ---------------------------------------------------------------------------
# Shared training machinery


class _CyclingPool:
    """Deterministic shuffled index pool that reshuffles when exhausted."""

    def __init__(self, idx: np.ndarray, stream: np.random.Generator):
        self.idx = np.asarray(idx, dtype=np.int64)
        self.stream = stream
        self.order = self.idx[stream.permutation(self.idx.size)]
        self.pos = 0

    def take(self, out: np.ndarray) -> None:
        """Fill ``out`` with the next indices."""
        filled = 0
        while filled < out.size:
            if self.pos >= self.order.size:
                self.order = self.idx[self.stream.permutation(self.idx.size)]
                self.pos = 0
            n = min(out.size - filled, self.order.size - self.pos)
            out[filled : filled + n] = self.order[self.pos : self.pos + n]
            self.pos += n
            filled += n


def accuracy(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    pred = forward_batch(params, x).p_hat.argmax(axis=1)
    return float(np.count_nonzero(pred == y) / y.size)  # the bits of (pred == y).mean()


def _eval_row(report: Report, stage: int, epoch: int, lr: float, loss_total: float,
              loss_lc: float, loss_le: float, params: ModelParams,
              pseudo: PseudoTable | PseudoEval | None) -> ReportRow:
    """One row of ``report``. ``pseudo`` is the pseudo table, its
    ``pseudo_eval`` when the table is read-only for the whole stage, or None
    before stage 2."""
    if isinstance(pseudo, PseudoTable):
        pseudo = report.pseudo_eval(pseudo)
    labeled_acc = accuracy(params, report.x_lab, report.y_lab)
    test_acc = accuracy(params, report.test.features, report.test.labels)
    mean_ent_pred = pseudo_acc = mean_ent_pseudo = drift = p50 = p90 = p99 = NA
    if report.unl.size:
        p_hat = forward_batch(params, report.x_unl).p_hat
        log_p_hat = clamped_log(p_hat)
        mean_ent_pred = float(entropy_rows(p_hat, log_p_hat).mean())
    if pseudo is not None:
        pseudo_acc, mean_ent_pseudo, drift = pseudo.acc, pseudo.mean_entropy, pseudo.drift
        if report.loss.variant == "kl_pred_pseudo":
            logs = (log_p_hat, pseudo.log_p_tilde)
            res = theory.link_residual_rows(p_hat, pseudo.p_tilde, logs, report.loss)
            p50, p90, p99 = theory.residual_quantiles(res).values()
    return ReportRow(stage, epoch, lr, loss_total, loss_lc, loss_le, labeled_acc, pseudo_acc,
                     test_acc, mean_ent_pred, mean_ent_pseudo, drift, p50, p90, p99)


# ---------------------------------------------------------------------------
# Stages


def _supervised_stage(
    stage: int,
    stage_cfg: StageOneConfig,
    seed: int,
    stream_id: int,
    params: ModelParams,
    features: np.ndarray,
    targets: np.ndarray,
    table: PseudoTable | None,
    report: Report | None,
) -> ModelParams:
    """Cross-entropy epochs over a fixed example set (stages 1 and 3), with
    one report row per epoch when ``report`` is given."""
    opt = init_opt_state(params, stage_cfg.lr, MOMENTUM, stage_cfg.wd)
    grads = ModelParams(params.arch, np.empty_like(params.flat))
    stream = random_stream(seed, stream_id=stream_id)
    if report is not None:  # the table is read-only here: its fields are read once
        pseudo = report.pseudo_eval(table) if table is not None else None
    n = features.shape[0]
    for ep in range(stage_cfg.epochs):
        order = stream.permutation(n)
        ce_sum = 0.0
        for lo in range(0, n, stage_cfg.batch):
            rows = order[lo : lo + stage_cfg.batch]
            trace = forward_batch(params, features[rows])
            g = trace.p_hat  # becomes the cross-entropy gradient in place
            picked = (np.arange(rows.size), targets[rows])
            ce_sum -= float(clamped_log(g[picked]).sum())
            g[picked] -= 1.0
            g /= rows.size
            sgd_nesterov_step(params, backward(trace, g, params, out=grads), opt)
        if report is not None:
            ce = ce_sum / n
            report.add(_eval_row(report, stage, ep + 1, opt.lr, ce, ce, 0.0, params, pseudo))
    return params


def stage1_supervised(
    cfg: TrainConfig, split: SplitDataset, report: Report | None = None
) -> ModelParams:
    """Supervised warmup on the labeled subset only."""
    params = init_params(resolve_arch(cfg.arch, split.base), cfg.seed)
    feats = split.base.features[split.labeled_idx]
    return _supervised_stage(1, cfg.stage1, cfg.seed, 10, params, feats,
                             split.labeled_targets(), None, report)


def _mixed_batch_plan(
    split: SplitDataset, batch: int, frac: float
) -> tuple[int, int, int]:
    """(batches per epoch, labeled quota, unlabeled quota) for stage-2 epochs.

    An epoch is ``ceil(n_examples / batch)`` batches with fixed quotas, each
    quota drawn from its own cycling pool, so an epoch need not reach every
    unlabeled row: the median stage-2 epoch draws 768 distinct of 992
    unlabeled rows on moons_ssl, 422 of 591 on blobs_trend and 396 of 570
    on blobs_convergence. The schema keeps ``batch >= 2`` and ``frac`` in
    (0, 1), so the clamp of the labeled quota to [1, batch - 1] acts only on
    rounding, e.g. 0.01 of 16 rows.
    """
    n_total = split.base.n_examples
    n_batches = max(1, math.ceil(n_total / batch))
    if split.n_unlabeled == 0:
        return n_batches, batch, 0
    lab_quota = int(round(batch * frac))
    lab_quota = min(max(lab_quota, 1), batch - 1)
    return n_batches, lab_quota, batch - lab_quota


@dataclass
class StageTwoStats:
    """Per-epoch aggregates from one joint-training epoch."""

    loss_total: float
    loss_lc: float
    loss_le: float
    head_grad_norm: float  # epoch mean of the batch head-weight gradient norm


def _joint_epoch(
    params: ModelParams,
    table: PseudoTable,
    split: SplitDataset,
    lcfg: LossConfig,
    opt,
    batch: int,
    frac: float,
    lab_pool: _CyclingPool,
    unl_pool: _CyclingPool,
    grads: ModelParams,
) -> StageTwoStats:
    """One epoch of joint steps; ``grads`` is the stage's gradient buffer."""
    n_batches, lab_q, unl_q = _mixed_batch_plan(split, batch, frac)
    feats = split.base.features
    # one batch's rows, inputs and pseudo-logits, refilled every step
    rows = np.empty(lab_q + unl_q, dtype=np.int64)
    x = np.empty((rows.size, feats.shape[1]))
    logits = np.empty((rows.size, table.num_classes))
    tot = lc_s = le_s = hn = 0.0
    n_seen = 0
    for _ in range(n_batches):
        lab_pool.take(rows[:lab_q])
        unl_pool.take(rows[lab_q:])
        np.take(feats, rows, axis=0, out=x)
        np.take(table.logits, rows, axis=0, out=logits)
        trace = forward_batch(params, x)
        loss = joint_loss_rows(trace.p_hat, softmax_rows(logits), lcfg)
        lc_s += float(loss.lc.sum())
        le_s += float(loss.le.sum())
        tot += float(loss.total.sum())
        n_seen += rows.size
        # joint step from one shared forward pass; gradients of the batch-mean loss
        for grad in (loss.grad_y, loss.grad_pseudo):
            grad /= rows.size
        backward(trace, loss.grad_y, params, out=grads)
        hn += float(np.linalg.norm(grads.head_w))
        sgd_nesterov_step(params, grads, opt)
        pseudo_step(table, loss.grad_pseudo, lcfg.lam, rows)
    return StageTwoStats(tot / n_seen, lc_s / n_seen, le_s / n_seen, hn / n_batches)


def stage2_joint(
    cfg: TrainConfig,
    params: ModelParams,
    split: SplitDataset,
    report: Report | None = None,
    epoch_hook=None,
    table: PseudoTable | None = None,
) -> tuple[ModelParams, PseudoTable]:
    """Joint optimization of weights and pseudo-logits with the round schedule.

    Each round: (re)predict pseudo-logits, train ``epochs`` epochs, then decay
    the network learning rate. The first round's prediction is the table
    initialization itself; passing an existing ``table`` continues a previous
    joint-training run instead. ``epoch_hook(round, epoch, params, table,
    stats)`` runs after every epoch, before report emission; a truthy return
    value stops the stage early (used for convergence-gated training).
    """
    s2 = cfg.stage2
    opt = init_opt_state(params, s2.lr0, MOMENTUM, s2.wd)
    stream = random_stream(cfg.seed, stream_id=11)
    if table is None:
        table = init_pseudo(split, params)
    lab_pool = _CyclingPool(split.labeled_idx, stream)
    unl_pool = _CyclingPool(split.unlabeled_idx, stream)  # draws nothing when empty
    grads = ModelParams(params.arch, np.empty_like(params.flat))
    epoch_global = 0
    for rnd in range(s2.rounds):
        if rnd > 0 and s2.repredict_between_rounds:
            table = repredict(table, split, params)
        for _ in range(s2.epochs):
            stats = _joint_epoch(params, table, split, cfg.loss, opt, s2.batch,
                                 s2.labeled_fraction_per_batch, lab_pool, unl_pool, grads)
            epoch_global += 1
            stop = epoch_hook(rnd, epoch_global, params, table, stats) if epoch_hook else None
            if report is not None:
                report.add(_eval_row(report, 2, epoch_global, opt.lr, stats.loss_total,
                                     stats.loss_lc, stats.loss_le, params, table))
            if stop:
                return params, table
        if s2.decay_between_rounds and rnd < s2.rounds - 1:
            decay_lr(opt, s2.lr_decay_factor)
    return params, table


def stage3_finetune(
    cfg: TrainConfig,
    params: ModelParams,
    table: PseudoTable,
    split: SplitDataset,
    report: Report | None = None,
) -> ModelParams:
    """Hard-target finetune on all examples; the pseudo table is read-only."""
    targets = hard_labels(table)
    targets[split.labeled_idx] = split.labeled_targets()
    return _supervised_stage(3, cfg.stage3, cfg.seed, 12, params, split.base.features,
                             targets, table, report)


def resolve_arch(spec: ArchSpec, ds: Dataset) -> Architecture:
    return Architecture(
        input_dim=ds.input_dim,
        hidden_dims=spec.hidden_dims,
        num_classes=ds.num_classes,
        activation=spec.activation,
    )


def run_pipeline(cfg: TrainConfig, out_dir=None) -> Report:
    """Execute stages 1 -> 2 -> 3 and return their report; optionally write
    artifacts to ``out_dir``.

    Artifacts: report.csv, pseudo_table.csv, checkpoint_stage{1,2,3}.json,
    pseudo_table.json. The whole run is deterministic per (config, seed).
    Stage failures are re-raised as StageError with the stage name.
    """
    from .model import save_checkpoint
    from .pseudo_labels import export_csv, save_table

    split, test = build_run_data(cfg)
    report = Report(split, test, cfg.loss)
    out = Path(out_dir) if out_dir is not None else None
    with stage_errors("stage1"):
        params = stage1_supervised(cfg, split, report)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(params, out / "checkpoint_stage1.json")
    with stage_errors("stage2"):
        params, table = stage2_joint(cfg, params, split, report)
    if out is not None:
        save_checkpoint(params, out / "checkpoint_stage2.json")
        save_table(table, out / "pseudo_table.json")
        export_csv(table, out / "pseudo_table.csv")
    with stage_errors("stage3"):
        params = stage3_finetune(cfg, params, table, split, report)
    if out is not None:
        save_checkpoint(params, out / "checkpoint_stage3.json")
        report.to_csv(out / "report.csv")
    return report


def intra_class_spread(features: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Mean distance to the class centroid, averaged over classes.

    The compaction ratio (spread after joint training / spread before) drops
    below 1 when same-class features cluster more tightly.
    """
    spreads = []
    for k in range(num_classes):
        rows = features[labels == k]
        if rows.shape[0] < 2:
            continue
        centroid = rows.mean(axis=0)
        spreads.append(float(np.linalg.norm(rows - centroid, axis=1).mean()))
    if not spreads:
        raise InvalidInputError("no class has enough members to measure spread")
    return float(np.mean(spreads))
