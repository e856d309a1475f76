"""Three-stage training pipeline with the reprediction/decay schedule.

Stage 1 trains the backbone on labeled examples only (cross entropy).
Stage 2 jointly optimizes network weights and unlabeled pseudo-logits under
L = alpha*Lc + beta*Le, in rounds: (re)predict pseudo-logits, train for a
fixed number of epochs, then decay the network learning rate. Stage 3
finetunes on all examples with hard targets taken from the final pseudo
table.

Each stage passes every epoch to one ``Sink``. A ``Report`` is the
pipeline's sink and owns evaluation: built once per pipeline from the split,
the test set and the loss config, it gathers the rows its report rows read
and adds a row per epoch through ``_eval_row``. The stages never see the test
set.

Every draw comes from a stream of the one run seed; ``numerics.random_stream``
lists the streams. Synthetic test sets use seed+1 so the train set matches
the bare generator call for the same seed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import theory
from .config import ArchSpec, DataSpec, LossConfig, StageOneConfig, TrainConfig
from .config import load_config  # noqa: F401  (re-exported with build_dataset)
from .data import Dataset, SplitDataset, gen_gaussian_blobs, gen_two_moons, load_idx, split_per_class
from .loss import VARIANT_KL_PRED_PSEUDO, joint_loss_rows
from .model import Architecture, ModelParams, backward, forward_batch, init_params
from .model import load_checkpoint, save_checkpoint
from .numerics import InvalidInputError, clamped_log, entropy_rows, json_text, make_dir
from .numerics import WriteError, random_stream, read_json, write_csv
from .optimizer import decay_lr, init_opt_state, pseudo_step, sgd_nesterov_step
from .pseudo_labels import PseudoTable, export_csv, hard_labels, init_pseudo, load_table
from .pseudo_labels import pseudo_probs_rows, repredict, save_table

# Report sentinel for "not applicable in this stage" (rows must stay finite).
NA = -1.0


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for error reporting."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"{stage} failed: {original}")
        self.stage = stage


@contextmanager
def stage_errors(stage: str):
    """Re-raise any exception of the block as a StageError naming ``stage``.
    Overflow and invalid-value warnings are off inside it: an overflowed or
    NaN value either fails a finite check that raises by name, or leaves the
    block."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# Report


class ReportRow(NamedTuple):
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


REPORT_COLUMNS = list(ReportRow._fields)


class EpochStats(NamedTuple):
    """One epoch's means, loss columns first; stages 1 and 3 pass ``(ce, ce, 0.0, NA)``."""

    loss_total: float
    loss_lc: float
    loss_le: float
    head_grad_norm: float  # epoch mean of the batch head-weight gradient norm


# sink(stage, epoch, lr, stats, params, table) sees every epoch of every stage; the
# table is None in stage 1, live in stage 2 and read-only in stage 3
Sink = Callable[[int, int, float, EpochStats, ModelParams, PseudoTable | None], object]


def _no_sink(stage, epoch, lr, stats, params, table) -> None:
    """The default sink: it observes nothing and never stops stage 2."""


class Report:
    """Per-epoch metric rows of one pipeline; -1.0 marks fields not
    applicable to a stage. It gathers the rows its evaluations read once:
    the labeled rows and labels, the unlabeled rows and their hidden truth,
    and the test set; ``loss`` is the run's loss config. It is a ``Sink``."""

    def __init__(self, split: SplitDataset, test: Dataset, loss: LossConfig):
        self.rows: list[ReportRow] = []
        self.test, self.loss = test, loss
        self.x_lab = split.base.features[split.labeled_idx]
        self.y_lab = split.labeled_targets()
        self.unl = split.unlabeled_idx
        self.x_unl = split.base.features[self.unl]
        self.y_unl = split.hidden_truth(self.unl)

    def __call__(self, stage: int, epoch: int, lr: float, stats: EpochStats,
                 params: ModelParams, table: PseudoTable | None) -> None:
        """Add the epoch's row, a function of ``params`` and ``table`` alone."""
        self.add(_eval_row(self, stage, epoch, lr, stats, params, table))

    def add(self, row: ReportRow) -> None:
        for name, value in zip(REPORT_COLUMNS, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInputError(f"report field {name} is not finite")
        if self.rows:
            last = self.rows[-1]
            if (row.stage, row.epoch) <= (last.stage, last.epoch):
                raise InvalidInputError("report rows must be monotone in (stage, epoch)")
        self.rows.append(row)

    def to_csv(self, path) -> None:
        write_csv(path, REPORT_COLUMNS, self.rows)

    def stage_rows(self, stage: int) -> list[ReportRow]:
        return [r for r in self.rows if r.stage == stage]


# ---------------------------------------------------------------------------
# Dataset assembly


def build_dataset(spec: DataSpec, seed: int) -> tuple[SplitDataset, Dataset]:
    """Materialize (train split, test set) from a data spec. IDX data trains
    on the first ``take_first`` rows and tests on the last ``holdout`` rows."""
    if spec.kind == "blobs":
        train = gen_gaussian_blobs(spec.n_classes, spec.n_per_class, spec.dim, spec.spread, seed)
        test = gen_gaussian_blobs(spec.n_classes, spec.test_n_per_class, spec.dim, spec.spread,
                                  seed + 1)
    elif spec.kind == "moons":
        train = gen_two_moons(spec.n_per_class, spec.noise, seed)
        test = gen_two_moons(spec.test_n_per_class, spec.noise, seed + 1)
    else:
        full = load_idx(spec.images, spec.labels)
        n_avail = full.n_examples - spec.holdout
        n_train = min(spec.take_first or n_avail, n_avail)
        if n_train < 1:
            raise InvalidInputError("holdout leaves no training rows")
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


def _eval_row(report: Report, stage: int, epoch: int, lr: float, stats: EpochStats,
              params: ModelParams, table: PseudoTable | None) -> ReportRow:
    """One row of ``report`` from the epoch's network and table (None in stage 1)."""
    labeled_acc = accuracy(params, report.x_lab, report.y_lab)
    test_acc = accuracy(params, report.test.features, report.test.labels)
    mean_ent_pred = pseudo_acc = mean_ent_pseudo = drift = p50 = p90 = p99 = NA
    unl = report.unl
    if unl.size:
        p_hat = forward_batch(params, report.x_unl).p_hat
        log_p_hat = clamped_log(p_hat)
        mean_ent_pred = float(entropy_rows(p_hat, log_p_hat).mean())
    if unl.size and table is not None:
        p_tilde = pseudo_probs_rows(table, unl)
        log_p_tilde = clamped_log(p_tilde)
        pseudo_acc = float(np.count_nonzero(hard_labels(table)[unl] == report.y_unl) / unl.size)
        mean_ent_pseudo = float(entropy_rows(p_tilde, log_p_tilde).mean())
        drift = float(table.sum_drift()[unl].max())
        if report.loss.variant == VARIANT_KL_PRED_PSEUDO:
            res = theory.link_residual_rows(p_hat, p_tilde, (log_p_hat, log_p_tilde), report.loss)
            p50, p90, p99 = theory.residual_quantiles(res).values()
    return ReportRow(stage, epoch, lr, *stats[:3], labeled_acc, pseudo_acc, test_acc,
                     mean_ent_pred, mean_ent_pseudo, drift, p50, p90, p99)


class StagePlan(NamedTuple):
    """A supervised stage: ``epochs`` epochs of ``batches`` batches of
    ``batch`` rows, the last one short when ``batch`` does not divide them."""
    epochs: int
    batches: int
    batch: int


class JointPlan(NamedTuple):
    """Stage 2: ``rounds`` rounds of ``epochs`` epochs of ``batches`` batches
    of ``labeled`` then ``unlabeled`` rows, each quota from its own cycling
    pool. The table is re-predicted before the rounds in ``repredict``, and
    the learning rate decays after those in ``decay``. Both are empty when a
    round has no epochs: the weights never move, so a re-prediction would
    rewrite the table it was given, and a decay would precede no step."""
    rounds: int
    epochs: int
    batches: int
    labeled: int
    unlabeled: int
    repredict: tuple[int, ...]
    decay: tuple[int, ...]


class RunPlan(NamedTuple):
    stage1: StagePlan
    stage2: JointPlan
    stage3: StagePlan


def plan(cfg: TrainConfig, split: SplitDataset) -> RunPlan:
    """The run's schedule, derived here once; the stage loops run it. A
    stage-2 epoch is ``ceil(n_examples / batch)`` batches, at least one, with
    fixed quotas, so it need not reach every unlabeled row; without unlabeled
    rows a batch is all labeled. The schema keeps ``batch >= 2`` and the
    fraction in (0, 1), so the labeled quota's clamp to [1, batch - 1] acts
    only on rounding."""
    s1, s2, s3 = cfg.stage1, cfg.stage2, cfg.stage3
    n = split.base.n_examples
    frac = s2.labeled_fraction_per_batch
    lab = min(max(round(s2.batch * frac), 1), s2.batch - 1) if split.n_unlabeled else s2.batch
    rounds = tuple(range(s2.rounds)) if s2.epochs else ()
    return RunPlan(
        StagePlan(s1.epochs, math.ceil(split.n_labeled / s1.batch), s1.batch),
        JointPlan(s2.rounds, s2.epochs, max(1, math.ceil(n / s2.batch)), lab, s2.batch - lab,
                  rounds[1:] if s2.repredict_between_rounds else (),
                  rounds[:-1] if s2.decay_between_rounds else ()),
        StagePlan(s3.epochs, math.ceil(n / s3.batch), s3.batch),
    )


# ---------------------------------------------------------------------------
# Stages


def _supervised_stage(stage: int, stage_cfg: StageOneConfig, p: StagePlan, seed: int,
                      stream_id: int, params: ModelParams, features: np.ndarray,
                      targets: np.ndarray, table: PseudoTable | None, sink: Sink) -> ModelParams:
    """Cross-entropy epochs over a fixed example set (stages 1 and 3) as ``p``
    plans them, each passed to ``sink`` with ``table``."""
    opt = init_opt_state(params, stage_cfg.lr, stage_cfg.wd)
    grads = ModelParams(params.arch, np.empty_like(params.flat))
    stream = random_stream(seed, stream_id=stream_id)
    n = features.shape[0]
    for ep in range(p.epochs):
        order = stream.permutation(n)
        ce_sum = 0.0
        for b in range(p.batches):
            rows = order[b * p.batch : (b + 1) * p.batch]
            trace = forward_batch(params, features[rows])
            g = trace.p_hat  # becomes the cross-entropy gradient in place
            picked = (np.arange(rows.size), targets[rows])
            ce_sum -= float(clamped_log(g[picked]).sum())
            g[picked] -= 1.0
            g /= rows.size
            sgd_nesterov_step(params, backward(trace, g, params, out=grads), opt)
        ce = ce_sum / n
        sink(stage, ep + 1, opt.lr, EpochStats(ce, ce, 0.0, NA), params, table)
    return params


def stage1_supervised(cfg: TrainConfig, split: SplitDataset,
                      sink: Sink = _no_sink) -> ModelParams:
    """Supervised warmup on the labeled subset only."""
    params = init_params(resolve_arch(cfg.arch, split.base), cfg.seed)
    feats = split.base.features[split.labeled_idx]
    return _supervised_stage(1, cfg.stage1, plan(cfg, split).stage1, cfg.seed, 10, params,
                             feats, split.labeled_targets(), None, sink)


def _joint_epoch(params: ModelParams, table: PseudoTable, split: SplitDataset,
                 lcfg: LossConfig, opt, p: JointPlan, lab_pool: _CyclingPool,
                 unl_pool: _CyclingPool, grads: ModelParams, batch) -> EpochStats:
    """One epoch of joint steps as ``p`` plans them. ``grads`` is the stage's
    gradient buffer and ``batch`` its buffers of one batch's rows, inputs and
    pseudo-logits, refilled every step."""
    feats = split.base.features
    rows, x, logits = batch
    tot = lc_s = le_s = hn = 0.0
    for _ in range(p.batches):
        lab_pool.take(rows[: p.labeled])
        unl_pool.take(rows[p.labeled :])
        np.take(feats, rows, axis=0, out=x)
        trace = forward_batch(params, x)
        loss = joint_loss_rows(trace.p_hat, pseudo_probs_rows(table, rows, out=logits),
                               lcfg.variant, lcfg.alpha, lcfg.beta)
        lc_s += float(loss.lc.sum())
        le_s += float(loss.le.sum())
        tot += float(loss.total.sum())
        # joint step from one shared forward pass; gradients of the batch-mean loss
        for grad in (loss.grad_y, loss.grad_pseudo):
            grad /= rows.size
        backward(trace, loss.grad_y, params, out=grads)
        hn += float(np.linalg.norm(grads.head_w))
        sgd_nesterov_step(params, grads, opt)
        pseudo_step(table, loss.grad_pseudo, lcfg.lam, rows)
    n_seen = p.batches * rows.size
    return EpochStats(tot / n_seen, lc_s / n_seen, le_s / n_seen, hn / p.batches)


def stage2_joint(cfg: TrainConfig, params: ModelParams, split: SplitDataset, sink: Sink = _no_sink,
                 table: PseudoTable | None = None) -> tuple[ModelParams, PseudoTable]:
    """Joint optimization of weights and pseudo-logits in the planned rounds.

    Each round: (re)predict pseudo-logits, train its epochs, then decay the
    network learning rate. The first round's prediction is the table
    initialization itself; passing an existing ``table`` continues a previous
    joint-training run instead. A truthy return of ``sink`` stops the stage."""
    s2, p = cfg.stage2, plan(cfg, split).stage2
    opt = init_opt_state(params, s2.lr0, s2.wd)
    stream = random_stream(cfg.seed, stream_id=11)
    if table is None:
        table = init_pseudo(split, params)
    lab_pool = _CyclingPool(split.labeled_idx, stream)
    unl_pool = _CyclingPool(split.unlabeled_idx, stream)  # draws nothing when empty
    grads = ModelParams(params.arch, np.empty_like(params.flat))
    rows = np.empty(p.labeled + p.unlabeled, dtype=np.int64)
    batch = (rows, np.empty((rows.size, split.base.input_dim)),
             np.empty((rows.size, table.num_classes)))
    epoch_global = 0
    for rnd in range(p.rounds):
        if rnd in p.repredict:
            table = repredict(table, split, params)
        for _ in range(p.epochs):
            stats = _joint_epoch(params, table, split, cfg.loss, opt, p, lab_pool, unl_pool,
                                 grads, batch)
            epoch_global += 1
            if sink(2, epoch_global, opt.lr, stats, params, table):
                return params, table
        if rnd in p.decay:
            decay_lr(opt, s2.lr_decay_factor)
    return params, table


def stage3_finetune(cfg: TrainConfig, params: ModelParams, table: PseudoTable,
                    split: SplitDataset, sink: Sink = _no_sink) -> ModelParams:
    """Hard-target finetune on all examples; the pseudo table is read-only."""
    targets = hard_labels(table)
    targets[split.labeled_idx] = split.labeled_targets()
    return _supervised_stage(3, cfg.stage3, plan(cfg, split).stage3, cfg.seed, 12, params,
                             split.base.features, targets, table, sink)


def resolve_arch(spec: ArchSpec, ds: Dataset) -> Architecture:
    return Architecture(input_dim=ds.input_dim, hidden_dims=spec.hidden_dims,
                        num_classes=ds.num_classes, activation=spec.activation)


class RunFiles(NamedTuple):
    """The name of each file of a train run's directory. ``run_pipeline``
    writes all but the manifest, which the command writes when the run ends,
    and ``load_run`` reads a run back."""

    checkpoint1: str
    checkpoint2: str
    checkpoint3: str
    table: str
    table_csv: str
    report: str
    manifest: str


RUN_FILES = RunFiles("checkpoint_stage1.json", "checkpoint_stage2.json", "checkpoint_stage3.json",
                     "pseudo_table.json", "pseudo_table.csv", "report.csv", "manifest.json")


def run_pipeline(cfg: TrainConfig, out_dir=None) -> Report:
    """Execute stages 1 -> 2 -> 3 and return their report; optionally write
    the run's ``RUN_FILES`` but its manifest to ``out_dir``: each stage's
    checkpoint after that stage, the pseudo table (JSON and CSV) after stage
    2 and the report at the end. First every ``RUN_FILES`` file already in
    ``out_dir`` is removed, so a run that fails leaves no earlier run's file
    beside its own; one that cannot be removed is a WriteError naming it.
    The whole run is deterministic per (config, seed). Stage failures are
    re-raised as StageError with the stage name.
    """
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        for path in (out / name for name in RUN_FILES):
            try:
                if not path.is_dir():  # a directory stays, and the write there fails naming it
                    path.unlink(missing_ok=True)
            except OSError as exc:
                raise WriteError(path, exc) from exc
    split, test = build_run_data(cfg)
    report = Report(split, test, cfg.loss)
    with stage_errors("stage1"):
        params = stage1_supervised(cfg, split, report)
    if out is not None:
        make_dir(out)
        save_checkpoint(params, out / RUN_FILES.checkpoint1)
    with stage_errors("stage2"):
        params, table = stage2_joint(cfg, params, split, report)
    if out is not None:
        save_checkpoint(params, out / RUN_FILES.checkpoint2)
        save_table(table, out / RUN_FILES.table)
        export_csv(table, out / RUN_FILES.table_csv)
    with stage_errors("stage3"):
        params = stage3_finetune(cfg, params, table, split, report)
    if out is not None:
        save_checkpoint(params, out / RUN_FILES.checkpoint3)
        report.to_csv(out / RUN_FILES.report)
    return report


def _leaves(doc, key: str = "", depth: int = 2) -> dict[str, str]:
    """Each value of the JSON object ``doc`` as JSON text, by dotted key, down
    to ``depth`` levels: a config's sections and their keys. A deeper value
    is one leaf, so a deeply nested document costs no recursion here."""
    if not isinstance(doc, dict) or not depth:
        return {key: json_text(doc)}
    return {k: v for name, value in doc.items()
            for k, v in _leaves(value, f"{key}.{name}" if key else name, depth - 1).items()}


def load_run(out: Path, cfg: TrainConfig,
             source: str) -> tuple[SplitDataset, ModelParams, PseudoTable]:
    """The split, stage-2 network and pseudo table of the run ``cfg`` in the
    directory ``out``: else InvalidInputError naming the file that is missing
    or is not that run's. The manifest is read last, so a network or table of
    another architecture or split is refused by its own reader. A manifest
    that records no completed ``train`` is refused naming what it records; one
    whose config is not ``cfg`` is refused naming ``source``, the config's
    file, and the keys that differ."""
    split, _ = build_run_data(cfg)
    arch = resolve_arch(cfg.arch, split.base)
    params = load_checkpoint(out / RUN_FILES.checkpoint2, arch)
    table = load_table(out / RUN_FILES.table, split.labeled_mask, arch.num_classes)
    path = out / RUN_FILES.manifest
    manifest = read_json(path, "manifest")
    ran = [manifest.get(k) if isinstance(manifest, dict) else None for k in ("command", "status")]
    if ran != ["train", "ok"]:
        raise InvalidInputError(f"{path}: records command {json_text(ran[0])} and status "
                                f"{json_text(ran[1])}, not a completed train run")
    saved = _leaves(manifest.get("config"))
    want = _leaves(cfg.to_dict())
    keys = sorted(k or "config" for k in saved.keys() | want.keys() if saved.get(k) != want.get(k))
    if keys:
        raise InvalidInputError(f"{path}: the run's config differs from {source} at "
                                f"{', '.join(keys)}")
    return split, params, table


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
