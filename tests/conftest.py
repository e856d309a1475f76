"""Shared fixtures: the tiny config of the unit tests, the acceptance configs
(each a committed file under configs/ with ``TrainConfig.replace`` changes),
the converged blobs run used by the stationarity checks, the five moons runs
of the benefit tests, and a handwritten-digits IDX pair for the 2-D-feature
reproduction, written by the suite's IDX writer; the one loader of the
repo's scripts; the bisection link-point oracle and the residual it is
checked by; the per-coordinate central differences and the loss total the
gradient tests check against; the calls a run plan makes; the config
schema's configurable values; and the one Hypothesis profile of the
property tests, with the JSON documents that the readers' properties draw."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import struct
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from pseudograd.config import LossConfig, TrainConfig, config_from_dict, load_config
from pseudograd.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset
from pseudograd.loss import loss_terms_rows
from pseudograd.numerics import clamped_log, softmax_rows
from pseudograd.trainer import RunPlan, build_dataset, run_pipeline, stage1_supervised
from pseudograd.trainer import stage2_joint

CONVERGENCE_GATE = 1e-4
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# every run draws the same 20 examples per property and keeps no example
# database; 20 keep the properties' share of the suite's wall time to seconds
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=20)
settings.load_profile("tier1")


def pytest_configure(config):
    """Hypothesis's own caches (it reads constants from the source while
    tests are collected) go to a directory removed when the run ends, not to
    ``.hypothesis/`` in the working directory."""
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


# any JSON value: every leaf type, an int too large for a float, and nesting
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
# which value of a document to damage: None is the whole document
DOCUMENT_SLOTS = st.none() | st.integers(min_value=0)


def bits(values) -> np.ndarray:
    """The int64 bit patterns of float64 ``values``, an array or a list: two
    results compare equal exactly when every float has the same bits."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def damaged(doc, slot: int | None, value):
    """``value`` when ``slot`` is None; else a copy of the JSON document
    ``doc`` whose ``slot``-th value, counted in document order modulo the
    number of values, is replaced by ``value``."""
    if slot is None:
        return value
    doc = copy.deepcopy(doc)
    slots = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                walk(node[key])

    walk(doc)
    node, key = slots[slot % len(slots)]
    node[key] = value
    return doc

# (dotted key, attribute path, declaration) of every configurable value
FIELDS = [(f"{sec.key}.{fd.key}", (sec.name, fd.name), fd)
          for sec in TrainConfig._SCHEMA if sec.is_section for fd in sec.kind._SCHEMA]
FIELDS += [(fd.key, (fd.name,), fd) for fd in TrainConfig._SCHEMA if not fd.is_section]

# the small blobs run of the unit and command tests
TINY_DOC = {
    "data": {"kind": "blobs", "n_classes": 3, "n_per_class": 20, "dim": 2,
             "spread": 0.6, "labeled_per_class": 4, "test_n_per_class": 20},
    "arch": {"hidden_dims": [8], "activation": "relu"},
    "loss": {"alpha": 0.1, "beta": 0.03, "lambda": 4000.0, "variant": "kl_pred_pseudo"},
    "stage1": {"epochs": 5, "lr": 0.1, "wd": 0.0, "batch": 8},
    "stage2": {"epochs_per_round": 5, "rounds": 2, "lr0": 0.05, "lr_decay_factor": 0.1,
               "batch": 60, "labeled_fraction_per_batch": 0.25},
    "stage3": {"epochs": 5, "lr": 0.01, "batch": 16},
    "seed": 0,
}


def plan_counts(plan: RunPlan) -> dict[str, int]:
    """The calls a ``run_pipeline`` that follows ``plan`` makes, by the name
    ``trainer`` binds each function to."""
    s1, s2, s3 = plan
    epochs2 = s2.rounds * s2.epochs
    steps2 = epochs2 * s2.batches
    steps = s1.epochs * s1.batches + steps2 + s3.epochs * s3.batches
    return {"sgd_nesterov_step": steps, "backward": steps, "pseudo_step": steps2,
            "_joint_epoch": epochs2, "_eval_row": s1.epochs + epochs2 + s3.epochs,
            "repredict": len(s2.repredict), "decay_lr": len(s2.decay)}


def write_idx(dataset: Dataset, images_path, labels_path, side: int | None = None) -> None:
    """Serialize ``dataset`` as the IDX image/label pair that
    ``data.load_idx`` reads: features in [0, 1], quantized to uint8, as
    square images of edge ``side`` (by default the root of the input dim)."""
    side = side or math.isqrt(dataset.input_dim)
    assert side * side == dataset.input_dim, "not a square image: pass side"
    assert 0.0 <= dataset.features.min() and dataset.features.max() <= 1.0
    pixels = np.round(dataset.features * 255.0).astype(np.uint8)
    head = struct.pack(">IIII", IDX_IMAGE_MAGIC, dataset.n_examples, side, side)
    Path(images_path).write_bytes(head + pixels.tobytes())
    head = struct.pack(">II", IDX_LABEL_MAGIC, dataset.n_examples)
    Path(labels_path).write_bytes(head + dataset.labels.astype(np.uint8).tobytes())


def tiny_config(changes: dict | None = None) -> TrainConfig:
    """The tiny run with ``changes`` (``TrainConfig.replace`` keys) applied."""
    return config_from_dict(TINY_DOC).replace(changes or {})


def write_tiny_config(path: Path, **sections) -> Path:
    """Write the tiny run's document, with whole top-level ``sections`` replaced."""
    path.write_text(json.dumps({**TINY_DOC, **sections}))
    return path


def make_convergence_config(variant: str = "kl_pred_pseudo", rounds: int = 6,
                            epochs_per_round: int = 1500) -> TrainConfig:
    """Well-separated blobs trained until the joint loss is near-stationary.

    Full-dataset batches keep the pseudo-logit tracking in its contractive
    regime; six decayed rounds settle the pseudo table onto the predictions.
    """
    return load_config(CONFIG_DIR / "blobs_convergence.json").replace(
        {"loss.variant": variant, "stage2.rounds": rounds,
         "stage2.epochs_per_round": epochs_per_round})


def make_moons_config(seed: int, alpha: float = 0.1) -> TrainConfig:
    """The two-moons benefit fixture: a wide tanh layer under weight decay
    (kernel-like smoothness) trained with many short reprediction rounds."""
    return load_config(CONFIG_DIR / "moons_ssl.json").replace({"seed": seed, "loss.alpha": alpha})


def make_failure_pair_config(seed: int, alpha: float) -> TrainConfig:
    """Longer moons schedule for the alpha-vs-beta failure comparison."""
    return make_moons_config(seed, alpha=alpha).replace(
        {"stage2.epochs_per_round": 50, "stage2.rounds": 4, "stage2.lr0": 0.1,
         "stage2.lr_decay_factor": 0.3})


def make_trend_config(seed: int, variant: str = "kl_pred_pseudo") -> TrainConfig:
    """Overlapping blobs where schedule quality separates the strategy cells."""
    return load_config(CONFIG_DIR / "blobs_trend.json").replace(
        {"seed": seed, "loss.variant": variant})


def load_script(path: Path) -> ModuleType:
    """The repo script at ``path``, loaded as a module named after its file.
    Its directory is on ``sys.path`` and the module is registered while it
    runs: a script may import its siblings, and a dataclass looks its module
    up."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(path.parent))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
        del sys.modules[spec.name]
    return module


def solve_link_point(p_hat: np.ndarray, cfg: LossConfig, iters: int = 200) -> np.ndarray:
    """Construct a pseudo-label vector that satisfies the link exactly.

    One-dimensional bisection on t = p_tilde_n: the remaining mass 1 - t is
    spread over the other classes proportionally to the prediction, and t is
    solved so that r(t) = 0. Independent of the gradient/training code paths;
    serves as the analytic oracle for the link residual.
    """
    p_hat = np.asarray(p_hat, dtype=np.float64)
    n = int(p_hat.argmax())
    assert p_hat[n] < 1.0 - 1e-9, "prediction too close to one-hot for the 1-D solve"
    off = np.ones(p_hat.size, dtype=bool)
    off[n] = False
    w = p_hat[off] / p_hat[off].sum()

    def point(t: float) -> np.ndarray:
        p_tilde = np.empty_like(p_hat)
        p_tilde[n] = t
        p_tilde[off] = (1.0 - t) * w
        return p_tilde

    def residual(t: float) -> float:
        return residual_of(p_hat, point(t), cfg)

    lo, hi = 1e-12, 1.0 - 1e-12
    assert residual(lo) > 0.0 > residual(hi), "bisection bracket failed; prediction degenerate"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return point(0.5 * (lo + hi))


def residual_of(p_hat: np.ndarray, p_tilde: np.ndarray, cfg: LossConfig) -> float:
    """The link residual r of one prediction row against one pseudo-label
    row, written out from the loss terms: the oracles' check of a link point."""
    lc, le = loss_terms_rows(p_hat[None, :], p_tilde[None, :], cfg.variant)
    total = cfg.alpha * float(lc[0]) + cfg.beta * float(le[0])
    n = int(np.argmax(p_hat))
    return (
        (cfg.alpha - cfg.beta) * float(clamped_log(p_hat[n : n + 1])[0])
        - cfg.alpha * float(clamped_log(p_tilde[n : n + 1])[0])
        - total
    )


def central_diff(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences of the scalar ``fn`` at ``x``, one coordinate at a
    time: ``fn`` is called on a copy of ``x`` with that entry moved by +h,
    then by -h."""
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        moved = x.copy()
        moved[i] = x[i] + h
        fp = fn(moved)
        moved[i] = x[i] - h
        g[i] = (fp - fn(moved)) / (2.0 * h)
    return g


def loss_total(y_hat, y_tilde, variant: str, alpha, beta) -> float:
    """``alpha * Lc + beta * Le`` of logit rows, summed; rows are independent,
    so its gradient holds each row's own gradient."""
    lc, le = loss_terms_rows(softmax_rows(y_hat), softmax_rows(y_tilde), variant)
    return float(np.sum(alpha * lc + beta * le))


class ConvergenceRun:
    """Stage-1 + joint training of the convergence fixture.

    Phase A trains at a constant live learning rate until the per-epoch
    head-weight gradient norm dips below the gate (the statistic orbits and
    keeps drifting down, so the first dip defines "converged"). Phase B
    settles with repredicted, decayed rounds so the pseudo table's tracking
    lag dies out before the flattening bound is checked.
    """

    WARMUP_EPOCHS = 1000
    MAX_EPOCHS = 15_000

    def __init__(self):
        t0 = time.perf_counter()
        cfg = make_convergence_config(rounds=1, epochs_per_round=self.MAX_EPOCHS)
        split, _ = build_dataset(cfg.data, cfg.seed)
        params = stage1_supervised(cfg, split)
        head_grads: list[float] = []
        max_round_drift = [0.0]
        unl = split.unlabeled_idx

        def track(stage, epoch, lr, stats, params, table):
            head_grads.append(stats.head_grad_norm)
            max_round_drift[0] = max(max_round_drift[0], float(table.sum_drift()[unl].max()))

        def gated(stage, epoch, lr, stats, params, table):
            track(stage, epoch, lr, stats, params, table)
            return epoch >= self.WARMUP_EPOCHS and stats.head_grad_norm < CONVERGENCE_GATE

        params, table = stage2_joint(cfg, params, split, gated)
        self.converged = head_grads[-1] < CONVERGENCE_GATE
        self.gate_head_grad = head_grads[-1]
        # settle phase: repredicted, decayed rounds kill the table's tracking
        # lag (saturated rows barely contract on their own, so the reset at
        # each round boundary is what clears residual overshoot)
        settle = make_convergence_config(rounds=4, epochs_per_round=300).replace(
            {"stage2.lr0": 0.01, "stage2.lr_decay_factor": 0.25})
        params, table = stage2_joint(settle, params, split, track, table=table)
        self.cfg = cfg
        self.split = split
        self.params = params
        self.table = table
        self.head_grads = head_grads
        self.max_round_drift = max_round_drift[0]
        self.runtime_s = time.perf_counter() - t0


@pytest.fixture(scope="session")
def converged_run() -> ConvergenceRun:
    return ConvergenceRun()


@pytest.fixture(scope="session")
def moons_reports() -> dict:
    """Seed -> report of the moons fixture for seeds 7-11, trained once for
    the benefit tests of both suites and the golden digests."""
    return {seed: run_pipeline(make_moons_config(seed)) for seed in (7, 8, 9, 10, 11)}


@pytest.fixture(scope="session")
def moons_benefit_runs(moons_reports) -> dict[int, tuple[float, float]]:
    """Seed -> (stage-1 baseline, final) test accuracy of the moons fixture."""
    return {seed: (report.stage_rows(1)[-1].test_acc, report.rows[-1].test_acc)
            for seed, report in moons_reports.items()}


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory) -> dict:
    """IDX image/label files of a handwritten-digit set.

    Prefers real MNIST (MNIST_DIR env var or ./data/mnist); otherwise
    serializes scikit-learn's bundled 8x8 digits through the same format.
    """
    import os

    for root in (os.environ.get("MNIST_DIR"), "data/mnist"):
        if not root:
            continue
        images = Path(root) / "train-images-idx3-ubyte"
        labels = Path(root) / "train-labels-idx1-ubyte"
        if images.exists() and labels.exists():
            return {
                "images": images,
                "labels": labels,
                "source": "mnist",
                "take_first": 50000,
                "holdout": 10000,
                "labeled_per_class": 100,
                "hidden_dims": (64, 2),
            }
    sklearn_datasets = pytest.importorskip(
        "sklearn.datasets", reason="no MNIST files and scikit-learn unavailable"
    )
    x, y = sklearn_datasets.load_digits(return_X_y=True)
    ds = Dataset(x / 16.0, y, 10)
    out = tmp_path_factory.mktemp("digits")
    write_idx(ds, out / "images.idx", out / "labels.idx")
    return {
        "images": out / "images.idx",
        "labels": out / "labels.idx",
        "source": "sklearn-digits",
        "take_first": None,
        "holdout": 297,
        "labeled_per_class": 100,
        "hidden_dims": (32, 2),
    }


def make_digits_config(meta: dict, seed: int = 7) -> TrainConfig:
    return load_config(CONFIG_DIR / "mnist_features.json").replace(
        {"data.images": str(meta["images"]), "data.labels": str(meta["labels"]),
         "data.take_first": meta["take_first"], "data.holdout": meta["holdout"],
         "data.labeled_per_class": meta["labeled_per_class"],
         "arch.hidden_dims": meta["hidden_dims"], "seed": seed})
