"""Command-line entry point.

``COMMANDS`` declares every command once: its function, its help line,
whether it writes a run manifest, and its own options. Commands only raise,
one of four types; ``main`` alone turns each into its exit code and its last
stderr line:
- ``ConfigError``, 2, ``config error: ...``: a config rule, checked before
  any work (among them export-features on a penultimate layer that is not
  2-D, or on a split whose labeled or unlabeled rows have no class with 2 or
  more rows);
- ``InvalidInputError``, 2, ``error: ...``: an input the code cannot use,
  named: an --out path that is empty, is or lies under an existing file, or
  that the OS refuses to look up (say, a name too long), and verify
  artifacts that are not the configured run's;
- ``StageError``, 1, ``error: <stage> failed: ...``: any failure inside a
  named stage (``trainer.stage_errors``), verify's checks among them; every
  runtime failure of a command happens inside one;
- ``WriteError``, 1, ``error: cannot write <path>: <reason>``: an output
  file or directory that cannot be written.
verify and gradcheck also exit 1, with a FAIL line on stdout, on a failed
check. A command whose entry sets ``manifest`` writes a run manifest
(config, git describe of the package's checkout, seed, status) even when it
fails, with the failing stage recorded ("output" for a write, unless the
manifest or its directory failed); the others write none.
"""

from __future__ import annotations

import argparse
import functools
import stat
import statistics
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import theory
from .config import VARIANTS, ConfigError, TrainConfig, load_config, warn_alpha_le_beta
from .data import Dataset
from .model import forward_batch, load_checkpoint
from .numerics import InvalidInputError, WriteError, make_dir, write_csv, write_json
from .pseudo_labels import load_table
from .trainer import (
    NA,
    StageError,
    build_run_data,
    intra_class_spread,
    resolve_arch,
    run_pipeline,
    stage1_supervised,
    stage2_joint,
    stage_errors,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

STRATEGY_CELLS = {
    # rounds are taken from the config for every cell except single_round
    "single_round": {"rounds": 1, "repredict": False, "decay": False},
    "repeat": {"repredict": False, "decay": False},
    "repeat_repredict": {"repredict": True, "decay": False},
    "repeat_decay": {"repredict": False, "decay": True},
    "full_schedule": {"repredict": True, "decay": True},
}
_STRATEGY_KEYS = {"rounds": "stage2.rounds", "repredict": "stage2.repredict_between_rounds",
                  "decay": "stage2.decay_between_rounds"}

# grid -> cell name -> the TrainConfig.replace changes that make the cell
GRIDS = {
    "strategy": {name: {_STRATEGY_KEYS[k]: v for k, v in opts.items()}
                 for name, opts in STRATEGY_CELLS.items()},
    "alpha": {f"alpha={a}": {"loss.alpha": a} for a in (0.1, 0.2, 0.3, 0.4, 0.5)},
    "beta": {f"beta={b}": {"loss.beta": b} for b in (0.01, 0.02, 0.03, 0.04, 0.05)},
    "lc": {variant: {"loss.variant": variant} for variant in VARIANTS},
}


@functools.cache  # the code a process runs is fixed when it is imported
def _git_describe() -> str | None:
    """The checkout holding this package's code, described; None outside one."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _write_manifest(out_dir: Path, cfg: TrainConfig, command: str, status: str,
                    failure_stage: str | None) -> None:
    make_dir(out_dir)
    write_json(out_dir / "manifest.json", {
        "command": command,
        "config": cfg.to_dict(),
        "git_describe": _git_describe(),
        "seed": cfg.seed,
        "status": status,
        "failure_stage": failure_stage,
    })


def cmd_gen_data(args, cfg: TrainConfig, out: Path) -> int:
    make_dir(out)
    split, test = build_run_data(cfg)
    split.base.to_csv(out / "train.csv")
    test.to_csv(out / "test.csv")
    print(f"wrote {split.base.n_examples} train / {test.n_examples} test rows to {out}")
    return EXIT_OK


def cmd_train(args, cfg: TrainConfig, out: Path) -> int:
    run_pipeline(cfg, out_dir=out)
    print(f"run complete; artifacts in {out}")
    return EXIT_OK


def cmd_verify(args, cfg: TrainConfig, out: Path) -> int:
    split, _ = build_run_data(cfg)
    arch = resolve_arch(cfg.arch, split.base)
    # an artifact that is not the configured run's raises InvalidInputError naming the file
    params = load_checkpoint(out / "checkpoint_stage2.json", arch)
    table = load_table(out / "pseudo_table.json", split.labeled_mask, arch.num_classes)
    with stage_errors("verify"):  # say, a forward that overflows on finite weights
        doc = theory.run_verification(params, table, split, cfg.loss, seed=cfg.seed)
    write_json(out / "verification.json", doc)
    for name, entry in doc.items():
        if isinstance(entry, dict):
            mark = "PASS" if entry["pass"] else "FAIL"
            tag = "" if entry.get("asserted", True) else " (informational)"
            print(f"{mark} {name}{tag}")
    return EXIT_OK if doc["all_pass"] else EXIT_FAILURE


def cmd_gradcheck(args, cfg: TrainConfig, out: Path) -> int:
    doc = theory.gradient_oracle(cfg.seed, args.trials)
    make_dir(out)
    write_json(out / "gradcheck.json", doc)
    worst, tol = doc["worst_rel_err"], doc["tolerance"]
    for path in sorted(worst):
        mark = "PASS" if worst[path] < tol[path] else "FAIL"
        print(f"{mark} {path}: worst rel err {worst[path]:.3e} (tol {tol[path]:.0e})")
    return EXIT_OK if doc["pass"] else EXIT_FAILURE


def _cell_configs(cfg: TrainConfig, grid: str) -> list[tuple[str, TrainConfig]]:
    """The grid's (cell name, config) pairs, in table order. When ``cfg`` has
    alpha > beta, one warning names every cell that the grid moves to alpha
    <= beta (a crossing ``cfg`` was flagged when it was loaded)."""
    cells = [(name, cfg.replace(changes)) for name, changes in GRIDS[grid].items()]
    if cfg.loss.alpha > cfg.loss.beta:
        warn_alpha_le_beta([(f"cell {name} has ", cell.loss) for name, cell in cells])
    return cells


def run_ablation(cfg: TrainConfig, grid: str, n_seeds: int) -> list[dict]:
    """Run every grid cell over ``n_seeds`` derived seeds; one summary row per cell."""
    if not (cfg.stage1.epochs or cfg.stage2.epochs or cfg.stage3.epochs):  # no cell sets them
        raise ConfigError("ablate reads each run's last report row, and no stage has an epoch "
                          "(stage1.epochs, stage2.epochs_per_round and stage3.epochs are 0)")
    rows = []
    for name, cell in _cell_configs(cfg, grid):
        test_errors = []
        pseudo_errors = []
        for k in range(n_seeds):
            report = run_pipeline(cell.replace({"seed": cfg.seed + k}))
            test_errors.append(1.0 - report.rows[-1].test_acc)
            s2 = report.stage_rows(2)
            acc = s2[-1].unlabeled_pseudo_acc if s2 else NA  # NA too without unlabeled rows
            pseudo_errors.append(float("nan") if acc == NA else 1.0 - acc)
        rows.append(
            {
                "grid": grid,
                "cell": name,
                "n_seeds": n_seeds,
                "median_test_error": statistics.median(test_errors),
                "mean_test_error": statistics.fmean(test_errors),
                "min_test_error": min(test_errors),
                "max_test_error": max(test_errors),
                "median_pseudo_error": statistics.median(pseudo_errors),
            }
        )
    return rows


def cmd_ablate(args, cfg: TrainConfig, out: Path) -> int:
    rows = run_ablation(cfg, args.grid, args.seeds)
    make_dir(out)
    write_csv(out / "ablation.csv", list(rows[0]), [list(row.values()) for row in rows])
    for row in rows:
        print(
            f"{row['cell']}: median test error {row['median_test_error']:.4f} "
            f"over {row['n_seeds']} seeds"
        )
    return EXIT_OK


def _export_features_csv(feats: np.ndarray, ds: Dataset, labeled_mask: np.ndarray,
                         path: Path) -> None:
    rows = zip(feats.tolist(), ds.labels.tolist(), labeled_mask.tolist())
    header = ["x", "y", "label", "is_labeled"]
    write_csv(path, header, ([*xy, lab, is_lab] for xy, lab, is_lab in rows))


def cmd_export_features(args, cfg: TrainConfig, out: Path) -> int:
    if not cfg.arch.hidden_dims or cfg.arch.hidden_dims[-1] != 2:
        raise ConfigError("export-features needs a 2-D penultimate layer "
                          f"(hidden_dims={list(cfg.arch.hidden_dims)})")
    split, _ = build_run_data(cfg)
    base = split.base
    subsets = {"labeled": split.labeled_idx, "unlabeled": split.unlabeled_idx}
    keys = {"labeled": "data.labeled_per_class",
            "unlabeled": "data.n_per_class minus data.labeled_per_class"}
    for name, idx in subsets.items():  # intra_class_spread needs such a class
        if np.bincount(base.labels[idx], minlength=2).max() < 2:
            raise ConfigError(f"export-features measures each class's spread, and no class has "
                              f"2 or more {name} rows: check {keys[name]}")
    make_dir(out)

    def features(params) -> tuple[np.ndarray, dict[str, float]]:
        """Every row's feature, and each subset's spread from its own forward."""
        with stage_errors("export"):  # say, a forward that overflows after stage 2
            return forward_batch(params, base.features).features, {
                name: intra_class_spread(forward_batch(params, base.features[idx]).features,
                                         base.labels[idx], base.num_classes)
                for name, idx in subsets.items()}

    with stage_errors("stage1"):
        params = stage1_supervised(cfg, split)
    feats, before = features(params)
    _export_features_csv(feats, base, split.labeled_mask, out / "features_before.csv")
    with stage_errors("stage2"):
        params, _ = stage2_joint(cfg, params, split)
    feats, after = features(params)
    _export_features_csv(feats, base, split.labeled_mask, out / "features_after.csv")
    with stage_errors("export"):  # no ratio to a spread of 0, say when every unit is dead
        ratio = {k: after[k] / before[k] for k in before}
    summary = {"spread_before": before, "spread_after": after, "compaction_ratio": ratio}
    write_json(out / "export_summary.json", summary)
    for k in ("labeled", "unlabeled"):
        print(f"{k} compaction ratio (after/before): {summary['compaction_ratio'][k]:.4f}")
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class Command(NamedTuple):
    """A command's ``run(args, cfg, out) -> exit code`` (main loads the
    config), its help line, whether its output directory gets a manifest.json,
    failed or ok, and its own options as (flag, add_argument keywords) pairs."""

    run: Callable[[argparse.Namespace, TrainConfig, Path], int]
    help: str
    manifest: bool
    options: tuple[tuple[str, dict], ...] = ()


COMMANDS = {
    "gen-data": Command(cmd_gen_data, "materialize the configured dataset as CSV", False),
    "train": Command(cmd_train, "run the full three-stage pipeline", True),
    "verify": Command(cmd_verify, "run theory checks against saved artifacts", False),
    "gradcheck": Command(cmd_gradcheck, "finite-difference gradient verification", False, (
        ("--trials", {"type": positive_int, "default": 100,
                      "help": "instances per gradient path"}),)),
    "ablate": Command(cmd_ablate, "run a comparison grid", True, (
        ("--seeds", {"type": positive_int, "default": 5, "help": "seeds per grid cell"}),
        ("--grid", {"choices": list(GRIDS), "default": "strategy",
                    "help": "which grid to sweep"}))),
    "export-features": Command(cmd_export_features,
                               "dump 2-D features before/after joint training", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pseudograd", description=(
        "Train and verify pseudo-label-as-logits semi-supervised models."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--override", action="append", default=[], metavar="K=V",
                       help="config override, e.g. loss.alpha=0.2 (repeatable)")
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return parser


def _check_out(out: str) -> None:
    """Raise InvalidInputError if ``out`` cannot be the output directory: it
    is empty (``Path("")`` is the working directory), it is or lies under an
    existing file, or the OS refuses to look it up, say for a name too long."""
    if not out:
        raise InvalidInputError("--out is empty: name an output directory")
    for path in (Path(out), *Path(out).parents):
        try:
            mode = path.stat().st_mode
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            raise InvalidInputError(f"--out {out} cannot be a directory: {exc.strerror}") from None
        if stat.S_ISDIR(mode):
            return
        raise InvalidInputError(f"--out {out} cannot be a directory: {path} is a file")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    command = COMMANDS[args.command]
    try:
        _check_out(args.out)
        cfg = load_config(args.config, args.override)
        rc = command.run(args, cfg, out)
        if command.manifest and rc == EXIT_OK:
            _write_manifest(out, cfg, args.command, "ok", None)
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:  # --out, or a verify artifact naming its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        failure_stage = exc.stage
    except WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # no manifest when the manifest or the directory it goes in failed
        failure_stage = None if exc.path in (out, out / "manifest.json") else "output"
    if command.manifest and failure_stage is not None:
        try:
            _write_manifest(out, cfg, args.command, "failed", failure_stage)
        except WriteError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
