"""Command-line entry point.

Commands: gen-data, train, verify, gradcheck, ablate, export-features.
Exit codes: 0 success, 1 runtime/verification failure, 2 usage/config error
(including an --out path that is, or lies under, an existing file;
export-features on a split whose labeled or unlabeled rows have no class
with 2 or more rows, checked before any training; and verify artifacts that
are not the configured run's, naming the file: missing, not JSON, another
format version or key set, another architecture, tensor name, class or row
count or labeled rows, or an entry that is nested otherwise, a string, a
boolean or not finite). verify on a run with no unlabeled rows reports the
link and flatness checks as informational. train, ablate and export-features
write a run manifest (config, git describe of the package's checkout, seed,
status) even when they fail, with the failing stage recorded; gen-data,
verify and gradcheck write none.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import theory
from .config import VARIANTS, ConfigError, TrainConfig, load_config, warn_alpha_le_beta
from .data import Dataset
from .model import forward_batch, load_checkpoint
from .numerics import InvalidInputError, write_csv, write_json
from .pseudo_labels import load_table
from .trainer import (
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
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json", {
        "command": command,
        "config": cfg.to_dict(),
        "git_describe": _git_describe(),
        "seed": cfg.seed,
        "status": status,
        "failure_stage": failure_stage,
    })


def cmd_gen_data(args, cfg: TrainConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
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
    try:  # an artifact that is not the configured run's is a usage error naming the file
        params = load_checkpoint(out / "checkpoint_stage2.json", arch)
        table = load_table(out / "pseudo_table.json", split.labeled_mask, arch.num_classes)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    out.mkdir(parents=True, exist_ok=True)
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
            pseudo_errors.append(1.0 - s2[-1].unlabeled_pseudo_acc if s2 else float("nan"))
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
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "ablation.csv", list(rows[0]), [list(row.values()) for row in rows])
    for row in rows:
        print(
            f"{row['cell']}: median test error {row['median_test_error']:.4f} "
            f"over {row['n_seeds']} seeds"
        )
    return EXIT_OK


def _export_features_csv(params, ds: Dataset, labeled_mask: np.ndarray, path: Path) -> None:
    feats = forward_batch(params, ds.features).features
    rows = zip(feats.tolist(), ds.labels.tolist(), labeled_mask.tolist())
    header = ["x", "y", "label", "is_labeled"]
    write_csv(path, header, ([*xy, lab, is_lab] for xy, lab, is_lab in rows))


def cmd_export_features(args, cfg: TrainConfig, out: Path) -> int:
    if not cfg.arch.hidden_dims or cfg.arch.hidden_dims[-1] != 2:
        print(
            "error: export-features needs a 2-D penultimate layer "
            f"(hidden_dims={list(cfg.arch.hidden_dims)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    split, _ = build_run_data(cfg)
    base = split.base
    subsets = {"labeled": split.labeled_idx, "unlabeled": split.unlabeled_idx}
    keys = {"labeled": "data.labeled_per_class",
            "unlabeled": "data.n_per_class minus data.labeled_per_class"}
    for name, idx in subsets.items():  # intra_class_spread needs such a class
        if np.bincount(base.labels[idx], minlength=2).max() < 2:
            raise ConfigError(f"export-features measures each class's spread, and no class has "
                              f"2 or more {name} rows: check {keys[name]}")
    out.mkdir(parents=True, exist_ok=True)

    def spreads(params) -> dict[str, float]:
        return {
            name: intra_class_spread(
                forward_batch(params, base.features[idx]).features,
                base.labels[idx],
                base.num_classes,
            )
            for name, idx in subsets.items()
        }

    with stage_errors("stage1"):
        params = stage1_supervised(cfg, split)
    _export_features_csv(params, base, split.labeled_mask, out / "features_before.csv")
    before = spreads(params)
    with stage_errors("stage2"):
        params, _ = stage2_joint(cfg, params, split)
    _export_features_csv(params, base, split.labeled_mask, out / "features_after.csv")
    after = spreads(params)
    summary = {
        "spread_before": before,
        "spread_after": after,
        "compaction_ratio": {
            k: after[k] / before[k] for k in before
        },
    }
    write_json(out / "export_summary.json", summary)
    for k in ("labeled", "unlabeled"):
        print(f"{k} compaction ratio (after/before): {summary['compaction_ratio'][k]:.4f}")
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudograd",
        description="Train and verify pseudo-label-as-logits semi-supervised models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="K=V",
            help="config override, e.g. loss.alpha=0.2 (repeatable)",
        )

    add_common(sub.add_parser("gen-data", help="materialize the configured dataset as CSV"))
    add_common(sub.add_parser("train", help="run the full three-stage pipeline"))
    add_common(sub.add_parser("verify", help="run theory checks against saved artifacts"))
    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    add_common(p)
    p.add_argument("--trials", type=positive_int, default=100, help="instances per gradient path")
    p = sub.add_parser("ablate", help="run a comparison grid")
    add_common(p)
    p.add_argument("--seeds", type=positive_int, default=5, help="seeds per grid cell")
    p.add_argument(
        "--grid",
        choices=list(GRIDS),
        default="strategy",
        help="which grid to sweep",
    )
    add_common(sub.add_parser("export-features", help="dump 2-D features before/after joint training"))
    return parser


# each command is cmd(args, cfg, out) -> exit code; main loads the config
COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "verify": cmd_verify,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
    "export-features": cmd_export_features,
}
# the commands whose output directory gets a manifest.json, failed or ok
MANIFEST_COMMANDS = ("train", "ablate", "export-features")


def _file_in_the_way(out: Path) -> Path | None:
    """The existing non-directory that ``out`` is or lies under, if any."""
    for path in (out, *out.parents):
        if path.exists():
            return None if path.is_dir() else path
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    blocker = _file_in_the_way(out)
    if blocker is not None:
        print(f"error: --out {out} cannot be a directory: {blocker} is a file", file=sys.stderr)
        return EXIT_USAGE
    manifest = args.command in MANIFEST_COMMANDS
    try:
        cfg = load_config(args.config, args.override)
        rc = COMMANDS[args.command](args, cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        if manifest:
            _write_manifest(out, cfg, args.command, "failed", exc.stage)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if manifest and rc == EXIT_OK:
        _write_manifest(out, cfg, args.command, "ok", None)
    return rc


if __name__ == "__main__":
    sys.exit(main())
