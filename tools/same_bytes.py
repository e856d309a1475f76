"""Check that two source trees write byte-identical artifacts.

Usage, from anywhere:

    python3 tools/same_bytes.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository (its ``src/`` and ``configs/``).
The script runs the same commands with each tree's own program and configs,
under one temporary directory:

* ``train`` on the moons_ssl, blobs_trend and blobs_convergence fixtures;
* ``train`` on blobs_trend with ``loss.variant=l2``;
* ``ablate --grid strategy --seeds 2``, ``ablate --grid lc --seeds 2``,
  ``ablate --grid alpha --seeds 1`` and ``ablate --grid beta --seeds 1`` on
  blobs_trend;
* ``verify`` of the blobs_trend run (ReLU), of the moons_ssl run (tanh) and
  of the blobs_convergence run, the converged ``kl_pred_pseudo`` run whose
  link and flatness sections are asserted; and ``verify`` of the blobs_trend
  run under the moons_ssl config, which refuses the run's artifacts (exit 2);
* ``gradcheck`` at its default of 100 trials, which reaches every class
  count and several network trials per depth, and at 2100 trials, three
  blocks of ``theory.FD_BLOCK_TRIALS``, so every class count is split
  across block boundaries;
* ``export-features`` on moons_ssl with ``arch.hidden_dims=[16,2]``.

It then compares every file the commands wrote (``manifest.json`` without
its ``git_describe``) and each command's exit code. It prints what differs
and exits 1 if anything does, 0 if nothing does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TREND = "configs/blobs_trend.json"

# (output directory, command, config, extra arguments); commands run in order
# and verify reads the train run that shares its output directory
COMMANDS = (
    ("train_moons_ssl", "train", "configs/moons_ssl.json", []),
    ("train_blobs_trend", "train", TREND, []),
    ("train_blobs_convergence", "train", "configs/blobs_convergence.json", []),
    ("train_blobs_trend_l2", "train", TREND, ["--override", "loss.variant=l2"]),
    ("ablate_strategy", "ablate", TREND, ["--grid", "strategy", "--seeds", "2"]),
    ("ablate_lc", "ablate", TREND, ["--grid", "lc", "--seeds", "2"]),
    ("ablate_alpha", "ablate", TREND, ["--grid", "alpha", "--seeds", "1"]),
    ("ablate_beta", "ablate", TREND, ["--grid", "beta", "--seeds", "1"]),
    ("train_blobs_trend", "verify", TREND, []),
    ("train_moons_ssl", "verify", "configs/moons_ssl.json", []),
    ("train_blobs_convergence", "verify", "configs/blobs_convergence.json", []),
    ("train_blobs_trend", "verify", "configs/moons_ssl.json", []),
    ("gradcheck", "gradcheck", TREND, []),
    ("gradcheck_2100", "gradcheck", TREND, ["--trials", "2100"]),
    ("export_features_moons_ssl", "export-features", "configs/moons_ssl.json",
     ["--override", "arch.hidden_dims=[16,2]"]),
)


def run_all(tree: Path, out: Path) -> dict[str, int]:
    """Run every command with ``tree``'s program; exit code per command."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    codes = {}
    for out_name, command, config, extra in COMMANDS:
        argv = [sys.executable, "-m", "pseudograd.cli", command, "--config",
                str(tree / config), "--out", str(out / out_name), *extra]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        label = f"{command} {out_name} {config}"  # one run dir is verified under two configs
        codes[label] = done.returncode
        print(f"{tree.name}: {label} exited {done.returncode}", file=sys.stderr)
    return codes


def artifact_bytes(path: Path) -> bytes:
    if path.name != "manifest.json":
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("git_describe", None)
    return json.dumps(doc, sort_keys=True).encode()


def differences(parent: Path, change: Path) -> list[str]:
    """Relative paths of files that differ or exist on one side only."""
    files = {p.relative_to(root) for root in (parent, change)
             for p in root.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"{rel} (only in {'parent' if a.is_file() else 'change'})")
        elif artifact_bytes(a) != artifact_bytes(b):
            out.append(str(rel))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        outs = Path(tmp) / "parent", Path(tmp) / "change"
        codes = [run_all(tree.resolve(), out) for tree, out in zip((args.parent, args.change), outs)]
        diffs = [f"exit code of {cmd}: {codes[0][cmd]} -> {codes[1][cmd]}"
                 for cmd in codes[0] if codes[0][cmd] != codes[1][cmd]]
        diffs += differences(*outs)
        n_files = sum(1 for f in outs[1].rglob("*") if f.is_file())
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(diffs)} differences over {len(COMMANDS)} commands and {n_files} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
