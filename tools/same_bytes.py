"""Check that this checkout writes the output bytes recorded for its environment.

``python3 tools/same_bytes.py`` runs COMMANDS with this checkout's program
and configs. It compares each exit code and the SHA-256 of every file each
command writes (``manifest.json`` without its ``git_describe``) with this
environment's entry in ``tests/golden_digests.json``, prints each exit code
or file that differs, is missing or is extra, and exits 1 if any does. It
then prints the entry this checkout writes: to record the bytes, put that
entry in place of the old one.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_digests.json"
TREND = "configs/blobs_trend.json"

# (output directory, command, config, extra arguments), run in order. gen-data
# is the one command that writes Dataset.to_csv's files. verify reads the run
# in its directory, the converged run with asserted link and flatness sections
# among them; the moons config refuses the trend run (exit 2). 2100 gradcheck
# trials split each class count across FD_BLOCK_TRIALS blocks.
COMMANDS = (
    ("gen_data_moons_ssl", "gen-data", "configs/moons_ssl.json", []),
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


def openblas_core() -> str | None:
    """The OpenBLAS kernel name (e.g. SkylakeX) of numpy's bundled library,
    or None when numpy bundles no such library or it lacks the symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        path = sorted(libs.glob("libscipy_openblas64_*.so"))[0]
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    """The key of an entry in golden_digests.json. Runs are byte-deterministic
    on one machine but not across numpy builds or BLAS kernels."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "openblas_core": openblas_core()}


def recorded_entry() -> dict | None:
    """This environment's entry in golden_digests.json, or None."""
    env = environment()
    return next((e for e in json.loads(GOLDEN.read_text()) if e["environment"] == env), None)


def file_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, by path relative to it."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":  # the same run from another commit
                data = json.dumps({**json.loads(data), "git_describe": None}).encode()
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_all(out: Path) -> dict[str, dict]:
    """Run every command with this checkout's program; per command, its exit
    code and the digests of the files it wrote or rewrote."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    record, before = {}, {}
    for out_name, command, config, extra in COMMANDS:
        argv = [sys.executable, "-m", "pseudograd.cli", command, "--config",
                str(ROOT / config), "--out", str(out / out_name), *extra]
        code = subprocess.run(argv, env=env, capture_output=True).returncode
        label = f"{command} {out_name} {config}"  # one run dir is verified under two configs
        print(f"{label} exited {code}", file=sys.stderr)
        after = file_digests(out)
        record[label] = {"exit": code,
                         "files": {f: d for f, d in after.items() if before.get(f) != d}}
        before = after
    return record


def differences(recorded: dict, written: dict) -> list[str]:
    """Each exit code and file of ``written`` that differs from ``recorded``,
    or is missing or extra; both map a command to its "exit" and "files"."""
    out = []
    for label in dict.fromkeys([*recorded, *written]):
        was, now = recorded.get(label, {}), written.get(label, {})
        if was.get("exit") != now.get("exit"):
            out.append(f"exit code of {label}: {was.get('exit')} -> {now.get('exit')}")
        old, new = was.get("files", {}), now.get("files", {})
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                kind = "missing" if name not in new else "extra" if name not in old else "differs"
                out.append(f"{kind}: {name}")
    return out


def main() -> int:
    entry = recorded_entry()
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        written = run_all(Path(tmp))
    diffs = differences((entry or {}).get("commands", {}), written)
    for line in diffs:
        print(line)
    n_files = sum(len(command["files"]) for command in written.values())
    print(f"{len(diffs)} differences over {len(COMMANDS)} commands and {n_files} files")
    if not diffs:
        return 0
    print("the entry to record for this environment (null digests: see the Tier-1 skip):")
    print(json.dumps({"environment": environment(), "digests": entry and entry["digests"],
                      "commands": written}, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())
