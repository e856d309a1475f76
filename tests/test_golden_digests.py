"""Pinned bits of four fixture artifacts, per numeric environment.

Runs are byte-deterministic on one machine but not across numpy builds or
BLAS kernels, so golden_digests.json keys each recorded set of SHA-256
digests by the environment that wrote it: the numpy version, the BLAS build
numpy links, and the kernel OpenBLAS picked at load time. A digest that
differs fails and names its artifact. An environment with no entry skips,
naming itself and the digests it wrote, which is the entry to add for it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import write_tiny_config
from pseudograd.cli import main
from pseudograd.pseudo_labels import save_table
from pseudograd.theory import run_verification

GOLDEN = Path(__file__).with_name("golden_digests.json")
ARTIFACTS = ("moons_seed7_report.csv", "converged_run_pseudo_table.json",
             "gradcheck_seed0_trials25.json", "converged_run_verification.json")


def openblas_core() -> str | None:
    """The OpenBLAS kernel name (e.g. SkylakeX) of numpy's bundled library,
    or None when numpy bundles no such library or it lacks the symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "openblas_core": openblas_core()}


@pytest.fixture(scope="module")
def digests(moons_reports, converged_run, tmp_path_factory) -> dict[str, str]:
    out = tmp_path_factory.mktemp("golden")
    moons_reports[7].to_csv(out / ARTIFACTS[0])
    save_table(converged_run.table, out / ARTIFACTS[1])
    config = write_tiny_config(out / "tiny.json")  # seed 0
    assert main(["gradcheck", "--config", str(config), "--out", str(out), "--trials", "25"]) == 0
    (out / "gradcheck.json").rename(out / ARTIFACTS[2])
    # the bytes cmd_verify writes, at its default trials and samples: the one
    # digest that covers the asserted link and flatness sections
    run = converged_run
    doc = run_verification(run.params, run.table, run.split, run.cfg.loss, seed=run.cfg.seed)
    (out / ARTIFACTS[3]).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def recorded(digests) -> dict[str, str]:
    env = environment()
    for entry in json.loads(GOLDEN.read_text()):
        if entry["environment"] == env:
            return entry["digests"]
    pytest.skip(f"no golden digests recorded for {json.dumps(env)}; "
                f"this environment writes {json.dumps(digests)}")


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_artifact_bits_match_the_recorded_digest(artifact, digests, recorded):
    assert digests[artifact] == recorded[artifact], f"{artifact} bits moved"
