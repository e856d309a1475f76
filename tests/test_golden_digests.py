"""Pinned bits of four fixture artifacts, per numeric environment (the key is
``environment()`` of tools/same_bytes.py): a moved digest fails and names its
artifact; an environment with no entry skips, naming itself and its digests."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_script, write_tiny_config
from pseudograd.cli import main
from pseudograd.numerics import write_json
from pseudograd.pseudo_labels import save_table
from pseudograd.theory import run_verification

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
same_bytes = load_script(TOOL)  # environment() is the entry key
ARTIFACTS = ("moons_seed7_report.csv", "converged_run_pseudo_table.json",
             "gradcheck_seed0_trials25.json", "converged_run_verification.json")


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
    write_json(out / ARTIFACTS[3], doc)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def recorded(digests) -> dict[str, str]:
    entry = same_bytes.recorded_entry()
    if entry is None or entry["digests"] is None:
        pytest.skip(f"no golden digests recorded for {json.dumps(same_bytes.environment())}; "
                    f"this environment writes {json.dumps(digests)}")
    return entry["digests"]


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_artifact_bits_match_the_recorded_digest(artifact, digests, recorded):
    assert digests[artifact] == recorded[artifact], f"{artifact} bits moved"


def test_a_lower_numpy_dispatch_level_is_another_environment():
    # a level that moves exp and log must not share an entry, or it reads as "bits moved"
    if "X86_V4" not in same_bytes.numpy_dispatch().split():
        pytest.skip("X86_V4 is not active, so it cannot be turned off")
    code = f"import json, runpy; print(json.dumps(runpy.run_path({str(TOOL)!r})['environment']()))"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True)
    assert json.loads(child.stdout) != same_bytes.environment()


def test_same_bytes_names_each_difference_but_not_the_git_describe(tmp_path):
    run = tmp_path / "train_run"
    run.mkdir()
    for name, text in (("report.csv", "epoch\n1\n"), ("pseudo_table.json", "{}\n")):
        (run / name).write_text(text)
    (run / "manifest.json").write_text(json.dumps({"git_describe": "abc1234", "seed": 7}))
    recorded = {"train run": {"exit": 0, "stdout": "a1",
                              "files": same_bytes.file_digests(tmp_path)}}
    assert same_bytes.differences(recorded, recorded) == []

    (run / "report.csv").write_text("epoch\n2\n")
    (run / "pseudo_table.json").unlink()
    (run / "extra.csv").write_text("x\n")
    (run / "manifest.json").write_text(json.dumps({"git_describe": "abc1234-dirty", "seed": 7}))
    written = {"train run": {"exit": 1, "stdout": "b2",
                             "files": same_bytes.file_digests(tmp_path)}}
    assert same_bytes.differences(recorded, written) == [
        "exit code of train run: 0 -> 1",
        "stdout of train run differs",
        "extra: train_run/extra.csv",
        "missing: train_run/pseudo_table.json",
        "differs: train_run/report.csv",
    ]

    (run / "manifest.json").write_text(json.dumps({"git_describe": "abc1234", "seed": 8}))
    written["train run"]["files"] = same_bytes.file_digests(tmp_path)
    assert "differs: train_run/manifest.json" in same_bytes.differences(recorded, written)
