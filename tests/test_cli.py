import json
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_tiny_config
from pseudograd import cli, theory
from pseudograd.cli import main
from pseudograd.data import gen_gaussian_blobs, split_per_class
from pseudograd.loss import LossConfig
from pseudograd.model import Architecture, ModelParams, init_params
from pseudograd.pseudo_labels import init_pseudo

FEATURE_ARCH = {"hidden_dims": [8, 2], "activation": "tanh"}


def _missing_idx_data(tmp_path: Path) -> dict:
    return {"kind": "idx", "images": str(tmp_path / "missing.idx"),
            "labels": str(tmp_path / "missing2.idx"), "holdout": 5, "labeled_per_class": 1}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(config, run directory) of one tiny trained run; copy it before changing it."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_tiny_config(root / "cfg.json")
    assert main(["train", "--config", str(cfg), "--out", str(root / "run")]) == 0
    return cfg, root / "run"


class TestDataFailures:
    """Every command that builds the configured data names a "data" failure
    (exit 1) instead of ending in a traceback."""

    @pytest.mark.parametrize("command", ["train", "gen-data", "verify", "export-features"])
    def test_named_data_failure(self, tmp_path, capsys, command):
        cfg = write_tiny_config(tmp_path / "cfg.json", data=_missing_idx_data(tmp_path),
                                arch=FEATURE_ARCH)
        out = tmp_path / "run"
        if command == "verify":  # artifacts that exist: the data alone fails verify
            tiny = write_tiny_config(tmp_path / "tiny.json", arch=FEATURE_ARCH)
            assert main(["train", "--config", str(tiny), "--out", str(out)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "data failed" in err
        assert "Traceback" not in err


class TestManifest:
    """main writes manifest.json for train, ablate and export-features, with
    status ok or failed and the failing stage; the other commands write none."""

    @pytest.mark.parametrize("status", ["ok", "failed"])
    @pytest.mark.parametrize("command", ["train", "ablate", "export-features"])
    def test_status_and_failure_stage(self, tmp_path, command, status):
        extra = {"data": _missing_idx_data(tmp_path)} if status == "failed" else {}
        cfg = write_tiny_config(tmp_path / "cfg.json", arch=FEATURE_ARCH, **extra)
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "ablate":
            argv += ["--grid", "lc", "--seeds", "1"]
        assert main(argv) == (0 if status == "ok" else 1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["status"] == status
        assert manifest["failure_stage"] == (None if status == "ok" else "data")

    @pytest.mark.parametrize("command", ["gen-data", "verify", "gradcheck"])
    def test_other_commands_write_none(self, trained, tmp_path, command):
        cfg, run = trained
        out = shutil.copytree(run, tmp_path / "run") if command == "verify" else tmp_path / "out"
        (out / "manifest.json").unlink(missing_ok=True)
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "gradcheck":
            argv += ["--trials", "3"]
        assert main(argv) in (0, 1)
        assert not (out / "manifest.json").exists()


class TestExitCodes:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "override",
        ["stage1.batch=0", "stage2.batch=0", "stage2.batch=1", "stage3.batch=0",
         "stage2.labeled_fraction_per_batch=0", "stage2.labeled_fraction_per_batch=1",
         "stage3.epochs=-3",
         "arch.activation=gelu", "stage2.lr_decay_factor=1.5", "seed=-1",
         "data.n_classes=0", "data.labeled_per_class=0", "data.spread=-1",
         "data.n_per_class=1", "data.dim=0", "data.dim=1", "data.test_n_per_class=0",
         "data.noise=-1", "data.take_first=abc",
         "data.take_first=-10", "data.holdout=-3",
         "arch.hidden_dims=[0]",
         "stage1.lr=-1", "stage1.lr=nan", "stage2.wd=-1", "stage3.wd=-1",
         "stage2.lr0=inf", "loss.alpha=nan", "loss.lambda=inf",
         pytest.param("loss.lambda=1" + "0" * 400, id="loss.lambda=1e400_as_an_int"),
         pytest.param("data.take_first=" + "[" * 10**5, id="data.take_first=nested_too_deep")],
    )
    def test_out_of_range_stage_override_exits_2_before_training(self, tmp_path, override):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--override", override])
        assert rc == 2
        assert not (out / "report.csv").exists()
        assert not (out / "checkpoint_stage1.json").exists()

    @pytest.mark.parametrize("override", ["data.data_seed=-4", "stage2.pseudo_init_k=nan",
                                          "stage2.epochs=50"])  # a field name, not its key
    def test_unknown_override_key_exits_2_before_training(self, tmp_path, capsys, override):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--override", override])
        assert rc == 2
        assert f"unknown key {override.partition('=')[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [Path.mkdir, lambda path: path.write_bytes(b"\xff\xfe{"),
                                      lambda path: path.write_text("[" * 10**5)],
                             ids=["directory", "not_utf8", "nested_too_deep"])
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, make):
        path = tmp_path / "cfg.json"
        make(path)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {path}" in err
        assert "Traceback" not in err

    def test_idx_without_holdout_exits_2_before_reading_files(self, tmp_path, capsys):
        # the files do not exist: reading them would be an exit-1 data failure
        data = {**_missing_idx_data(tmp_path), "holdout": 0}
        cfg = write_tiny_config(tmp_path / "cfg.json", data=data)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "holdout must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("data", "test_images", "t.idx"), ("data", "test_labels", "t.idx"),
         ("data", "data_seed", 3), ("data", "split_seed", 3),
         ("arch", "head_bias", False), ("stage2", "pseudo_init_k", 10.0)],
        ids=["test_images", "test_labels", "data_seed", "split_seed", "head_bias",
             "pseudo_init_k"],
    )
    def test_removed_key_in_document_exits_2(self, tmp_path, capsys, section, key, value):
        doc = json.loads(write_tiny_config(tmp_path / "cfg.json").read_text())
        doc[section][key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
        assert f"unknown key {section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["ablate", "--seeds", "0"], ["ablate", "--seeds", "-1"],
                                      ["gradcheck", "--trials", "0"]],
                             ids=["seeds_0", "seeds_-1", "trials_0"])
    def test_non_positive_counts_exit_2_at_parsing(self, tmp_path, capsys, argv):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ablate_without_any_epoch_exits_2_before_training(self, tmp_path, capsys,
                                                              monkeypatch):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        zero = ["--override", "stage1.epochs=0", "--override", "stage2.epochs_per_round=0",
                "--override", "stage3.epochs=0"]
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run), *zero]) == 0
        assert (run / "report.csv").read_text().count("\n") == 1  # the header only

        def no_training(cfg):
            raise AssertionError("ablate trained a pipeline")

        monkeypatch.setattr("pseudograd.cli.run_pipeline", no_training)
        out = tmp_path / "ab"
        assert main(["ablate", "--config", str(cfg), "--out", str(out), "--seeds", "1",
                     *zero]) == 2
        err = capsys.readouterr().err
        assert "no stage has an epoch" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["train", "ablate", "gradcheck", "gen-data",
                                         "export-features"])
    def test_out_naming_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command, under):
        cfg = write_tiny_config(tmp_path / "cfg.json", arch=FEATURE_ARCH)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "run" if under else blocker

        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work")

        for target in ("build_run_data", "run_pipeline", "stage1_supervised"):
            monkeypatch.setattr(cli, target, no_work)
        monkeypatch.setattr(theory, "gradient_oracle", no_work)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{blocker} is a file" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"

    def test_verify_missing_artifacts_exits_2(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "empty")])
        assert rc == 2

    @pytest.mark.parametrize(
        "damage, name",
        [(damage, name)
         for damage in ("truncated", "next_version", "missing_key", "nan", "list_document")
         for name in ("checkpoint_stage2.json", "pseudo_table.json")]
        + [(damage, "checkpoint_stage2.json") for damage in (
            "float_width", "nested_tensor", "string_entries", "unknown_tensor", "extra_arch_key")]
        + [(damage, "pseudo_table.json") for damage in (
            "flat_logits", "two_columns", "string_frozen", "string_init_sum", "bool_version",
            "ragged_logits")],
        ids=lambda v: v,
    )
    def test_verify_unreadable_artifact_exits_2(self, trained, tmp_path, capsys, damage, name):
        # each damage gives a document that the configured run's writer does not write
        cfg, run = trained
        out = shutil.copytree(run, tmp_path / "run")
        text = (out / name).read_text()
        doc = json.loads(text)
        values = doc["tensors"]["head.w"] if name.startswith("checkpoint") else doc["logits"][-1]
        if damage == "next_version":
            doc["format_version"] += 1
        elif damage == "bool_version":  # true == 1 in Python, but not in JSON
            doc["format_version"] = True
        elif damage == "missing_key":
            del doc["tensors" if name.startswith("checkpoint") else "logits"]
        elif damage == "nan":
            values[0] = float("nan")
        elif damage == "list_document":
            doc = [doc]
        elif damage == "float_width":
            doc["arch"]["hidden_dims"] = [float(h) for h in doc["arch"]["hidden_dims"]]
        elif damage == "extra_arch_key":
            doc["arch"]["head_bias"] = False
        elif damage == "nested_tensor":
            doc["tensors"]["head.w"] = [values]
        elif damage == "string_entries":
            doc["tensors"]["head.w"] = [repr(v) for v in values]
        elif damage == "unknown_tensor":
            doc["tensors"]["head.b"] = [0.0] * 3
        elif damage == "flat_logits":  # one value per row: 1-D
            doc["logits"] = [row[0] for row in doc["logits"]]
        elif damage == "two_columns":  # a 2-class table for the 3-class config
            doc["logits"] = [row[:2] for row in doc["logits"]]
        elif damage == "ragged_logits":
            values.pop()
        elif damage in ("string_frozen", "string_init_sum"):
            key = damage.partition("_")[2]
            doc[key] = [str(v) for v in doc[key]]
        (out / name).write_text(text[: len(text) // 2] if damage == "truncated" else json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("pseudo table has 2 classes" if damage == "two_columns" else name) in err
        assert "Traceback" not in err
        assert not (out / "verification.json").exists()


class TestVerifyRefusesMismatchedArtifacts:
    """verify exits 2, writing nothing, when the artifacts were not trained
    under the given config's architecture and split."""

    @pytest.mark.parametrize(
        "extra, overrides, expected",
        [
            ({"data": {"kind": "moons", "n_per_class": 30, "noise": 0.1,
                       "labeled_per_class": 4, "test_n_per_class": 30}}, [], "architecture"),
            ({}, ["data.labeled_per_class=5"], "labeled rows"),
            ({}, ["arch.hidden_dims=[16]"], "architecture"),
        ],
        ids=["moons_config_on_blobs", "labeled_per_class", "hidden_dims"],
    )
    def test_mismatch_exits_2(self, trained, tmp_path, capsys, extra, overrides, expected):
        _, run = trained
        cfg = write_tiny_config(tmp_path / "other.json", **extra)
        argv = ["verify", "--config", str(cfg), "--out", str(run)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        assert expected in capsys.readouterr().err
        assert not (run / "verification.json").exists()

    def test_matching_config_is_verified(self, trained, tmp_path):
        cfg, run = trained
        copy = shutil.copytree(run, tmp_path / "run")
        assert main(["verify", "--config", str(cfg), "--out", str(copy)]) in (0, 1)
        assert (copy / "verification.json").exists()


def test_verify_all_labeled_run_reports_link_checks_as_informational(tmp_path):
    # every training row is labeled: the link and flatness checks have no
    # rows to judge, and the exit code comes from the remaining checks
    data = {"kind": "blobs", "n_classes": 3, "n_per_class": 4, "dim": 2, "spread": 0.6,
            "labeled_per_class": 4, "test_n_per_class": 20}
    cfg = write_tiny_config(tmp_path / "cfg.json", data=data)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "verification.json").read_text())
    for name in ("link_residual", "flatness"):
        assert doc[name] == {"asserted": False, "pass": True, "note": theory.NO_LIVE_ROWS}
    assert doc["gradient_oracle"]["asserted"] and doc["sum_invariance"]["asserted"]
    assert doc["all_pass"]


class TestTrainCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["failure_stage"] is None
        assert manifest["seed"] == 0
        assert (out / "report.csv").exists()

    def test_override_recorded_in_manifest(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out),
                   "--override", "loss.alpha=0.2"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["loss"]["alpha"] == 0.2

    def test_git_describe_runs_once_per_process(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")

        cfg = write_tiny_config(tmp_path / "cfg.json")
        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        cli._git_describe.cache_clear()
        try:
            for name in ("a", "b"):
                assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
                manifest = json.loads((tmp_path / name / "manifest.json").read_text())
                assert manifest["git_describe"] == "abc1234"
        finally:
            cli._git_describe.cache_clear()
        assert calls == [["git", "describe", "--always", "--dirty"]]

    def test_git_describe_names_the_package_checkout(self, monkeypatch):
        # not the working directory's: a run may start outside the checkout
        dirs = []

        def fake_run(argv, **kwargs):
            dirs.append(kwargs.get("cwd"))
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        cli._git_describe.cache_clear()
        try:
            assert cli._git_describe() == "abc1234"
        finally:
            cli._git_describe.cache_clear()
        assert dirs == [Path(cli.__file__).resolve().parent]

    @pytest.mark.parametrize(
        "loss, override, expected",
        [({"alpha": 0.01, "beta": 0.03}, "loss.alpha=0.2", []),
         ({"alpha": 0.1, "beta": 0.03}, "loss.beta=0.2", ["alpha=0.1 <= beta=0.2"]),
         ({"alpha": 0.01, "beta": 0.03}, "loss.alpha=0.02", ["alpha=0.02 <= beta=0.03"])],
        ids=["override_clears", "override_creates", "override_keeps"],
    )
    def test_alpha_le_beta_warning_judges_final_config(self, tmp_path, loss, override, expected):
        cfg = write_tiny_config(tmp_path / "cfg.json", loss=loss)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                       "--override", override])
        assert rc == 0
        flagged = [str(w.message).split(":")[0] for w in caught if "<= beta" in str(w.message)]
        assert flagged == expected

    def test_ablate_warns_alpha_le_beta_once(self, tmp_path):
        # the loaded config crosses, so load_config warns once; the sweep
        # names no cell, and neither replace nor the constructors warn
        cfg = write_tiny_config(tmp_path / "cfg.json", loss={"alpha": 0.02, "beta": 0.03})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab"),
                       "--grid", "lc", "--seeds", "2"])
        assert rc == 0
        assert sum("alpha=0.02 <= beta=0.03" in str(w.message) for w in caught) == 1

    def test_ablate_names_the_cells_a_grid_moves_to_alpha_le_beta(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", loss={"alpha": 0.5, "beta": 0.15})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab"),
                       "--grid", "alpha", "--seeds", "1"])
        assert rc == 0
        flagged = [str(w.message).split(": ")[0] for w in caught if "<= beta" in str(w.message)]
        assert flagged == ["cell alpha=0.1 has alpha=0.1 <= beta=0.15"]

    def test_report_bytes_identical_across_runs(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/report.csv").read_bytes() == (tmp_path / "b/report.csv").read_bytes()


class TestGenData:
    def test_writes_train_and_test_csv(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        train = (out / "train.csv").read_text().strip().splitlines()
        assert train[0] == "x0,x1,label"
        assert len(train) == 61
        assert (out / "test.csv").exists()


class TestGradcheckCommand:
    def test_passes_and_writes_json(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(cfg), "--out", str(out), "--trials", "5"])
        assert rc == 0
        doc = json.loads((out / "gradcheck.json").read_text())
        assert doc["pass"] is True

    def test_json_equals_the_verify_gradient_section(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", seed=3)
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out), "--trials", "4"]) == 0
        split = split_per_class(gen_gaussian_blobs(2, 10, 2, 0.5, seed=0), 2, seed=0)
        params = init_params(Architecture(2, (), 2), seed=0)
        doc = theory.run_verification(params, init_pseudo(split, params), split, LossConfig(),
                                      gradcheck_trials=4, algebraic_samples=100, seed=3)
        section = json.loads(json.dumps(doc["gradient_oracle"]))
        assert section.pop("asserted") is True
        assert json.loads((out / "gradcheck.json").read_text()) == section

    def test_nan_gradient_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(theory, "backward", lambda trace, grad_y, params: ModelParams(
            params.arch, np.full(params.flat.size, np.nan)))
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out), "--trials", "5"]) == 1
        doc = json.loads((out / "gradcheck.json").read_text())
        assert doc["worst_rel_err"]["params:deep"] == float("inf")
        assert doc["pass"] is False


class TestExportFeatures:
    def test_requires_two_d_feature(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")  # hidden (8,): not 2-D
        rc = main(["export-features", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "2-D" in capsys.readouterr().err

    @pytest.mark.parametrize("override, subset", [("data.labeled_per_class=1", "labeled"),
                                                  ("data.n_per_class=4", "unlabeled")])
    def test_split_without_a_measurable_class_exits_2_before_writing(self, tmp_path, capsys,
                                                                     override, subset):
        cfg = write_tiny_config(tmp_path / "cfg.json", arch=FEATURE_ARCH)
        out = tmp_path / "feat"
        assert main(["export-features", "--config", str(cfg), "--out", str(out),
                     "--override", override]) == 2
        err = capsys.readouterr().err
        assert f"no class has 2 or more {subset} rows" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_writes_before_after_csvs(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", arch=FEATURE_ARCH)
        out = tmp_path / "feat"
        assert main(["export-features", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("features_before.csv", "features_after.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert lines[0] == "x,y,label,is_labeled"
            assert len(lines) == 61
        summary = json.loads((out / "export_summary.json").read_text())
        assert set(summary["compaction_ratio"]) == {"labeled", "unlabeled"}


class TestAblateCommand:
    def test_lc_grid_csv(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg), "--out", str(out),
                   "--seeds", "2", "--grid", "lc"])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + three loss variants
        assert lines[0].startswith("grid,cell,n_seeds,median_test_error")

    def test_alpha_grid_completes_all_cells(self, tmp_path):
        # no ordering asserted for the alpha sweep, completeness only
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg), "--out", str(out),
                   "--seeds", "1", "--grid", "alpha"])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + alpha in {0.1 .. 0.5}
        assert all("alpha=" in line for line in lines[1:])

    def test_strategy_grid_has_all_five_cells(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg), "--out", str(out),
                   "--seeds", "1", "--grid", "strategy"])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        cells = {line.split(",")[1] for line in lines[1:]}
        assert cells == {"single_round", "repeat", "repeat_repredict",
                         "repeat_decay", "full_schedule"}
