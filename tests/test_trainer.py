import functools
import math
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pseudograd import theory, trainer
from conftest import DOCUMENT_SLOTS, JSON_VALUES, TINY_DOC, damaged, tiny_config
from conftest import write_tiny_config
from pseudograd.config import ConfigError, DataSpec, StageTwoConfig, config_from_dict, load_config
from pseudograd.config import TrainConfig
from pseudograd.data import gen_gaussian_blobs, split_per_class
from pseudograd.numerics import InvalidInputError, random_stream
from pseudograd.trainer import (
    Report,
    ReportRow,
    _CyclingPool,
    _mixed_batch_plan,
    build_dataset,
    run_pipeline,
    stage1_supervised,
    stage2_joint,
    stage3_finetune,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# (dotted key, attribute path, declaration) of every configurable value
FIELDS = [(f"{sec.key}.{fd.key}", (sec.name, fd.name), fd)
          for sec in TrainConfig._SCHEMA if sec.is_section for fd in sec.kind._SCHEMA]
FIELDS += [(fd.key, (fd.name,), fd) for fd in TrainConfig._SCHEMA if not fd.is_section]


def test_schema_holds_the_37_configurable_values_roadmap_counts():
    assert len(FIELDS) == 37, (f"the schema holds {len(FIELDS)} configurable values and "
                               "ROADMAP.md counts 37: adding or deleting a knob updates both")


# DataSpec._cross_check ties these to the tiny config's other data values:
# 3 blobs classes in 2-D, 20 rows and 4 labeled rows per class, no idx files
TINY_CROSS_FIELD = {"data.kind": st.sampled_from(["blobs", "moons"]),
                    "data.n_classes": st.integers(2, 3), "data.dim": st.integers(min_value=2),
                    "data.n_per_class": st.integers(min_value=4),
                    "data.labeled_per_class": st.integers(1, 20)}
TEXT = st.text(string.printable)  # Hypothesis builds no unicode table for it
WRONG_TYPE = {bool: st.integers() | TEXT, int: st.booleans() | st.floats() | TEXT,
              float: st.booleans() | TEXT | st.sampled_from([math.nan, math.inf, -math.inf]),
              str: st.booleans() | st.integers() | st.floats(),
              tuple: st.integers() | TEXT | st.lists(st.booleans() | st.floats(), min_size=1)}


def _numbers(fd, inside):
    """Numbers inside all of ``fd``'s declared bounds, or past one of them."""
    floats = fd.kind is float
    number = (functools.partial(st.floats, allow_nan=False, allow_infinity=False) if floats
              else st.integers)
    sides = []
    for _, text, bound in fd.bounds:  # draw above or below it, with or without it
        above, holds = (text[0] == ">") == inside, ("=" in text) == inside
        end = "min" if above else "max"
        sides.append({f"{end}_value": bound, f"exclude_{end}": not holds} if floats else
                     {f"{end}_value": bound if holds else bound + (1 if above else -1)})
    if inside:
        return number(**{k: v for side in sides for k, v in side.items()})
    strict = [st.just(bound) for _, text, bound in fd.bounds if "=" not in text]  # just past
    return st.one_of([number(**side) for side in sides] + strict)


def _in_range(key, fd):
    """Values that ``fd`` accepts on the tiny config."""
    if key in TINY_CROSS_FIELD:
        values = TINY_CROSS_FIELD[key]
    elif fd.choices:
        values = st.sampled_from(fd.choices)
    elif fd.kind in (bool, str):
        values = st.booleans() if fd.kind is bool else TEXT
    elif fd.kind is tuple:
        values = st.lists(_numbers(fd, inside=True), max_size=4)
    else:  # an integral float may come as an int
        values = _numbers(fd, inside=True).flatmap(
            lambda v: st.sampled_from([v, int(v)]) if float(v).is_integer() else st.just(v))
    return st.none() | values if fd.optional else values


def _out_of_range(fd):
    """Of the wrong type, non-finite, outside the choices or past a bound."""
    bad = [WRONG_TYPE[fd.kind]] + ([] if fd.optional else [st.none()])
    if fd.choices:
        bad.append(TEXT.filter(lambda v: v not in fd.choices))
    if fd.bounds:
        past = _numbers(fd, inside=False)
        bad.append(st.lists(past, min_size=1) if fd.kind is tuple else past)
    return st.one_of(bad)


class TestConfigHandling:
    @given(st.tuples(*[_in_range(key, fd) for key, _, fd in FIELDS]))
    def test_json_roundtrip(self, values):
        # an in-range value for any one field is stored in its declared type
        # (an int given for a float as a float), and the config round-trips
        tiny = tiny_config()
        for (key, names, fd), value in zip(FIELDS, values):
            cfg = tiny.replace({key: value})
            assert config_from_dict(cfg.to_dict()) == cfg
            got = functools.reduce(getattr, names, cfg)
            want = None if value is None else fd.kind(value)
            assert (type(got), got) == (type(want), want), key

    @given(st.tuples(*[_out_of_range(fd) for _, _, fd in FIELDS]))
    def test_out_of_range_value_rejected_naming_its_key(self, values):
        # past a declared bound, outside the choices, of the wrong type or non-finite
        tiny = tiny_config()
        for (key, _, _), value in zip(FIELDS, values):
            with pytest.raises(ConfigError) as exc:
                tiny.replace({key: value})
            assert str(exc.value).startswith(f"{key} "), (key, value, str(exc.value))

    def test_int_accepted_for_float_and_stored_as_float(self):
        cfg = config_from_dict({"loss": {"lambda": 4000}, "stage2": {"wd": 0}})
        assert type(cfg.loss.lam) is float and cfg.loss.lam == 4000.0
        assert type(cfg.stage2.wd) is float

    @given(DOCUMENT_SLOTS, JSON_VALUES)
    @example(None, [])
    @example(None, {"loss": {"lambda": 10**400}})
    def test_any_json_document_loads_or_raises_config_error(self, slot, value):
        try:
            config_from_dict(damaged(TINY_DOC, slot, value))
        except ConfigError:
            pass

    def test_int_too_large_for_a_float_rejected_naming_its_key(self):
        with pytest.raises(ConfigError, match="loss.lambda must be a finite number"):
            config_from_dict({"loss": {"lambda": 10**400}})

    def test_lambda_key_maps_to_pseudo_lr(self):
        cfg = config_from_dict({"loss": {"lambda": 123.0}})
        assert cfg.loss.lam == 123.0
        assert cfg.to_dict()["loss"]["lambda"] == 123.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="stage1.typo"):
            config_from_dict({"stage1": {"typo": 1}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": \n!}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_override_types(self, tmp_path):
        out = load_config(
            write_tiny_config(tmp_path / "cfg.json"),
            ["loss.alpha=0.2", "stage2.rounds=5", "data.standardize=true",
             "arch.hidden_dims=[64,2]", "data.kind=moons"],
        )
        assert out.loss.alpha == 0.2
        assert out.stage2.rounds == 5
        assert out.data.standardize is True
        assert out.arch.hidden_dims == (64, 2)
        assert out.data.kind == "moons"

    def test_override_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key loss.gamma"):
            load_config(write_tiny_config(tmp_path / "cfg.json"), ["loss.gamma=1"])

    def test_replace_checks_the_result_and_names_the_key(self):
        with pytest.raises(ConfigError, match="stage2.rounds must be >= 1, got 0"):
            tiny_config({"stage2.rounds": 0})

    def test_replace_leaves_the_receiver_unchanged(self):
        cfg = tiny_config()
        out = cfg.replace({"stage2.epochs_per_round": 50, "loss.lambda": 1.0, "seed": 4})
        assert (out.stage2.epochs, out.loss.lam, out.seed) == (50, 1.0, 4)
        assert cfg.to_dict() == config_from_dict(TINY_DOC).to_dict()

    def test_replace_whole_section(self):
        # a section dict replaces the section: keys it leaves out take defaults
        out = tiny_config({"loss.lambda": 1.0}).replace({"loss": {"alpha": 0.2}})
        assert out.loss.to_dict() == {**TINY_DOC["loss"], "alpha": 0.2}

    def test_copy_is_an_independent_replace(self):
        # bench/run.py writes attributes on a copy: no section may be shared
        cfg = tiny_config()
        copy = cfg.copy()
        assert copy == cfg.replace({}) == cfg and copy is not cfg
        assert not any(getattr(copy, name) is getattr(cfg, name)
                       for name in ("data", "arch", "loss", "stage1", "stage2", "stage3"))

    def test_stage2_epochs_default_to_75(self):
        assert StageTwoConfig().epochs == 75
        assert config_from_dict({}).to_dict()["stage2"]["epochs_per_round"] == 75

    @pytest.mark.parametrize(
        "doc",
        [
            {"seed": 2.9},
            {"seed": "7"},
            {"stage1": {"epochs": 2.5}},
            {"stage1": {"epochs": True}},
            {"stage1": {"lr": "abc"}},
            {"stage2": {"rounds": 2.5}},
            {"stage2": {"repredict_between_rounds": "no"}},
            {"data": {"standardize": "yes"}},
            {"arch": {"hidden_dims": [2.7]}},
            {"loss": {"alpha": float("nan")}},
        ],
        ids=repr,
    )
    def test_wrong_type_or_non_finite_value_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_attribute_assignment_raises(self):
        with pytest.raises(AttributeError):
            tiny_config().stage2.epochs_per_round = 50

    @pytest.mark.parametrize(
        "path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name
    )
    def test_committed_config_loads_and_round_trips(self, path):
        cfg = load_config(path)
        assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


class TestBatchPlan:
    def test_mixing_fraction(self):
        ds = gen_gaussian_blobs(3, 40, 2, 0.5, seed=0)
        split = split_per_class(ds, 4, seed=0)
        n_batches, lab, unl = _mixed_batch_plan(split, batch=32, frac=0.5)
        assert lab == 16 and unl == 16
        assert n_batches == int(np.ceil(120 / 32))

    def test_no_unlabeled(self):
        ds = gen_gaussian_blobs(2, 5, 2, 0.5, seed=0)
        split = split_per_class(ds, 5, seed=0)
        _, lab, unl = _mixed_batch_plan(split, batch=8, frac=0.5)
        assert (lab, unl) == (8, 0)

    def test_labeled_quota_at_least_one(self):
        ds = gen_gaussian_blobs(2, 50, 2, 0.5, seed=0)
        split = split_per_class(ds, 1, seed=0)
        _, lab, unl = _mixed_batch_plan(split, batch=16, frac=0.01)
        assert lab == 1 and unl == 15


def _allocating_take(pool, k):
    """The pool's take as it was, returning a new array (the reference)."""
    out = np.empty(k, dtype=np.int64)
    filled = 0
    while filled < k:
        if pool.pos >= pool.order.size:
            pool.order = pool.idx[pool.stream.permutation(pool.idx.size)]
            pool.pos = 0
        n = min(k - filled, pool.order.size - pool.pos)
        out[filled : filled + n] = pool.order[pool.pos : pool.pos + n]
        pool.pos += n
        filled += n
    return out


def test_pool_fills_a_callers_buffer_like_the_allocating_take():
    # blobs_trend's stage 2: 16 labeled rows from a pool of 9 and 48 of 591
    # unlabeled per batch, both pools drawing from one stream
    def pools():
        stream = random_stream(7, stream_id=11)
        return _CyclingPool(np.arange(9), stream), _CyclingPool(np.arange(9, 600), stream)

    (lab, unl), (lab_ref, unl_ref) = pools(), pools()
    rows = np.empty(64, dtype=np.int64)
    for _ in range(60):  # about 100 labeled and 4 unlabeled reshuffles
        lab.take(rows[:16])
        unl.take(rows[16:])
        expected = np.concatenate([_allocating_take(lab_ref, 16), _allocating_take(unl_ref, 48)])
        np.testing.assert_array_equal(rows, expected)


class TestStages:
    def test_stage1_zero_epochs_returns_init(self):
        cfg = tiny_config({"stage1.epochs": 0})
        split, _ = build_dataset(cfg.data, cfg.seed)
        params = stage1_supervised(cfg, split)
        from pseudograd.model import init_params
        from pseudograd.trainer import resolve_arch

        fresh = init_params(resolve_arch(cfg.arch, split.base), cfg.seed)
        np.testing.assert_array_equal(params.head_w, fresh.head_w)

    def test_stage1_deterministic(self):
        cfg = tiny_config({"seed": 3})
        split, _ = build_dataset(cfg.data, cfg.seed)
        a = stage1_supervised(cfg, split)
        b = stage1_supervised(cfg, split)
        np.testing.assert_array_equal(a.head_w, b.head_w)

    def test_stage2_noop_with_zero_rates(self):
        # lambda must be positive; 1e-300 is effectively zero
        cfg = tiny_config({"stage2.lr0": 0.0, "loss.lambda": 1e-300})
        split, _ = build_dataset(cfg.data, cfg.seed)
        params = stage1_supervised(cfg, split)
        w_before = params.head_w.copy()
        params, table = stage2_joint(cfg, params, split)
        np.testing.assert_array_equal(params.head_w, w_before)
        np.testing.assert_allclose(table.sum_drift(), 0.0, atol=1e-250)

    def test_stage3_zero_epochs_passthrough(self):
        cfg = tiny_config({"stage3.epochs": 0})
        split, _ = build_dataset(cfg.data, cfg.seed)
        params = stage1_supervised(cfg, split)
        _, table = stage2_joint(cfg, params.copy(), split)
        w_before = params.head_w.copy()
        out = stage3_finetune(cfg, params, table, split)
        np.testing.assert_array_equal(out.head_w, w_before)

    def test_stage3_oracle_labels_reduce_to_supervised(self):
        # a table whose hard labels equal the ground truth trains exactly like
        # full supervision with the same seed and schedule
        cfg = tiny_config()
        split, _ = build_dataset(cfg.data, cfg.seed)
        params = stage1_supervised(cfg, split)
        from pseudograd.pseudo_labels import PseudoTable

        n = split.base.n_examples
        logits = np.zeros((n, 3))
        logits[np.arange(n), split.base.labels] = 10.0
        oracle_table = PseudoTable(logits, np.zeros(n, bool), logits.sum(axis=1))
        out = stage3_finetune(cfg, params.copy(), oracle_table, split)

        from pseudograd.trainer import _supervised_stage

        ref = _supervised_stage(3, cfg.stage3, cfg.seed, 12, params.copy(), split.base.features,
                                split.base.labels, None, None)
        np.testing.assert_array_equal(out.head_w, ref.head_w)

    def test_stage2_emits_epoch_rows(self):
        cfg = tiny_config()
        split, test = build_dataset(cfg.data, cfg.seed)
        report = Report(split, test, cfg.loss)
        params = stage1_supervised(cfg, split, report)
        stage2_joint(cfg, params, split, report)
        s2 = report.stage_rows(2)
        assert len(s2) == cfg.stage2.epochs * cfg.stage2.rounds
        assert all(np.isfinite(list(vars(r).values())).all() for r in s2)


class TestSharedEval:
    """A report row reads each intermediate once: gathered rows, one log per
    probability array, and in stage 3 the read-only table's fields once per
    stage. Every column must equal what a fresh computation gives."""

    @pytest.fixture(scope="class")
    def trend_run(self):
        from conftest import make_trend_config

        cfg = make_trend_config(seed=7).replace({"stage2.rounds": 2})  # one reprediction
        split, test = build_dataset(cfg.data, cfg.seed)
        report, seen_params, seen_tables = Report(split, test, cfg.loss), [], []
        original = trainer._eval_row

        def recording(*args):
            seen_params.append(args[7].copy())  # the network the row is evaluated on
            return original(*args)

        def copy_table(rnd, epoch, params, table, stats):
            seen_tables.append(table.copy())  # runs before the epoch's row

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_eval_row", recording)
            params = stage1_supervised(cfg, split, report)
            params, table = stage2_joint(cfg, params, split, report, epoch_hook=copy_table)
            stage3_finetune(cfg, params, table, split, report)
        return cfg, split, report, seen_params, seen_tables, table

    @staticmethod
    def _pseudo_columns(table, split):
        from pseudograd.numerics import entropy_rows
        from pseudograd.pseudo_labels import hard_labels, pseudo_probs_rows

        unl = split.unlabeled_idx
        return (float((hard_labels(table)[unl] == split.hidden_truth(unl)).mean()),
                float(entropy_rows(pseudo_probs_rows(table, unl)).mean()),
                float(table.sum_drift()[unl].max()))

    @staticmethod
    def _row_pseudo_columns(row):
        return row.unlabeled_pseudo_acc, row.mean_entropy_pseudo, row.max_sum_drift

    @staticmethod
    def _assert_fresh_residual(row, params, table, split, cfg):
        _, _, r = theory.link_residuals(params, table, split, cfg.loss)
        quantiles = (row.link_residual_p50, row.link_residual_p90, row.link_residual_p99)
        assert quantiles == tuple(theory.residual_quantiles(r).values()), (row.stage, row.epoch)

    @staticmethod
    def _stage_rows_and_params(report, seen_params, stage):
        return [(row, p) for row, p in zip(report.rows, seen_params) if row.stage == stage]

    def test_prediction_entropy_equals_a_fresh_forward(self, trend_run):
        from pseudograd.model import forward_batch
        from pseudograd.numerics import entropy_rows

        cfg, split, report, seen_params, _, _ = trend_run
        x_unl = split.base.features[split.unlabeled_idx]
        assert len(seen_params) == len(report.rows)
        for row, params in zip(report.rows, seen_params):
            fresh = float(entropy_rows(forward_batch(params, x_unl).p_hat).mean())
            assert row.mean_entropy_pred == fresh, (row.stage, row.epoch)

    def test_stage2_pseudo_columns_follow_the_table_every_epoch(self, trend_run):
        cfg, split, report, seen_params, seen_tables, _ = trend_run
        rows = self._stage_rows_and_params(report, seen_params, 2)
        assert len(rows) == len(seen_tables) == cfg.stage2.rounds * cfg.stage2.epochs
        for (row, params), table in zip(rows, seen_tables):
            assert self._row_pseudo_columns(row) == self._pseudo_columns(table, split), row.epoch
            self._assert_fresh_residual(row, params, table, split, cfg)
        assert len({row.mean_entropy_pseudo for row, _ in rows}) > 1

    def test_stage3_pseudo_columns_come_from_the_stage2_table(self, trend_run):
        cfg, split, report, seen_params, _, table = trend_run
        want = self._pseudo_columns(table, split)
        rows = self._stage_rows_and_params(report, seen_params, 3)
        assert len(rows) == cfg.stage3.epochs
        for row, params in rows:
            assert self._row_pseudo_columns(row) == want, row.epoch
            self._assert_fresh_residual(row, params, table, split, cfg)

    def test_stage1_rows_have_no_pseudo_columns(self, trend_run):
        _, _, report, _, _, _ = trend_run
        for row in report.stage_rows(1):
            assert self._row_pseudo_columns(row) == (-1.0, -1.0, -1.0)

    def test_metric_columns_are_python_floats(self, trend_run):
        # a numpy scalar would print as np.float64(...) in ablation.csv
        from pseudograd.trainer import REPORT_COLUMNS

        _, _, report, _, _, _ = trend_run
        for row in report.rows:
            assert {type(getattr(row, c)) for c in REPORT_COLUMNS[2:]} == {float}, row


class TestPipeline:
    def test_full_run_writes_artifacts(self, tmp_path):
        cfg = tiny_config()
        report = run_pipeline(cfg, out_dir=tmp_path)
        for name in (
            "report.csv",
            "pseudo_table.csv",
            "pseudo_table.json",
            "checkpoint_stage1.json",
            "checkpoint_stage2.json",
            "checkpoint_stage3.json",
        ):
            assert (tmp_path / name).exists()
        total = cfg.stage1.epochs + cfg.stage2.epochs * cfg.stage2.rounds + cfg.stage3.epochs
        assert len(report.rows) == total

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = tiny_config({"seed": 5})
        run_pipeline(cfg, out_dir=tmp_path / "a")
        run_pipeline(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/report.csv").read_bytes() == (tmp_path / "b/report.csv").read_bytes()

    def test_report_monotone_rows(self):
        cfg = tiny_config()
        report = Report(*build_dataset(cfg.data, cfg.seed), cfg.loss)
        row = dict(stage=1, lr=0.1, loss_total=1.0, loss_lc=1.0, loss_le=0.0, labeled_acc=1.0,
                   unlabeled_pseudo_acc=-1.0, test_acc=0.5, mean_entropy_pred=0.1,
                   mean_entropy_pseudo=-1.0, max_sum_drift=-1.0, link_residual_p50=-1.0,
                   link_residual_p90=-1.0, link_residual_p99=-1.0)
        report.add(ReportRow(epoch=1, **row))
        report.add(ReportRow(epoch=2, **row))
        for bad, match in (({"epoch": 2}, "monotone"),
                           ({"epoch": 3, "test_acc": float("nan")},
                            "report field test_acc is not finite")):
            with pytest.raises(InvalidInputError, match=match):
                report.add(ReportRow(**{**row, **bad}))
        assert len(report.rows) == 2

    def test_moons_benefit_direction(self, moons_benefit_runs):
        # direction guard at a conservative pinned margin; the full-margin
        # assertion lives in the acceptance suite
        stage1s, finals = zip(*moons_benefit_runs.values())
        assert np.median(finals) >= np.median(stage1s) + 0.02

    def test_idx_holdout_split(self, tmp_path):
        from pseudograd.data import Dataset, write_idx

        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(0, 1, (50, 4)), rng.integers(0, 2, 50), 2)
        write_idx(ds, tmp_path / "i", tmp_path / "l", side=2)
        spec = DataSpec(kind="idx", images=str(tmp_path / "i"), labels=str(tmp_path / "l"),
                        holdout=10, labeled_per_class=5)
        split, test = build_dataset(spec, seed=0)
        assert test.n_examples == 10
        assert split.base.n_examples == 40
