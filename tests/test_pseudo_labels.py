import json

import numpy as np
import pytest
from hypothesis import example, given

from conftest import DOCUMENT_SLOTS, JSON_VALUES, damaged

from pseudograd.data import gen_gaussian_blobs, split_per_class
from pseudograd.loss import LossConfig, joint_loss_rows
from pseudograd.model import Architecture, forward_batch, init_params
from pseudograd.numerics import InvalidInputError, softmax_rows
from pseudograd.optimizer import pseudo_step
from pseudograd.pseudo_labels import (
    PseudoTable,
    export_csv,
    hard_labels,
    init_pseudo,
    load_table,
    pseudo_probs_rows,
    repredict,
    save_table,
)


@pytest.fixture
def small_split():
    ds = gen_gaussian_blobs(3, 20, 2, 0.5, seed=1)
    return split_per_class(ds, 4, seed=2)


@pytest.fixture
def small_params(small_split):
    arch = Architecture(2, (8,), 3)
    return init_params(arch, seed=3)


class TestInitPseudo:
    def test_labeled_rows_are_scaled_one_hot(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        for i in small_split.labeled_idx:
            y = small_split.base.labels[i]
            expected = np.zeros(3)
            expected[y] = 10.0
            np.testing.assert_array_equal(table.logits[i], expected)
            assert table.frozen[i]

    def test_unlabeled_rows_equal_head_activation(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        trace = forward_batch(
            small_params, small_split.base.features[small_split.unlabeled_idx]
        )
        np.testing.assert_array_equal(table.logits[small_split.unlabeled_idx], trace.y_hat)
        assert not table.frozen[small_split.unlabeled_idx].any()

    def test_zero_model_gives_uniform_pseudo(self, small_split, small_params):
        small_params.flat[...] = 0.0
        table = init_pseudo(small_split, small_params)
        i = small_split.unlabeled_idx[0]
        np.testing.assert_array_equal(table.logits[i], np.zeros(3))
        np.testing.assert_allclose(pseudo_probs_rows(table, [i]), [[1 / 3] * 3], atol=1e-15)

    def test_init_sum_recorded(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        np.testing.assert_allclose(table.init_sum, table.logits.sum(axis=1), atol=0)


class TestRepredict:
    def test_idempotent_without_training(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        once = repredict(table, small_split, small_params)
        twice = repredict(once, small_split, small_params)
        np.testing.assert_array_equal(once.logits, twice.logits)
        np.testing.assert_array_equal(once.init_sum, twice.init_sum)

    def test_frozen_rows_bit_identical(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        before = table.logits[small_split.labeled_idx].copy()
        after = repredict(table, small_split, small_params)
        np.testing.assert_array_equal(after.logits[small_split.labeled_idx], before)

    def test_resets_init_sum(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        unl = small_split.unlabeled_idx
        table.logits[unl] += np.array([1.0, -2.0, 0.5])
        assert table.sum_drift()[unl].max() > 0.1
        after = repredict(table, small_split, small_params)
        np.testing.assert_allclose(after.sum_drift()[unl], 0.0, atol=1e-12)


class TestReadout:
    def test_sharp_row_probabilities(self):
        table = PseudoTable(np.array([[0.0, 10.0, 0.0]]), np.array([True]), np.array([10.0]))
        # frozen from 50-digit evaluation of softmax([0, 10, 0])
        np.testing.assert_allclose(
            pseudo_probs_rows(table, [0]),
            [[4.5395807829510909e-05, 0.99990920838434098, 4.5395807829510909e-05]],
            atol=1e-12,
        )

    def test_shift_invariance(self):
        row = np.array([[1.0, 2.0, 0.5]])
        t1 = PseudoTable(row, np.array([False]), row.sum(axis=1))
        t2 = PseudoTable(row + 7.3, np.array([False]), (row + 7.3).sum(axis=1))
        np.testing.assert_allclose(
            pseudo_probs_rows(t1, [0]), pseudo_probs_rows(t2, [0]), atol=1e-12
        )

    def test_out_of_range_index(self):
        table = PseudoTable(np.zeros((2, 3)), np.zeros(2, bool), np.zeros(2))
        with pytest.raises(IndexError):
            pseudo_probs_rows(table, [5])

    def test_hard_labels_from_frozen_row(self, small_split, small_params):
        table = init_pseudo(small_split, small_params)
        hard = hard_labels(table)
        np.testing.assert_array_equal(
            hard[small_split.labeled_idx], small_split.labeled_targets()
        )

    def test_hard_label_tie_breaks_low_index(self):
        table = PseudoTable(np.array([[1.0, 1.0]]), np.array([False]), np.array([2.0]))
        assert hard_labels(table)[0] == 0

    def test_hard_label_scale_invariant(self):
        rng = np.random.default_rng(8)
        row = rng.normal(size=(1, 4))
        t1 = PseudoTable(row, np.array([False]), row.sum(axis=1))
        t2 = PseudoTable(3.0 * row + 2.0, np.array([False]), (3.0 * row + 2.0).sum(axis=1))
        assert hard_labels(t1)[0] == hard_labels(t2)[0]


class TestFreezeAndConservation:
    def test_frozen_rows_survive_many_steps(self, small_split, small_params):
        cfg = LossConfig()
        table = init_pseudo(small_split, small_params)
        frozen_before = table.logits[small_split.labeled_idx].copy()
        rng = np.random.default_rng(0)
        rows = np.arange(table.n_examples)
        for _ in range(50):
            p_hat = softmax_rows(rng.normal(size=table.logits.shape))
            p_tilde = pseudo_probs_rows(table, rows)
            grads = joint_loss_rows(p_hat, p_tilde, cfg).grad_pseudo
            pseudo_step(table, grads, cfg.lam, rows)
        np.testing.assert_array_equal(
            table.logits[small_split.labeled_idx], frozen_before
        )

    def test_row_sums_conserved_across_steps(self, small_split, small_params):
        cfg = LossConfig()
        table = init_pseudo(small_split, small_params)
        rng = np.random.default_rng(1)
        rows = small_split.unlabeled_idx
        for _ in range(100):
            p_hat = softmax_rows(rng.normal(size=(rows.size, 3)))
            p_tilde = pseudo_probs_rows(table, rows)
            grads = joint_loss_rows(p_hat, p_tilde, cfg).grad_pseudo
            pseudo_step(table, grads, cfg.lam, rows)
        assert table.sum_drift()[rows].max() < 1e-9


class TestSerialization:
    def test_csv_export_shape(self, small_split, small_params, tmp_path):
        table = init_pseudo(small_split, small_params)
        export_csv(table, tmp_path / "table.csv")
        lines = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "example_id,frozen,y0,y1,y2"
        assert len(lines) == 1 + table.n_examples

    def test_json_roundtrip_bit_exact(self, small_split, small_params, tmp_path):
        table = init_pseudo(small_split, small_params)
        save_table(table, tmp_path / "table.json")
        loaded = load_table(tmp_path / "table.json", table.frozen, table.num_classes)
        np.testing.assert_array_equal(loaded.logits, table.logits)
        np.testing.assert_array_equal(loaded.frozen, table.frozen)
        np.testing.assert_array_equal(loaded.init_sum, table.init_sum)

    @given(DOCUMENT_SLOTS, JSON_VALUES)
    @example(None, [])
    def test_any_json_document_loads_or_is_refused_by_name(self, tmp_path_factory, slot, value):
        split = split_per_class(gen_gaussian_blobs(2, 3, 2, 0.5, seed=1), 1, seed=2)
        table = init_pseudo(split, init_params(Architecture(2, (), 2), seed=3))
        path = tmp_path_factory.getbasetemp() / "pseudo_table_property.json"
        save_table(table, path)
        path.write_text(json.dumps(damaged(json.loads(path.read_text()), slot, value)))
        try:
            load_table(path, table.frozen, table.num_classes)
        except InvalidInputError as exc:
            assert str(path) in str(exc)
