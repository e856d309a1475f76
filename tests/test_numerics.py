import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import JSON_VALUES, bits
from pseudograd.loss import loss_terms_rows
from pseudograd.numerics import (
    LOG_EPS,
    ROW_MAX_GATE,
    ROW_SUM_GATE,
    InvalidInputError,
    WriteError,
    entropy_rows,
    json_text,
    random_stream,
    read_artifact,
    row_max,
    row_sum,
    softmax_rows,
    write_artifact,
    write_csv,
    write_json,
)


def _gate_row_counts(cols):
    """Row counts on both sides of each reduction's column gate, and a 1-row input."""
    gates = (ROW_MAX_GATE * cols, ROW_SUM_GATE * cols)
    return sorted({1, *(n for gate in gates for n in (gate - 1, gate, 3 * gate))})


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310])


def _draw_with_specials(rng, rows, cols):
    """Rows of scaled normals, a quarter of them negative, each entry swapped
    for a special value with the row's own probability in [0, 1]."""
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, cols))
    neg = rng.random(rows) < 0.25  # rows whose maximum can be a zero
    m[neg] = -np.abs(m[neg])
    special = rng.random((rows, cols)) < rng.random((rows, 1))
    m[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    return m


def _layouts(rng, rows, cols):
    """The same reduction shape in C and F order, with strided columns,
    sliced rows, and a negative row or column stride."""
    m = _draw_with_specials(rng, rows, cols)
    yield "C", m
    yield "F", np.asfortranarray(m)
    yield "column-strided", _draw_with_specials(rng, rows, 2 * cols)[:, ::2]
    yield "row-sliced", _draw_with_specials(rng, 2 * rows, cols)[::2]
    yield "negative row stride", m[::-1]
    yield "negative column stride", m[:, ::-1]


def _assert_same_bits(got, want, what):
    """NaN rows by position, every other row by its bits."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=what)
    np.testing.assert_array_equal(bits(got)[~nan], bits(want)[~nan], err_msg=what)


class TestRowReductions:
    """``row_max`` and ``row_sum`` have numpy's bits on both sides of each
    one's column gate. A numpy that changes its short-row sum order fails here."""

    @pytest.mark.parametrize("cols", range(1, 17))
    def test_same_bits_as_numpy(self, cols):
        rng = np.random.default_rng(cols)
        for rows in _gate_row_counts(cols):
            m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, cols))
            np.testing.assert_array_equal(bits(row_max(m)), bits(m.max(axis=1)))
            np.testing.assert_array_equal(bits(row_sum(m)), bits(m.sum(axis=1)))

    @pytest.mark.parametrize("cols", range(1, 17))
    def test_signed_zeros(self, cols):
        rng = np.random.default_rng(100 + cols)
        for rows in _gate_row_counts(cols):
            m = rng.choice([0.0, -0.0], size=(rows, cols))
            m[0] = -0.0
            np.testing.assert_array_equal(bits(row_max(m)), bits(m.max(axis=1)))
            np.testing.assert_array_equal(bits(row_sum(m)), bits(m.sum(axis=1)))

    @pytest.mark.parametrize("cols", range(1, 33))
    def test_every_layout_and_special_value(self, cols):
        rng = np.random.default_rng(300 + cols)
        with np.errstate(invalid="ignore"):  # inf - inf in a row's sum
            for rows in _gate_row_counts(cols):
                for layout, m in _layouts(rng, rows, cols):
                    what = f"{rows} rows, {layout}"
                    _assert_same_bits(row_max(m), m.max(axis=1), f"row_max, {what}")
                    _assert_same_bits(row_sum(m), m.sum(axis=1), f"row_sum, {what}")

    @pytest.mark.parametrize("cols", [1, 2, 3, 7, 8, 10, 16])
    def test_softmax_and_entropy_keep_the_numpy_reduce_bits(self, cols):
        # the expressions as written on numpy's reductions
        def softmax_ref(m):
            e = np.exp(m - m.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        def entropy_ref(p):
            return -(p * np.log(np.maximum(p, LOG_EPS))).sum(axis=1)

        rng = np.random.default_rng(200 + cols)
        for rows in _gate_row_counts(cols):
            m = rng.normal(size=(rows, cols)) * 5.0
            p = softmax_rows(m)
            np.testing.assert_array_equal(bits(p), bits(softmax_ref(m)))
            np.testing.assert_array_equal(bits(entropy_rows(p)), bits(entropy_ref(p)))


class TestSoftmax:
    def test_symmetry_two_zeros(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_constant_vector_is_uniform(self):
        for c in (-7.0, 0.0, 123.4):
            np.testing.assert_allclose(softmax_rows([[c, c, c]]), [[1 / 3] * 3], atol=1e-15)

    def test_scalar_reference_value(self):
        # frozen from a 50-digit scalar evaluation of exp(v_i)/sum exp(v_j)
        expected = [[0.090030573170380458, 0.24472847105479765, 0.6652409557748219]]
        np.testing.assert_allclose(softmax_rows([[1.0, 2.0, 3.0]]), expected, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=(1, 5)) * 10
            c = rng.normal() * 100
            np.testing.assert_allclose(softmax_rows(v + c), softmax_rows(v), atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax_rows([[np.nan, 0.0]])
        with pytest.raises(InvalidInputError):
            softmax_rows([[np.inf, 0.0]])


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert abs(entropy_rows([[1.0, 0.0, 0.0]])[0]) < 1e-10

    def test_uniform_is_log_n(self):
        np.testing.assert_allclose(entropy_rows([[0.25] * 4]), [np.log(4)], atol=1e-12)

    def test_scalar_reference_value(self):
        # frozen from 50-digit evaluation of -(0.9 log 0.9 + 0.1 log 0.1)
        np.testing.assert_allclose(entropy_rows([[0.9, 0.1]]), [0.3250829733914482], atol=1e-12)

    def test_upper_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            assert entropy_rows(p[None, :])[0] <= np.log(5) + 1e-10


class TestKlDivergence:
    """KL(p || q) is the kl_pred_pseudo Lc, read from ``loss_terms_rows``."""

    @staticmethod
    def kl(p, q):
        return loss_terms_rows(p, q, "kl_pred_pseudo")[0]

    def test_identity_is_zero(self):
        p = [[0.2, 0.5, 0.3]]
        assert abs(self.kl(p, p)[0]) < 1e-10

    def test_degenerate_vs_uniform(self):
        np.testing.assert_allclose(self.kl([[1.0, 0.0]], [[0.5, 0.5]]), [np.log(2)], atol=1e-9)

    def test_scalar_reference_value(self):
        # frozen from 50-digit evaluation
        np.testing.assert_allclose(
            self.kl([[0.7, 0.3]], [[0.3, 0.7]]), [0.33891914415488145], atol=1e-12
        )

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert self.kl(p[None, :], q[None, :])[0] >= -1e-10

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            self.kl([[0.5, 0.5]], [[0.3, 0.3, 0.4]])


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = random_stream(42, 3).uniform(size=10_000)
        b = random_stream(42, 3).uniform(size=10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = random_stream(42, 0).uniform(size=100)
        b = random_stream(42, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_permutation_reproducible(self):
        a = random_stream(7, 5).permutation(1000)
        b = random_stream(7, 5).permutation(1000)
        np.testing.assert_array_equal(a, b)


class TestWriters:
    def test_write_csv_writes_each_cell_kind(self, tmp_path):
        floats = [0.1, -0.0, 1e-300, float("nan"), float("inf"),
                  np.float64(-0.0), np.float64(1e-300), np.float64("nan"), np.float32(0.5)]
        others = [7, np.int64(-3), True, False, np.bool_(True), np.bool_(False), "text"]
        write_csv(tmp_path / "cells.csv", ["a", "b"], [floats, others])
        assert (tmp_path / "cells.csv").read_bytes() == (
            b"a,b\r\n"
            b"0.1,-0.0,1e-300,nan,inf,-0.0,1e-300,nan,0.5\r\n"
            b"7,-3,1,0,1,0,text\r\n"
        )

    @pytest.mark.parametrize("write", [
        lambda p: write_csv(p, ["a"], [[1]]), lambda p: write_json(p, {"a": 1}),
        lambda p: write_artifact(p, 1, a=1)], ids=["csv", "json", "artifact"])
    def test_a_failed_write_names_its_file(self, tmp_path, write):
        (tmp_path / "taken").mkdir()
        with pytest.raises(WriteError, match="^cannot write .*taken: Is a directory$") as err:
            write(tmp_path / "taken")
        assert err.value.path == tmp_path / "taken"

    @given(version=st.integers(0, 2**31), fields=st.dictionaries(
        st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True).filter(
            lambda k: k != "format_version"),
        JSON_VALUES, max_size=4))
    def test_read_artifact_returns_the_fields_write_artifact_wrote(
            self, tmp_path_factory, version, fields):
        path = tmp_path_factory.mktemp("artifact") / "doc.json"
        write_artifact(path, version, **fields)
        doc = read_artifact(path, "artifact", version, tuple(fields))
        assert json_text(doc) == json_text({"format_version": version, **fields})  # NaN too
