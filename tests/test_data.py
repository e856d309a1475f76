import struct

import numpy as np
import pytest

from pseudograd.data import (
    Dataset,
    IdxFormatError,
    gen_gaussian_blobs,
    gen_two_moons,
    load_idx,
    split_per_class,
    write_idx,
    _simplex_vertices,
)
from pseudograd.numerics import InvalidInputError


class TestGaussianBlobs:
    def test_zero_noise_limit_hits_centers(self):
        ds = gen_gaussian_blobs(2, 1, 2, spread=1e-12, seed=0)
        centers = _simplex_vertices(2, 2)
        np.testing.assert_allclose(ds.features, centers, atol=1e-9)

    def test_deterministic(self):
        a = gen_gaussian_blobs(3, 50, 2, 0.5, seed=9)
        b = gen_gaussian_blobs(3, 50, 2, 0.5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_centers_equidistant(self):
        c = _simplex_vertices(4, 5)
        dists = [
            np.linalg.norm(c[i] - c[j]) for i in range(4) for j in range(i + 1, 4)
        ]
        np.testing.assert_allclose(dists, dists[0], rtol=1e-9)


class TestTwoMoons:
    def test_zero_noise_on_unit_half_circles(self):
        ds = gen_two_moons(100, noise=0.0, seed=0)
        outer = ds.features[ds.labels == 0]
        np.testing.assert_allclose(np.linalg.norm(outer, axis=1), 1.0, atol=1e-12)
        inner = ds.features[ds.labels == 1]
        recentered = inner - np.array([1.0, 0.5])
        np.testing.assert_allclose(np.linalg.norm(recentered, axis=1), 1.0, atol=1e-12)

    def test_balanced_labels(self):
        ds = gen_two_moons(137, noise=0.2, seed=4)
        assert (ds.labels == 0).sum() == 137
        assert (ds.labels == 1).sum() == 137

    def test_deterministic(self):
        a = gen_two_moons(50, 0.1, seed=3)
        b = gen_two_moons(50, 0.1, seed=3)
        np.testing.assert_array_equal(a.features, b.features)


class TestIdxFormat:
    def _roundtrip_dataset(self):
        rng = np.random.default_rng(5)
        feats = rng.uniform(0, 1, size=(20, 16))
        labels = rng.integers(0, 4, size=20)
        return Dataset(feats, labels, 4)

    def test_roundtrip(self, tmp_path):
        ds = self._roundtrip_dataset()
        write_idx(ds, tmp_path / "img", tmp_path / "lab")
        loaded = load_idx(tmp_path / "img", tmp_path / "lab")
        assert loaded.n_examples == 20
        assert loaded.input_dim == 16
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        # uint8 quantization: within half a level
        assert np.abs(loaded.features - ds.features).max() <= 0.5 / 255 + 1e-12

    def test_first_row_matches_independent_decode(self, tmp_path):
        ds = self._roundtrip_dataset()
        write_idx(ds, tmp_path / "img", tmp_path / "lab")
        loaded = load_idx(tmp_path / "img", tmp_path / "lab")
        raw = (tmp_path / "img").read_bytes()
        magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
        assert (magic, count, rows, cols) == (0x803, 20, 4, 4)
        first = np.frombuffer(raw[16 : 16 + 16], dtype=np.uint8) / 255.0
        np.testing.assert_array_equal(loaded.features[0], first)

    def test_bad_image_magic(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">IIII", 0x804, 1, 2, 2) + b"\0" * 4)
        (tmp_path / "lab").write_bytes(struct.pack(">II", 0x801, 1) + b"\0")
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(tmp_path / "img", tmp_path / "lab")

    def test_truncated_labels(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">IIII", 0x803, 2, 1, 2) + b"\0" * 4)
        (tmp_path / "lab").write_bytes(struct.pack(">II", 0x801, 2) + b"\0")
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(tmp_path / "img", tmp_path / "lab")

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">IIII", 0x803, 2, 1, 2) + b"\0" * 4)
        (tmp_path / "lab").write_bytes(struct.pack(">II", 0x801, 3) + b"\0" * 3)
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(tmp_path / "img", tmp_path / "lab")

    def test_loaded_features_in_unit_interval(self, tmp_path):
        ds = self._roundtrip_dataset()
        write_idx(ds, tmp_path / "img", tmp_path / "lab")
        loaded = load_idx(tmp_path / "img", tmp_path / "lab")
        assert loaded.features.min() >= 0.0
        assert loaded.features.max() <= 1.0


class TestSplitPerClass:
    def test_partition(self):
        ds = gen_gaussian_blobs(3, 40, 2, 0.5, seed=1)
        split = split_per_class(ds, 5, seed=2)
        assert split.n_labeled == 15
        assert split.n_labeled + split.n_unlabeled == ds.n_examples
        assert not set(split.labeled_idx) & set(split.unlabeled_idx)

    def test_all_labeled_boundary(self):
        ds = gen_gaussian_blobs(2, 10, 2, 0.5, seed=1)
        split = split_per_class(ds, 10, seed=2)
        assert split.n_unlabeled == 0

    def test_per_class_counts_equal_across_seeds(self):
        ds = gen_gaussian_blobs(3, 40, 2, 0.5, seed=1)
        s1 = split_per_class(ds, 4, seed=10)
        s2 = split_per_class(ds, 4, seed=11)
        assert not np.array_equal(s1.labeled_idx, s2.labeled_idx)
        for s in (s1, s2):
            labels = ds.labels[s.labeled_idx]
            assert all((labels == k).sum() == 4 for k in range(3))

    def test_insufficient_members(self):
        ds = gen_gaussian_blobs(2, 3, 2, 0.5, seed=1)
        with pytest.raises(InvalidInputError):
            split_per_class(ds, 4, seed=0)

    def test_deterministic(self):
        ds = gen_gaussian_blobs(3, 40, 2, 0.5, seed=1)
        a = split_per_class(ds, 4, seed=5)
        b = split_per_class(ds, 4, seed=5)
        np.testing.assert_array_equal(a.labeled_idx, b.labeled_idx)


class TestCsvExport:
    def test_header_and_rows(self, tmp_path):
        ds = gen_gaussian_blobs(2, 3, 2, 0.5, seed=1)
        ds.to_csv(tmp_path / "out.csv")
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 1 + ds.n_examples
