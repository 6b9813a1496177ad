"""Tests for dataset loading, validation, corruption, and synthesis."""

import json
import math

import numpy as np
import pytest

from mvmlc import data
from mvmlc.errors import (
    DegenerateSplit,
    DimensionMismatch,
    EmptyRowMask,
    InfeasibleRatio,
    MissingFile,
    NonBinary,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def write_manifest(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.fixture
def basic_dir(tmp_path):
    write_csv(tmp_path / "v0.csv", np.arange(6.0).reshape(3, 2) + 1)
    write_csv(tmp_path / "v1.csv", np.arange(12.0).reshape(3, 4) + 1)
    write_csv(tmp_path / "y.csv", [[1, 0, 1, 0, 0], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0]])
    write_manifest(tmp_path, {"views": ["v0.csv", "v1.csv"], "labels": "y.csv"})
    return tmp_path


class TestLoadDataset:
    def test_defaults_to_all_ones_masks(self, basic_dir):
        ds = data.load_dataset(basic_dir)
        assert (ds.n, ds.m, ds.c) == (3, 2, 5)
        assert ds.view_dims == [2, 4]
        np.testing.assert_array_equal(ds.view_mask, 1.0)
        np.testing.assert_array_equal(ds.label_mask, 1.0)

    def test_row_count_mismatch(self, basic_dir):
        write_csv(basic_dir / "y.csv", [[1, 0], [0, 1], [1, 1], [0, 0]])
        with pytest.raises(DimensionMismatch):
            data.load_dataset(basic_dir)

    def test_empty_view_row_rejected(self, basic_dir):
        write_csv(basic_dir / "w.csv", [[1, 1], [0, 0], [1, 0]])
        manifest = json.loads((basic_dir / "manifest.json").read_text())
        manifest["view_mask"] = "w.csv"
        write_manifest(basic_dir, manifest)
        with pytest.raises(EmptyRowMask), pytest.warns(UserWarning, match="zero-filling"):
            data.load_dataset(basic_dir)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            data.load_dataset(tmp_path / "nowhere")
        write_manifest(tmp_path, {"views": ["gone.csv"], "labels": "y.csv"})
        with pytest.raises(MissingFile):
            data.load_dataset(tmp_path)

    def test_non_binary_labels(self, basic_dir):
        write_csv(basic_dir / "y.csv", [[1, 0, 2, 0, 0], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0]])
        with pytest.raises(NonBinary):
            data.load_dataset(basic_dir)

    def test_masked_features_zero_filled_with_warning(self, basic_dir):
        write_csv(basic_dir / "w.csv", [[1, 1], [0, 1], [1, 1]])
        manifest = json.loads((basic_dir / "manifest.json").read_text())
        manifest["view_mask"] = "w.csv"
        write_manifest(basic_dir, manifest)
        with pytest.warns(UserWarning):
            ds = data.load_dataset(basic_dir)
        np.testing.assert_array_equal(ds.views[0][1], 0.0)
        assert np.all(ds.views[0][[0, 2]] != 0.0)

    def test_save_load_round_trip(self, tmp_path):
        ds = data.make_synthetic(20, 2, 4, 3, [5, 6], noise=0.2, seed=1)
        data.save_dataset(ds, tmp_path / "out")
        back = data.load_dataset(tmp_path / "out")
        for a, b in zip(ds.views, back.views):
            np.testing.assert_array_equal(a, b)  # %.17g round-trips float64
        np.testing.assert_array_equal(ds.labels, back.labels)


class TestSimulateMissingViews:
    def test_zero_ratio_is_all_ones(self):
        np.testing.assert_array_equal(data.simulate_missing_views(10, 3, 0.0, 0), 1.0)

    def test_exact_counts_and_coverage(self):
        w = data.simulate_missing_views(1000, 6, 0.5, seed=42)
        # independent column/row scan
        for v in range(6):
            assert int((w[:, v] == 0).sum()) == 500
        assert int(w.sum(axis=1).min()) >= 1

    def test_deterministic(self):
        a = data.simulate_missing_views(200, 4, 0.3, seed=7)
        b = data.simulate_missing_views(200, 4, 0.3, seed=7)
        np.testing.assert_array_equal(a, b)
        c = data.simulate_missing_views(200, 4, 0.3, seed=8)
        assert not np.array_equal(a, c)

    def test_infeasible_ratio(self):
        # two views, 80% removal each: 0.8*2 > 1 view-slot per sample spare
        with pytest.raises(InfeasibleRatio):
            data.simulate_missing_views(10, 2, 0.8, seed=0)

    def test_repair_keeps_counts_at_high_pressure(self):
        # m=2 at ratio 0.5 forces many collisions; counts must survive repair
        w = data.simulate_missing_views(100, 2, 0.5, seed=3)
        assert int(w.sum(axis=1).min()) >= 1
        for v in range(2):
            assert int((w[:, v] == 0).sum()) == 50


class TestSimulateMissingLabels:
    def test_zero_ratio_is_all_ones(self):
        y = np.eye(4)
        np.testing.assert_array_equal(data.simulate_missing_labels(y, 0.0, 0), 1.0)

    def test_per_category_floor_counts(self):
        rng = np.random.default_rng(0)
        y = np.zeros((100, 3))
        y[:10, 0] = 1  # 10 positives, 90 negatives
        y[:37, 1] = 1
        y[rng.permutation(100)[:55], 2] = 1
        g = data.simulate_missing_labels(y, 0.5, seed=5)
        for j, npos in enumerate([10, 37, 55]):
            hidden_pos = int(((g[:, j] == 0) & (y[:, j] == 1)).sum())
            hidden_neg = int(((g[:, j] == 0) & (y[:, j] == 0)).sum())
            assert hidden_pos == math.floor(0.5 * npos)
            assert hidden_neg == math.floor(0.5 * (100 - npos))

    def test_deterministic_and_label_preserving(self):
        y = (np.random.default_rng(1).random((50, 4)) < 0.3).astype(float)
        a = data.simulate_missing_labels(y, 0.4, seed=9)
        b = data.simulate_missing_labels(y, 0.4, seed=9)
        np.testing.assert_array_equal(a, b)
        # the simulator only returns a mask; y itself is untouched
        assert y.flags.writeable


class TestMakeSynthetic:
    def test_shapes(self):
        ds = data.make_synthetic(200, 3, 8, 6, [20, 30, 25], noise=0.1, seed=7)
        assert [v.shape for v in ds.views] == [(200, 20), (200, 30), (200, 25)]
        assert ds.labels.shape == (200, 8)

    def test_noise_free_views_have_latent_rank(self):
        d_latent = 4
        ds = data.make_synthetic(100, 2, 5, d_latent, [12, 9], noise=0.0, seed=2)
        for x in ds.views:
            sv = np.linalg.svd(x, compute_uv=False)
            assert int((sv > 1e-8 * sv[0]).sum()) <= d_latent

    def test_labels_cooccur(self):
        ds = data.make_synthetic(5000, 2, 9, 8, [10, 10], noise=0.1, seed=11)
        corr = np.corrcoef(ds.labels.T)
        off = corr[~np.eye(9, dtype=bool)]
        assert np.nanmax(np.abs(off)) > 0.2

    def test_deterministic(self):
        a = data.make_synthetic(50, 2, 4, 3, [5, 6], seed=3)
        b = data.make_synthetic(50, 2, 4, 3, [5, 6], seed=3)
        for x, y in zip(a.views, b.views):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_view_dims_length_checked(self):
        with pytest.raises(DimensionMismatch):
            data.make_synthetic(10, 3, 2, 2, [4, 4], seed=0)


class TestSplit:
    def test_sizes_round_down_train(self):
        ds = data.make_synthetic(10, 2, 3, 2, [4, 4], seed=0)
        train, test = data.split(ds, 0.7, seed=1)
        assert (train.n, test.n) == (7, 3)

    def test_partition(self):
        ds = data.make_synthetic(25, 2, 3, 2, [4, 4], seed=0)
        train, test = data.split(ds, 0.6, seed=2)
        joined = np.vstack([train.views[0], test.views[0]])
        assert joined.shape[0] == 25
        # every original row appears exactly once
        original = {tuple(row) for row in ds.views[0]}
        assert {tuple(row) for row in joined} == original

    def test_deterministic(self):
        ds = data.make_synthetic(30, 2, 3, 2, [4, 4], seed=0)
        a_train, _ = data.split(ds, 0.5, seed=3)
        b_train, _ = data.split(ds, 0.5, seed=3)
        np.testing.assert_array_equal(a_train.views[0], b_train.views[0])

    def test_degenerate_split(self):
        ds = data.make_synthetic(3, 2, 3, 2, [4, 4], seed=0)
        with pytest.raises(DegenerateSplit):
            data.split(ds, 0.1, seed=0)


class TestInvariantsUnderComposition:
    """Any simulate/load/split composition must yield a valid dataset."""

    def test_random_pipelines(self, tmp_path):
        rng = np.random.default_rng(21)
        for trial in range(15):
            n = int(rng.integers(6, 40))
            m = int(rng.integers(1, 5))
            c = int(rng.integers(2, 7))
            dims = [int(rng.integers(2, 9)) for _ in range(m)]
            ds = data.make_synthetic(n, m, c, 3, dims, noise=0.3, seed=trial)
            view_ratio = float(rng.uniform(0, 0.4)) if m > 1 else 0.0
            w = data.simulate_missing_views(n, m, view_ratio, seed=trial)
            g = data.simulate_missing_labels(ds.labels, float(rng.uniform(0, 0.6)), seed=trial)
            corrupted = data.apply_masks(ds, w, g)
            # construction re-runs every invariant check; also exercise I/O + split
            data.save_dataset(corrupted, tmp_path / f"t{trial}")
            loaded = data.load_dataset(tmp_path / f"t{trial}")
            if loaded.n >= 4:
                data.split(loaded, 0.5, seed=trial)

    def test_label_corruption_is_mask_only(self):
        ds = data.make_synthetic(40, 2, 5, 3, [4, 4], seed=4)
        g = data.simulate_missing_labels(ds.labels, 0.5, seed=4)
        corrupted = data.apply_masks(ds, label_mask=g)
        known = corrupted.label_mask == 1.0
        np.testing.assert_array_equal(corrupted.labels[known], ds.labels[known])
        np.testing.assert_array_equal(corrupted.labels[~known], 0.0)
