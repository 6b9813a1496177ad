"""Tests for dataset loading, validation, corruption, and synthesis."""

import json
import math

import numpy as np
import pytest

from mvmlc import data, losses, model
from mvmlc.autodiff import Tensor
from mvmlc.errors import (
    DegenerateSplit,
    DimensionMismatch,
    EmptyRowMask,
    InfeasibleRatio,
    MissingFile,
    NonBinary,
    NonFiniteFeatures,
)
from oracles import oracle_simulate_missing_views


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_features(self, basic_dir, value):
        rows = (np.arange(12.0).reshape(3, 4) + 1).tolist()
        rows[2][1] = value
        write_csv(basic_dir / "v1.csv", rows)
        with pytest.raises(NonFiniteFeatures, match="view 1"):
            data.load_dataset(basic_dir)

    @pytest.mark.parametrize("manifest", [
        [],
        "v0.csv",
        {"views": "v0.csv", "labels": "y.csv"},
        {"views": ["v0.csv", 1], "labels": "y.csv"},
        {"views": ["v0.csv"], "labels": ["y.csv"]},
        {"views": ["v0.csv"], "labels": "y.csv", "view_mask": 0},
    ])
    def test_malformed_manifest_names_the_file(self, basic_dir, manifest):
        write_manifest(basic_dir, manifest)
        with pytest.raises(ValueError, match="manifest.json"):
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
        # a masked row is zero-filled whatever it holds, non-finite values too
        for value in ("nan", "inf"):
            write_csv(basic_dir / "v0.csv", [[1, 2], [value, value], [5, 6]])
            with pytest.warns(UserWarning, match="zero-filling"):
                ds = data.load_dataset(basic_dir)
            np.testing.assert_array_equal(ds.views[0], [[1, 2], [0, 0], [5, 6]])

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

    def test_bit_equal_to_full_resum_oracle(self):
        # infeasible ratios included: both sides must then raise
        for n in (1, 2, 5, 17, 64, 300):
            for m in range(1, 7):
                for ratio in np.arange(10) / 10:
                    for seed in range(4):
                        try:
                            want = oracle_simulate_missing_views(n, m, ratio, seed)
                        except InfeasibleRatio:
                            with pytest.raises(InfeasibleRatio):
                                data.simulate_missing_views(n, m, ratio, seed)
                            continue
                        got = data.simulate_missing_views(n, m, ratio, seed)
                        np.testing.assert_array_equal(got, want)

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

    @pytest.mark.parametrize("ratio", [-0.1, 1.0, 1.5])
    def test_ratio_outside_unit_interval_is_infeasible(self, ratio):
        with pytest.raises(InfeasibleRatio):
            data.simulate_missing_labels(np.eye(4), ratio, 0)

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

    def test_sides_own_their_rows(self):
        ds = data.make_synthetic(25, 2, 3, 2, [4, 4], seed=0)
        for side in data.split(ds, 0.6, seed=2):
            for got, source in zip(side.views + [side.labels, side.view_mask, side.label_mask],
                                   ds.views + [ds.labels, ds.view_mask, ds.label_mask]):
                assert not np.shares_memory(got, source) and not got.flags.writeable

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

    def test_mask_of_another_shape_raises(self):
        # each would broadcast: hide a view or a category in every row
        ds = data.make_synthetic(6, 3, 4, 2, [3, 3, 3], seed=0)
        for kwargs, shape in (({"view_mask": [[1, 0, 1]]}, (6, 3)),
                              ({"view_mask": np.ones((6, 1))}, (6, 3)),
                              ({"label_mask": [1, 0, 1, 1]}, (6, 4)),
                              ({"label_mask": np.ones((6, 3))}, (6, 4))):
            with pytest.raises(DimensionMismatch) as info:
                data.apply_masks(ds, **kwargs)
            given = np.shape(next(iter(kwargs.values())))
            assert str(given) in str(info.value) and str(shape) in str(info.value)

    def test_label_corruption_is_mask_only(self):
        ds = data.make_synthetic(40, 2, 5, 3, [4, 4], seed=4)
        g = data.simulate_missing_labels(ds.labels, 0.5, seed=4)
        corrupted = data.apply_masks(ds, label_mask=g)
        known = corrupted.label_mask == 1.0
        np.testing.assert_array_equal(corrupted.labels[known], ds.labels[known])
        np.testing.assert_array_equal(corrupted.labels[~known], 0.0)


def _mask_with(row, value):
    w = np.ones((4, 3))
    w[row] = value
    return w


BAD_VIEW_MASKS = {
    "one_row": (np.ones((1, 3)), DimensionMismatch),
    "two_views": (np.ones((4, 2)), DimensionMismatch),
    "half": (_mask_with(1, [1.0, 0.5, 1.0]), NonBinary),
    "two": (_mask_with(1, [1.0, 2.0, 1.0]), NonBinary),
    "minus_one": (_mask_with(1, [1.0, -1.0, 1.0]), NonBinary),
    "empty_row": (_mask_with(2, 0.0), EmptyRowMask),
}

VALID_VIEW_MASK = _mask_with(1, [0.0, 1.0, 0.0])

# every caller of check_view_mask, on n = 4 samples and m = 3 views
VIEW_MASK_CALLERS = {
    "dataset": lambda w: data.MultiViewDataset(
        views=[np.zeros((4, 2))] * 3, labels=np.zeros((4, 2)), view_mask=w,
        label_mask=np.ones((4, 2))),
    "embed": lambda w: model.embed_views(
        [np.zeros((4, 2))] * 3, w, model.ModelParams.initialize(
            model.ModelConfig(d_e=4, heads=2, dtype="float64"), [2, 2, 2], 2)),
    # the stream of VALID_VIEW_MASK's present rows
    "view_encoder": lambda w: model.view_encoder_forward(
        Tensor(np.zeros((np.count_nonzero(VALID_VIEW_MASK), 4))), w, model.ModelParams.initialize(
            model.ModelConfig(d_e=4, heads=2, dtype="float64"), [2, 2, 2], 2)),
    "fusion": lambda w: model.adaptive_fusion(
        Tensor(np.zeros((4, 3, 4))), w, Tensor(np.ones(3)), 2.0),
    "graph_constraint": lambda w: losses.graph_constraint_loss(
        Tensor(np.ones((4, 3, 4))), np.ones((4, 4)), np.ones((4, 4)), w),
}


class TestCheckViewMask:
    @pytest.mark.parametrize("caller", VIEW_MASK_CALLERS)
    @pytest.mark.parametrize("case", BAD_VIEW_MASKS)
    def test_every_caller_raises_the_same_typed_error(self, caller, case):
        mask, error = BAD_VIEW_MASKS[case]
        with pytest.raises(error) as info:
            VIEW_MASK_CALLERS[caller](mask)
        if (caller, case) == ("view_encoder", "one_row"):
            # the encoder learns n from the mask alone: a one-row mask is a
            # valid (1, 3) mask, and the stream does not fit it
            assert str(info.value) == ("the view stream is (10, 4); the view mask has "
                                       "3 present rows of width 4")
        elif error is DimensionMismatch:
            assert str(info.value) == f"view_mask is {mask.shape}, not (4, 3)"

    @pytest.mark.parametrize("caller", VIEW_MASK_CALLERS)
    def test_every_caller_accepts_a_valid_mask(self, caller):
        VIEW_MASK_CALLERS[caller](VALID_VIEW_MASK)

    def test_returns_float64_of_any_0_1_dtype(self):
        for mask in ([[1, 0], [0, 1]], np.eye(2, dtype=bool), np.eye(2, dtype=np.float32)):
            w = data.check_view_mask(mask, (2, 2))
            assert w.dtype == np.float64
            np.testing.assert_array_equal(w, np.eye(2))


def _label_mask_with(value):
    g = np.ones((4, 2))
    g[1, 0] = value
    return g


BAD_LABEL_MASKS = {
    "one_row": (np.ones((1, 2)), DimensionMismatch),
    "one_label": (np.ones((4, 1)), DimensionMismatch),
    "flat": (np.ones(2), DimensionMismatch),
    "half": (_label_mask_with(0.5), NonBinary),
    "two": (_label_mask_with(2.0), NonBinary),
    "minus_one": (_label_mask_with(-1.0), NonBinary),
}

# every caller of check_label_mask, on n = 4 samples and c = 2 labels
LABEL_MASK_CALLERS = {
    "dataset": lambda g: data.MultiViewDataset(
        views=[np.zeros((4, 2))] * 3, labels=np.zeros((4, 2)), view_mask=np.ones((4, 3)),
        label_mask=g),
    "known_pairs": lambda g: model.known_pairs(g, (4, 2)),
    "masked_bce": lambda g: losses.masked_bce(Tensor(np.zeros((4, 2))), np.zeros((4, 2)), g),
    "label_similarity": lambda g: losses.label_similarity(np.zeros((4, 2)), g),
}


class TestCheckLabelMask:
    @pytest.mark.parametrize("caller", LABEL_MASK_CALLERS)
    @pytest.mark.parametrize("case", BAD_LABEL_MASKS)
    def test_every_caller_raises_the_same_typed_error(self, caller, case):
        mask, error = BAD_LABEL_MASKS[case]
        with pytest.raises(error) as info:
            LABEL_MASK_CALLERS[caller](mask)
        if error is DimensionMismatch:
            assert str(info.value) == f"label_mask is {mask.shape}, not (4, 2)"

    @pytest.mark.parametrize("caller", LABEL_MASK_CALLERS)
    def test_every_caller_accepts_a_valid_mask(self, caller):
        LABEL_MASK_CALLERS[caller](_label_mask_with(0.0))

    def test_returns_float64_of_any_0_1_dtype(self):
        for mask in ([[1, 0], [0, 1]], np.eye(2, dtype=bool), np.eye(2, dtype=np.float32)):
            g = data.check_label_mask(mask, (2, 2))
            assert g.dtype == np.float64
            np.testing.assert_array_equal(g, np.eye(2))


class TestCallerKeepsItsArrays:
    def test_inputs_stay_writeable_and_apart_from_the_dataset(self):
        rng = np.random.default_rng(0)
        views = [rng.standard_normal((4, 3)), rng.standard_normal((4, 2))]
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        view_mask, label_mask = np.ones((4, 2)), np.ones((4, 2))
        ds = data.MultiViewDataset(views=views, labels=labels, view_mask=view_mask,
                                   label_mask=label_mask)
        inputs = [*views, labels, view_mask, label_mask]
        own = [*ds.views, ds.labels, ds.view_mask, ds.label_mask]
        kept = [arr.copy() for arr in own]
        for arr in inputs:
            assert arr.flags.writeable
            arr[0, 0] = 0.5
        for arr, was in zip(own, kept):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, was)

    def test_derived_datasets_share_unchanged_arrays(self):
        ds = data.make_synthetic(10, 2, 3, 2, [3, 4], seed=0)
        masked = data.apply_masks(ds, label_mask=data.simulate_missing_labels(ds.labels, 0.3, 0))
        assert masked.view_mask is ds.view_mask
        assert not any(x.flags.writeable for x in masked.views)
