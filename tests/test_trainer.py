"""Tests for the optimizer, training loop, and evaluation driver."""

import platform
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import mvmlc.trainer as trainer_mod
from mvmlc import autodiff as ad
from mvmlc import data, losses, model as M
from mvmlc.autodiff import Tape, Tensor
from mvmlc.errors import DegenerateMask, DimensionMismatch, NonFiniteLoss, NonFiniteScores
from mvmlc.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from mvmlc.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig, adam_step,
                           evaluate, train)


def small_dataset(n=60, m=2, c=4, seed=0, noise=0.2):
    return data.make_synthetic(n, m, c, 4, [6, 5][:m] + [7] * max(0, m - 2),
                               noise=noise, seed=seed)


def small_configs(**overrides):
    mc = ModelConfig(d_e=16, heads=2, layers_v=1, layers_c=1, dropout=0.1,
                     gamma=2.0, dtype="float32")
    defaults = dict(epochs=3, batch_size=32, learning_rate=1e-3, seed=1)
    defaults.update(overrides)
    return mc, TrainConfig(**defaults)


class TestAdam:
    def _params(self, values):
        cfg = ModelConfig(d_e=4, heads=1)
        t = {name: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
             for name, v in values.items()}
        return ModelParams(cfg, [2], 2, t)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = self._params({"w": [1.0, -2.0]})
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(2)}, state, TrainConfig(seed=0))
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])
        np.testing.assert_array_equal(state.m["w"], 0.0)

    def test_first_step_closed_form(self):
        params = self._params({"w": [1.0, 1.0]})
        state = AdamState(params)
        cfg = TrainConfig(learning_rate=0.01, seed=0)
        g = np.array([0.5, -2.0])
        adam_step(params, {"w": g}, state, cfg)
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        expected = 1.0 - 0.01 * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(params["w"].data, expected, rtol=1e-12)

    def test_moments_decay_after_zero_gradient(self):
        params = self._params({"w": [1.0]})
        state = AdamState(params)
        cfg = TrainConfig(seed=0)
        adam_step(params, {"w": np.array([1.0])}, state, cfg)
        m_before = state.m["w"].copy()
        adam_step(params, {"w": np.zeros(1)}, state, cfg)
        np.testing.assert_allclose(state.m["w"], ADAM_BETA1 * m_before)

    def test_deterministic_over_ten_steps(self):
        results = []
        for _ in range(2):
            params = self._params({"w": np.linspace(-1, 1, 6)})
            state = AdamState(params)
            cfg = TrainConfig(learning_rate=0.05, seed=0)
            rng = np.random.default_rng(3)
            for _step in range(10):
                adam_step(params, {"w": rng.standard_normal(6)}, state, cfg)
            results.append(params["w"].data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_equals_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        shapes = {"a": (3, 4), "b": (4,), "c": (2, 2, 3)}
        params = ModelParams(ModelConfig(d_e=4, heads=1), [2], 2, {
            name: Tensor(rng.standard_normal(shape).astype(np.float32)) for name, shape in
            shapes.items()})
        want = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(w) for name, w in want.items()}
        v = {name: np.zeros_like(w) for name, w in want.items()}
        state, cfg = AdamState(params), TrainConfig(learning_rate=0.01, seed=0)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t in range(1, 6):
            grads = {name: rng.standard_normal(shape).astype(np.float32)
                     for name, shape in shapes.items() if name != "b" or t % 2}
            adam_step(params, grads, state, cfg)
            for name, w in want.items():
                g = grads.get(name, np.zeros_like(w))
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                update = (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t))
                                                      + ADAM_EPS)
                want[name] = w - (cfg.learning_rate * update).astype(w.dtype)
                np.testing.assert_array_equal(params[name].data, want[name])
                np.testing.assert_array_equal(state.m[name], m[name])

    def test_updates_in_place_and_adopts_rebound_data(self):
        params = self._params({"w": [1.0, -2.0]})
        state = AdamState(params)
        view = params["w"].data
        adam_step(params, {"w": np.ones(2)}, state, TrainConfig(seed=0))
        assert params["w"].data is view and view[0] < 1.0
        params["w"].data = np.array([5.0, 6.0])
        adam_step(params, {"w": np.zeros(2)}, state, TrainConfig(seed=0))
        assert params["w"].data is view
        # the moments still carry the first step, so the adopted values move
        assert 4.9 < view[0] < 5.0 and 5.9 < view[1] < 6.0

    def test_shape_mismatch(self):
        params = self._params({"w": [1.0, 2.0]})
        with pytest.raises(DimensionMismatch):
            adam_step(params, {"w": np.zeros(3)}, AdamState(params), TrainConfig(seed=0))


class DtypeTape(Tape):
    """Tape that keeps the dtype of every recorded output."""

    def __init__(self):
        super().__init__()
        self.dtypes = []

    def record(self, out, inputs, backward):
        self.dtypes.append(out.dtype)
        super().record(out, inputs, backward)


class TestPrecision:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_training_step_stays_in_model_dtype(self, dtype):
        ds = small_dataset(n=40, m=3)
        mc = ModelConfig(d_e=16, heads=2, dropout=0.1, dtype=dtype)
        tc = TrainConfig(epochs=1, batch_size=40)
        params = ModelParams.initialize(mc, ds.view_dims, ds.c, seed=0)
        t, u = losses.label_similarity(ds.labels, ds.label_mask)
        with DtypeTape() as tape:
            out = M.forward(ds.views, ds.view_mask, params, rng=np.random.default_rng(0),
                            label_mask=ds.label_mask)
            loss, *_ = trainer_mod.objective(out, ds.labels, ds.label_mask, ds.view_mask,
                                             t, u, tc.alpha, tc.beta)
            tape.backward(loss)
        want = np.dtype(dtype)
        assert set(tape.dtypes) == {want}
        assert loss.dtype == want
        grads = {name: p.grad for name, p in params.items()}
        assert all(g is not None and g.dtype == want for g in grads.values())
        state = AdamState(params)
        adam_step(params, grads, state, tc)
        for name, p in params.items():
            assert p.dtype == state.m[name].dtype == state.v[name].dtype == want


def traced_step(ds, mc):
    """Traced heap after one float32 forward pass plus objective, handed
    straight to the objective as ``train`` does, and backward's peak and
    leftover, all relative to the heap before the pass; and the parameters."""
    params = ModelParams.initialize(mc, ds.view_dims, ds.c, seed=0)
    t, u = losses.label_similarity(ds.labels, ds.label_mask)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = trainer_mod.objective(M.forward(ds.views, ds.view_mask, params, rng=rng,
                                                   label_mask=ds.label_mask),
                                         ds.labels, ds.label_mask, ds.view_mask, t, u,
                                         10.0, 0.1)[0]
            retained = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss)
            current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, peak - base, current - base, params


class TestRecordLifetime:
    def test_backward_frees_the_forward_as_it_goes(self):
        """One float32 step: backward's traced peak stays near what the
        forward retained, and almost none of that is left afterwards."""
        ds = small_dataset(n=64, m=3, c=8)
        mc = ModelConfig(d_e=32, heads=2, dtype="float32")
        retained, peak, current, params = traced_step(ds, mc)
        assert peak <= 1.25 * retained
        assert current < 0.1 * retained
        assert all(p.grad is not None for _, p in params.items())

    def test_paper_label_scale_keeps_only_what_backward_reads(self):
        """At the paper's label scale (c = 260, d_e 128, batch 128) a step
        keeps the arrays its backward closures read, not every activation:
        ~139 MiB here, where holding each record's output came to ~278 MiB."""
        ds = small_dataset(n=128, m=6, c=260)
        mc = ModelConfig(d_e=128, heads=4, dtype="float32")
        retained, _, current, params = traced_step(ds, mc)
        assert retained <= 170 * 2**20
        assert current < 0.1 * retained
        assert all(p.grad is not None for _, p in params.items())


class OpTape(Tape):
    """Tape that keeps each record's primitive name, and the inputs of its
    ``concat`` records."""

    def __init__(self):
        super().__init__()
        self.ops = []
        self.concat_inputs = []

    def record(self, out, inputs, backward):
        op = backward.__qualname__.split(".")[0]
        self.ops.append(op)
        if op == "concat":
            self.concat_inputs.append(inputs)
        super().record(out, inputs, backward)


class TestRecordsPerStep:
    @staticmethod
    def one_step_tape(monkeypatch):
        """The parameters and the ``OpTape`` of a one-step training run."""
        tapes = []

        def op_tape():
            tapes.append(OpTape())
            return tapes[-1]

        monkeypatch.setattr(trainer_mod, "Tape", op_tape)
        ds = small_dataset(n=32, m=3, c=4)
        _, tc = small_configs(epochs=1, batch_size=32)
        params, _ = train(ModelConfig(d_e=8, heads=2, dtype="float32"), tc, ds)
        (tape,) = tapes
        return params, tape

    def test_records_per_step(self, monkeypatch):
        """Constant factors are folded before they meet an activation:
        fusion scales the states once, the graph term's pair weights carry
        its 1/N and -1/(2m), and a similarity divides by the norm. The
        prediction sigmoid runs off the tape, and the loss is one stack of
        its terms, scaled and summed. Packing costs a few gathers and
        scatters: the embeddings are gathered once into the view stream,
        the view layer scatters its Q/K/V to the grid, gathers its output
        back and scatters the last output, and the class tokens, the
        token-head weights and the last layer's stream are gathered at the
        known labels."""
        _, tape = self.one_step_tape(monkeypatch)
        assert len(tape.ops) == 92
        assert tape.ops.count("mul") == 8
        assert tape.ops.count("stack") == 1
        assert tape.ops.count("scatter_rows") == 2
        assert tape.ops.count("take") == 2 + 4 + 2

    def test_no_per_step_weight_packing(self, monkeypatch):
        """A training step concatenates and reshapes only activations: the
        packed ``wqkv`` weights are parameters, not rebuilt each step. The
        concatenations join the views' embeddings, and the fused rows with
        the class tokens twice."""
        params, tape = self.one_step_tape(monkeypatch)
        assert tape.ops.count("concat") == 3
        assert tape.ops.count("reshape") == 1
        leaves = [p for _, p in params.items()]
        for inputs in tape.concat_inputs:
            assert not all(any(x is p for p in leaves) for x in inputs)


class ReadTape(Tape):
    """Tape that marks each record when backward runs its closure; backward
    skips a record whose output no later record gave a gradient."""

    def __init__(self):
        super().__init__()
        self.ops = []
        self.read = []

    def record(self, out, inputs, backward):
        k = len(self.ops)
        self.ops.append(backward.__qualname__.split(".")[0])
        self.read.append(False)

        def marked(g):
            self.read[k] = True
            return backward(g)

        super().record(out, inputs, marked)


class TestEveryRecordIsRead:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("layers_c", [1, 2, 3])
    def test_backward_reads_every_record_of_a_step(self, monkeypatch, layers_c, dtype):
        """A training step records nothing that backward does not read: the
        prediction sigmoid stays off the tape."""
        tapes = []

        def read_tape():
            tapes.append(ReadTape())
            return tapes[-1]

        monkeypatch.setattr(trainer_mod, "Tape", read_tape)
        ds = small_dataset(n=24, m=3, c=4)
        ds = data.apply_masks(ds, view_mask=data.simulate_missing_views(24, 3, 0.3, seed=0),
                              label_mask=data.simulate_missing_labels(ds.labels, 0.3, seed=0))
        assert (ds.view_mask == 0).any() and (ds.label_mask == 0).any()
        assert ds.label_mask.any(axis=1).all()  # all 24 rows train, as one batch
        mc = ModelConfig(d_e=8, heads=2, layers_c=layers_c, dropout=0.1, dtype=dtype)
        tc = TrainConfig(epochs=1, batch_size=24, alpha=10.0, beta=0.1, seed=3)
        train(mc, tc, ds)
        (tape,) = tapes
        unread = [op for op, read in zip(tape.ops, tape.read) if not read]
        assert unread == []
        assert "sigmoid" not in tape.ops


class TestKeepFreedHeap:
    def test_second_call_is_harmless(self):
        first = trainer_mod.keep_freed_heap()
        assert trainer_mod.keep_freed_heap() is first
        # past the once-per-process cache, the C library takes it again too
        assert trainer_mod.keep_freed_heap.__wrapped__() is first

    @pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                        reason="glibc only")
    def test_glibc_accepts_the_settings(self):
        assert trainer_mod.keep_freed_heap() is True

    @staticmethod
    def _no_libc(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("cdll", [
        _no_libc,
        lambda name: SimpleNamespace(),                                 # no mallopt
        lambda name: SimpleNamespace(mallopt=lambda param, value: 0),  # refused
    ])
    def test_no_op_off_glibc(self, monkeypatch, cdll):
        monkeypatch.setattr(trainer_mod.ctypes, "CDLL", cdll)
        assert trainer_mod.keep_freed_heap.__wrapped__() is False

    def test_train_sets_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer_mod, "keep_freed_heap", lambda: calls.append(1))
        mc, tc = small_configs(epochs=1)
        train(mc, tc, small_dataset(n=20))
        assert calls == [1]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)


class TestTrain:
    def test_history_has_one_record_per_epoch(self):
        ds = small_dataset()
        mc, tc = small_configs(epochs=4)
        _, history = train(mc, tc, ds)
        assert len(history) == 4
        assert [r.epoch for r in history.records] == [0, 1, 2, 3]
        assert len(history.final().view_weights) == ds.m

    def test_same_seed_is_bit_identical(self):
        ds = small_dataset()
        mc, tc = small_configs(epochs=3, seed=7)
        params_a, hist_a = train(mc, tc, ds)
        params_b, hist_b = train(mc, tc, ds)
        for name in params_a.names():
            np.testing.assert_array_equal(params_a[name].data, params_b[name].data)
        assert [r.to_dict() for r in hist_a.records] == [r.to_dict() for r in hist_b.records]

    def test_losses_fall_during_overfit(self):
        ds = small_dataset(n=64)
        mc = ModelConfig(d_e=64, heads=2)
        tc = TrainConfig(epochs=150, batch_size=32, learning_rate=3e-3,
                         alpha=10.0, beta=0.1, seed=2)
        _, history = train(mc, tc, ds)
        assert history.final().l_mc < 0.1
        assert history.final().l_mc < history.records[0].l_mc

    def test_zero_alpha_matches_run_without_graph_loss(self, monkeypatch):
        ds = small_dataset()
        mc, tc = small_configs(epochs=3, alpha=0.0, beta=0.1, seed=5)
        params_a, hist_a = train(mc, tc, ds)
        assert all(r.l_gc >= 0 for r in hist_a.records)  # still recorded

        # a run where the graph term is never even computed
        monkeypatch.setattr(trainer_mod, "graph_constraint_loss",
                            lambda *a, **k: Tensor(np.zeros((), dtype=np.float32)))
        params_b, _ = train(mc, tc, ds)
        for name in params_a.names():
            np.testing.assert_array_equal(params_a[name].data, params_b[name].data)

    def test_label_constants_never_span_more_than_a_batch(self, monkeypatch):
        rows = []
        label_similarity = losses.label_similarity

        def recording(labels, label_mask):
            rows.append(len(labels))
            return label_similarity(labels, label_mask)

        monkeypatch.setattr(losses, "label_similarity", recording)
        ds = small_dataset(n=60)
        mc, tc = small_configs(epochs=2, batch_size=16)
        train(mc, tc, ds)
        assert rows and max(rows) <= tc.batch_size

    @staticmethod
    def _batch_sizes(monkeypatch, n, batch_size):
        """Rows per step of a one-epoch run on n rows, which must not warn."""
        sizes = []

        def recording(views, *args, **kwargs):
            sizes.append(len(views[0]))
            return M.forward(views, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "forward", recording)
        mc, tc = small_configs(epochs=1, batch_size=batch_size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "graph constraint skipped"
            train(mc, tc, small_dataset(n=n))
        return sizes

    @pytest.mark.parametrize("n, batches", [(33, [17, 16]), (65, [22, 22, 21]), (34, [17, 17]),
                                            (32, [32]), (64, [32, 32])])
    def test_batches_split_near_equally(self, monkeypatch, n, batches):
        sizes = self._batch_sizes(monkeypatch, n, 32)
        assert sizes == batches and sum(sizes) == n

    def test_batch_of_two_never_runs_a_one_row_step(self, monkeypatch):
        # ceil(5 / 2) = 3 batches would be [2, 2, 1]; at most 5 // 2 = 2 run
        assert self._batch_sizes(monkeypatch, 5, 2) == [3, 2]

    def test_degenerate_label_mask_aborts(self):
        ds = small_dataset(n=20)
        blank = data.MultiViewDataset(
            views=[v.copy() for v in ds.views],
            labels=np.zeros_like(ds.labels),
            view_mask=ds.view_mask.copy(),
            label_mask=np.zeros_like(ds.label_mask),
        )
        mc, tc = small_configs(epochs=1, batch_size=10)
        with pytest.raises(DegenerateMask):
            train(mc, tc, blank)

    def test_one_labelled_row_aborts(self):
        # one labelled row would run one-row batches with no sample pair
        ds = small_dataset(n=20)
        g = np.zeros_like(ds.label_mask)
        g[7] = 1.0
        mc, tc = small_configs(epochs=2, batch_size=10)
        with pytest.raises(DegenerateMask):
            train(mc, tc, data.apply_masks(ds, label_mask=g))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_labels_run_every_epoch(self, seed):
        # 41 of the 200 rows keep a known label: a batch of 16 drawn from all
        # 200 can hold none, or too few for a single valid pair
        ds = small_dataset(n=200, c=2)
        ds = data.apply_masks(ds, label_mask=data.simulate_missing_labels(ds.labels, 0.9, seed=1))
        assert int(ds.label_mask.any(axis=1).sum()) == 41
        mc = ModelConfig(d_e=8, heads=2, dtype="float32")
        tc = TrainConfig(epochs=200, batch_size=16, learning_rate=2e-3, seed=seed)
        _, history = train(mc, tc, ds)
        assert len(history) == 200 and np.isfinite(history.final().loss)

    def test_rows_without_a_known_label_never_reach_a_batch(self, monkeypatch):
        ds = small_dataset(n=60)
        g = ds.label_mask.copy()
        g[::3] = 0.0  # 20 rows with no known label
        ds = data.apply_masks(ds, label_mask=g)
        masks = []

        def recording(logits, labels, label_mask):
            masks.append(label_mask)
            return losses.masked_bce(logits, labels, label_mask)

        monkeypatch.setattr(trainer_mod, "masked_bce", recording)
        mc, tc = small_configs(epochs=2, batch_size=16)
        train(mc, tc, ds)
        # objective calls it twice per step: main head on the (n, c) grid,
        # then the class tokens of the grid's known entries
        grids, tokens = masks[::2], masks[1::2]
        assert all(m.any(axis=1).all() for m in grids)
        assert [m.size for m in tokens] == [np.count_nonzero(m) for m in grids]
        assert all((m == 1).all() for m in tokens)
        assert [len(m) for m in grids] == [14, 13, 13] * 2  # each epoch covers the 40 rows

    def test_non_finite_loss_aborts(self):
        ds = small_dataset(n=32)
        mc, tc = small_configs(epochs=30, learning_rate=1e18)
        with pytest.raises(NonFiniteLoss), np.errstate(over="ignore", invalid="ignore"):
            train(mc, tc, ds)

    def test_periodic_eval(self):
        ds = small_dataset()
        train_ds, test_ds = data.split(ds, 0.7, seed=1)
        mc, tc = small_configs(epochs=4, eval_every=2)
        _, history = train(mc, tc, train_ds, eval_dataset=test_ds)
        evals = [r.eval_report for r in history.records]
        assert evals[0] is None and evals[1] is not None and evals[3] is not None

    @pytest.mark.parametrize("views, c", [([6, 5], 5), ([6, 7], 4), ([6, 5, 7], 4)])
    def test_eval_dataset_mismatch_raises_before_any_step(self, monkeypatch, views, c):
        calls = []

        def counted_forward(*args, **kwargs):
            calls.append(1)
            return M.forward(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "forward", counted_forward)
        other = data.make_synthetic(30, len(views), c, 4, views, seed=2)
        mc, tc = small_configs(epochs=20, eval_every=20)
        with pytest.raises(DimensionMismatch, match="eval_dataset"):
            train(mc, tc, small_dataset(), eval_dataset=other)
        assert calls == []

    def test_history_jsonl_round_trip(self, tmp_path):
        ds = small_dataset()
        mc, tc = small_configs(epochs=2)
        _, history = train(mc, tc, ds)
        path = tmp_path / "history.jsonl"
        history.save_jsonl(path)
        back = trainer_mod.RunHistory.load_jsonl(path)
        assert [r.to_dict() for r in back.records] == [r.to_dict() for r in history.records]


class TestEvaluate:
    def test_deterministic(self):
        ds = small_dataset()
        params = ModelParams.initialize(ModelConfig(d_e=16, heads=2), ds.view_dims, ds.c, seed=0)
        a = evaluate(params, ds)
        b = evaluate(params, ds)
        assert a.to_json() == b.to_json()

    def test_batch_size_does_not_change_scores(self, monkeypatch):
        ds = small_dataset(n=30)
        params = ModelParams.initialize(ModelConfig(d_e=16, heads=2), ds.view_dims, ds.c, seed=0)
        monkeypatch.setattr(trainer_mod, "EVAL_BATCH_SIZE", 7)
        a = evaluate(params, ds)
        monkeypatch.setattr(trainer_mod, "EVAL_BATCH_SIZE", 512)
        b = evaluate(params, ds)
        assert a.to_json() == b.to_json()

    def test_random_init_scores_at_chance(self):
        aucs = []
        for seed in range(10):
            ds = small_dataset(n=200, seed=seed)
            params = ModelParams.initialize(ModelConfig(d_e=16, heads=2),
                                            ds.view_dims, ds.c, seed=seed)
            aucs.append(evaluate(params, ds).auc)
        assert abs(np.mean(aucs) - 0.5) < 0.05

    def test_invariant_to_noise_in_missing_slots(self):
        ds = small_dataset(n=40, seed=3)
        w = data.simulate_missing_views(40, 2, 0.4, seed=3)
        masked = data.apply_masks(ds, view_mask=w)
        params = ModelParams.initialize(ModelConfig(d_e=16, heads=2, dtype="float64"),
                                        masked.view_dims, masked.c, seed=1)
        base = evaluate(params, masked)
        rng = np.random.default_rng(9)
        noisy_views = []
        for v, x in enumerate(masked.views):
            x = x.copy()
            gone = masked.view_mask[:, v] == 0
            x[gone] = rng.standard_normal((int(gone.sum()), x.shape[1])) * 100
            noisy_views.append(x)
        scores = np.empty((masked.n, masked.c))
        out = M.forward(noisy_views, masked.view_mask, params)
        scores[:] = out.p_main.data
        report = trainer_mod.compute_report(scores, masked.labels,
                                            meta={"n": masked.n, "m": masked.m, "c": masked.c})
        assert report.to_dict()["ap"] == base.ap

    def test_report_equals_full_forward_report(self, monkeypatch):
        seen = []

        def kept_forward(*args, **kwargs):
            seen.append(M.forward(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(trainer_mod, "forward", kept_forward)
        monkeypatch.setattr(trainer_mod, "EVAL_BATCH_SIZE", 16)
        ds = small_dataset(n=50, m=3, seed=5)
        masked = data.apply_masks(ds, view_mask=data.simulate_missing_views(50, 3, 0.4, seed=5))
        for layers_c in (1, 2):
            params = ModelParams.initialize(
                ModelConfig(d_e=16, heads=2, layers_c=layers_c, dtype="float64"),
                masked.view_dims, masked.c, seed=2)
            full = M.forward(masked.views, masked.view_mask, params,
                             label_mask=np.ones_like(masked.labels))
            assert full.token_logits.shape == (masked.n * masked.c,)
            want = trainer_mod.compute_report(full.p_main.data, masked.labels).to_dict()
            got = evaluate(params, masked).to_dict()
            for key in ("ap", "one_minus_rl", "auc"):
                assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12)
            assert (got["n_eval"], got["skipped"]) == (want["n_eval"], want["skipped"])
        # evaluation ran the consensus-only path, with no class-token state
        assert seen and all(out.class_states.shape == (0, 16) for out in seen)

    @pytest.mark.parametrize("model_labels", [1, 6])
    def test_label_count_mismatch_raises(self, model_labels):
        ds = small_dataset(c=5)
        params = ModelParams.initialize(ModelConfig(d_e=16, heads=2), ds.view_dims,
                                        model_labels, seed=0)
        with pytest.raises(DimensionMismatch, match=f"{model_labels} labels.* has 5"):
            evaluate(params, ds)

    def test_diverged_parameters_raise(self):
        ds = small_dataset()
        params = ModelParams.initialize(ModelConfig(d_e=16, heads=2), ds.view_dims, ds.c, seed=0)
        params["head_main.b"].data[0] = np.nan
        with pytest.raises(NonFiniteScores):
            evaluate(params, ds)

    def test_checkpoint_round_trip_evaluates_identically(self, tmp_path):
        ds = small_dataset()
        mc, tc = small_configs(epochs=2, seed=4)
        params, _ = train(mc, tc, ds)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        a = evaluate(params, ds)
        b = evaluate(load_checkpoint(path), ds)
        assert a.to_json() == b.to_json()


class TestObjectiveProperties:
    @pytest.mark.parametrize("alpha,beta", [(10.0, 0.1), (0.0, 0.0)])
    def test_one_gradient_step_decreases_the_descended_loss(self, alpha, beta):
        # alpha=beta=0 descends the main BCE alone; the other case descends
        # the full objective. Either way the descended quantity must fall.
        for seed in range(20):
            ds = small_dataset(n=24, seed=seed)
            cfg = ModelConfig(d_e=8, heads=2, dropout=0.0, dtype="float64")
            params = ModelParams.initialize(cfg, ds.view_dims, ds.c, seed=seed)
            t, u = losses.label_similarity(ds.labels, ds.label_mask)

            def current_loss(grad=False):
                tape = Tape() if grad else None
                if tape is not None:
                    tape.__enter__()
                out = M.forward(ds.views, ds.view_mask, params, label_mask=ds.label_mask)
                loss, *_ = trainer_mod.objective(out, ds.labels, ds.label_mask, ds.view_mask,
                                                 t, u, alpha, beta)
                if tape is not None:
                    tape.backward(loss)
                    tape.__exit__(None, None, None)
                return loss.item()

            params.zero_grads()
            loss_before = current_loss(grad=True)
            # cosine-similarity gradients are steep at random init; scale the
            # step so the largest coordinate moves by 1e-5
            grad_max = max(
                np.abs(p.grad).max() for _, p in params.items() if p.grad is not None
            )
            step = 1e-5 / grad_max
            for _, p in params.items():
                if p.grad is not None:
                    p.data = p.data - step * p.grad
            assert current_loss(grad=False) < loss_before

    def test_rows_without_a_known_label_change_nothing(self):
        # such a row has weight 0 in both BCE terms and no valid pair in the
        # graph loss, so appending four of them leaves terms and gradients
        ds = small_dataset(n=12, seed=3)
        g = ds.label_mask.copy()
        g[8:] = 0.0
        ds = data.apply_masks(ds, label_mask=g)
        cfg = ModelConfig(d_e=8, heads=2, dropout=0.0, dtype="float64")
        params = ModelParams.initialize(cfg, ds.view_dims, ds.c, seed=0)

        def terms_and_grads(rows):
            idx = np.arange(rows)
            params.zero_grads()
            with Tape() as tape:
                out = M.forward([x[idx] for x in ds.views], ds.view_mask[idx], params,
                                label_mask=ds.label_mask[idx])
                terms = trainer_mod.objective(
                    out, ds.labels[idx], ds.label_mask[idx], ds.view_mask[idx],
                    *losses.label_similarity(ds.labels[idx], ds.label_mask[idx]), 10.0, 0.1)
                tape.backward(terms[0])
            return ([t.item() for t in terms],
                    {name: p.grad.copy() for name, p in params.items() if p.grad is not None})

        terms, grads = terms_and_grads(8)
        terms_more, grads_more = terms_and_grads(12)
        np.testing.assert_allclose(terms_more, terms, rtol=1e-12)
        assert grads_more.keys() == grads.keys()
        for name, grad in grads.items():
            np.testing.assert_allclose(grads_more[name], grad, rtol=1e-12, err_msg=name)

    def test_noise_view_gets_smallest_fusion_weight(self):
        # Two complementary informative views (each sees half the latent
        # space, so neither is redundant) plus one pure-noise view: training
        # should push the noise view's fusion weight to the bottom.
        def complementary_dataset(seed, n=200):
            rng = np.random.default_rng(seed)
            latent = rng.standard_normal((n, 4))
            v0 = latent[:, :2] @ rng.standard_normal((2, 6))
            v1 = latent[:, 2:] @ rng.standard_normal((2, 5))
            v2 = rng.standard_normal((n, 7))
            q = rng.standard_normal((4, 4))
            scores = latent @ q
            y = (scores > np.quantile(scores, 0.65, axis=0)).astype(float)
            return data.MultiViewDataset(views=[v0, v1, v2], labels=y,
                                         view_mask=np.ones((n, 3)),
                                         label_mask=np.ones((n, 4)))

        wins = 0
        for seed in range(10):
            ds = complementary_dataset(seed)
            mc = ModelConfig(d_e=32, heads=2, dropout=0.1)
            tc = TrainConfig(epochs=150, batch_size=64, learning_rate=3e-3,
                             alpha=1.0, beta=0.1, seed=seed)
            params, _ = train(mc, tc, ds)
            if np.argmin(M.fusion_weights(params)) == 2:
                wins += 1
        assert wins >= 8
