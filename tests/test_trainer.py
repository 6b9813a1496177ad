"""Tests for the optimizer, training loop, and evaluation driver."""

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
            out = M.forward(ds.views, ds.view_mask, params, train=True,
                            rng=np.random.default_rng(0))
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

    def test_batch_size_does_not_change_scores(self):
        ds = small_dataset(n=30)
        params = ModelParams.initialize(ModelConfig(d_e=16, heads=2), ds.view_dims, ds.c, seed=0)
        a = evaluate(params, ds, batch_size=7)
        b = evaluate(params, ds, batch_size=512)
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
        out = M.forward(noisy_views, masked.view_mask, params, train=False)
        scores[:] = out.p_main.data
        report = trainer_mod.compute_report(scores, masked.labels,
                                            meta={"n": masked.n, "m": masked.m, "c": masked.c})
        assert report.to_dict()["ap"] == base.ap

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
                out = M.forward(ds.views, ds.view_mask, params, train=False)
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
