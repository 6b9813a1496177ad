"""Tests for the masked multi-view model.

The central property: content of unavailable views can never influence
available views' states, the fused vector, or any prediction, bit-exactly.
"""

import math

import numpy as np
import pytest

from mvmlc import autodiff as ad
from mvmlc import model as M
from mvmlc.autodiff import Tensor
from mvmlc.errors import DimensionMismatch, EmptyRowMask


def tiny_params(d_e=8, heads=2, layers_v=1, layers_c=1, view_dims=(3, 4, 2),
                n_labels=4, dtype="float64", seed=0, dropout=0.1, gamma=2.0):
    cfg = M.ModelConfig(d_e=d_e, heads=heads, layers_v=layers_v, layers_c=layers_c,
                        dropout=dropout, gamma=gamma, dtype=dtype)
    return M.ModelParams.initialize(cfg, list(view_dims), n_labels, seed=seed)


def random_inputs(rng, n, view_dims, missing=0.0):
    views = [rng.standard_normal((n, d)) for d in view_dims]
    m = len(view_dims)
    w = np.ones((n, m))
    if missing and m > 1:
        w = (rng.random((n, m)) >= missing).astype(float)
        empty = w.sum(axis=1) == 0
        w[empty, rng.integers(m, size=int(empty.sum()))] = 1.0
        for v in range(m):
            views[v] = views[v] * w[:, v : v + 1]
    return views, w


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            M.ModelConfig(d_e=10, heads=4)

    def test_d_h(self):
        assert M.ModelConfig(d_e=16, heads=4).d_h == 4

    def test_parameter_count_is_reproducible(self):
        a = tiny_params(seed=1)
        b = tiny_params(seed=2)
        assert a.num_parameters() == b.num_parameters()
        assert a.names() == b.names()


class TestEmbedViews:
    def test_output_shape(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        views, _ = random_inputs(rng, 5, params.view_dims)
        out = M.embed_views(views, params)
        assert out.shape == (5, 3, 8)

    def test_eval_mode_deterministic(self):
        params = tiny_params()
        rng = np.random.default_rng(1)
        views, _ = random_inputs(rng, 4, params.view_dims)
        a = M.embed_views(views, params).data
        b = M.embed_views(views, params).data
        np.testing.assert_array_equal(a, b)

    def test_wrong_view_dim(self):
        params = tiny_params()
        with pytest.raises(DimensionMismatch):
            M.embed_views([np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 9))], params)


class TestMaskedSelfAttention:
    def test_uniform_attention_for_identical_rows(self):
        params = tiny_params(dropout=0.0)
        x = Tensor(np.tile(np.linspace(-1, 1, 8), (1, 3, 1)))
        mask = M.attention_mask(np.ones((1, 3)))
        normed = ad.layer_norm(x, params["view_enc.0.ln1_g"], params["view_enc.0.ln1_b"])
        _, probs = M.masked_attention(normed, mask, params, "view_enc.0")
        np.testing.assert_allclose(probs.data, 1.0 / 3.0, atol=1e-12)

    def test_masked_view_content_invariance(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 8))
        w = np.array([1.0, 1.0, 0.0])
        noisy = x.copy()
        noisy[2] = rng.standard_normal(8) * 100
        out_zero = M.view_encoder_forward(Tensor(x[None]), w[None], params).data[0]
        out_noise = M.view_encoder_forward(Tensor(noisy[None]), w[None], params).data[0]
        np.testing.assert_array_equal(out_zero[:2], out_noise[:2])

    def test_hand_computed_attention(self):
        # m=2 views, one head, hand-chosen 2x2 projections, all views available.
        params = tiny_params(d_e=2, heads=1, view_dims=(2, 2), n_labels=2, dropout=0.0)
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.0, 1.0], [1.0, 0.0]])
        wv = np.array([[2.0, 0.0], [0.0, 0.5]])
        params["view_enc.0.wq"].data[...] = wq
        params["view_enc.0.wk"].data[...] = wk
        params["view_enc.0.wv"].data[...] = wv
        u = np.array([[1.0, -1.0], [0.5, 2.0]])

        q, k, v = u @ wq, u @ wk, u @ wv
        scores = q @ k.T / math.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a_ref = e / e.sum(axis=1, keepdims=True)
        h_ref = a_ref @ v

        mixed, probs = M.masked_attention(
            Tensor(u.reshape(1, 2, 2)), M.attention_mask(np.ones((1, 2))), params, "view_enc.0"
        )
        np.testing.assert_allclose(probs.data[0, 0], a_ref, atol=1e-9)
        np.testing.assert_allclose(mixed.data[0], h_ref, atol=1e-9)

    def test_empty_row_mask(self):
        params = tiny_params()
        with pytest.raises(EmptyRowMask):
            M.view_encoder_forward(Tensor(np.zeros((1, 3, 8))), np.zeros((1, 3)), params)


class TestViewEncoder:
    def test_sample_order_equivariance(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(3)
        views, w = random_inputs(rng, 6, params.view_dims, missing=0.3)
        emb = M.embed_views(views, params)
        out = M.view_encoder_forward(emb, w, params).data
        perm = rng.permutation(6)
        emb_p = M.embed_views([v[perm] for v in views], params)
        out_p = M.view_encoder_forward(emb_p, w[perm], params).data
        np.testing.assert_array_equal(out_p, out[perm])

    def test_single_view_degenerate_sequence(self):
        params = tiny_params(view_dims=(5,), dropout=0.0)
        rng = np.random.default_rng(4)
        emb = M.embed_views([rng.standard_normal((3, 5))], params)
        mask = M.attention_mask(np.ones((3, 1)))
        normed = ad.layer_norm(emb, params["view_enc.0.ln1_g"], params["view_enc.0.ln1_b"])
        _, probs = M.masked_attention(normed, mask, params, "view_enc.0")
        np.testing.assert_allclose(probs.data, 1.0)  # 1x1 softmax

    def test_masking_invariance_through_depth(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            params = tiny_params(layers_v=2, dropout=0.0, seed=trial)
            views, w = random_inputs(rng, 4, params.view_dims, missing=0.5)
            noisy = [v.copy() for v in views]
            for v in range(3):
                gone = w[:, v] == 0
                noisy[v][gone] = rng.standard_normal((int(gone.sum()), views[v].shape[1])) * 50
            base = M.view_encoder_forward(M.embed_views(views, params), w, params).data
            pert = M.view_encoder_forward(M.embed_views(noisy, params), w, params).data
            np.testing.assert_array_equal(base[w == 1], pert[w == 1])


class TestAdaptiveFusion:
    def test_single_available_view_passthrough(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((4, 3, 8))
        w = np.zeros((4, 3))
        w[:, 1] = 1
        a = Tensor(rng.standard_normal(3))
        out = M.adaptive_fusion(Tensor(z), w, a, gamma=2.0)
        np.testing.assert_allclose(out.data, z[:, 1, :], rtol=1e-12)

    def test_equal_weights_full_mask_is_mean(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 3, 8))
        out = M.adaptive_fusion(Tensor(z), np.ones((5, 3)), Tensor(np.ones(3)), gamma=2.0)
        np.testing.assert_allclose(out.data, z.mean(axis=1), rtol=1e-12)

    def test_hand_computed_weights(self):
        # a = [1, 2], gamma = 2: weights e^1, e^4 -> [0.04743, 0.95257]
        z = np.stack([np.full((1, 4), 1.0), np.full((1, 4), 2.0)], axis=1)
        out = M.adaptive_fusion(Tensor(z), np.ones((1, 2)), Tensor([1.0, 2.0]), gamma=2.0)
        w1 = math.exp(1.0) / (math.exp(1.0) + math.exp(4.0))
        w2 = math.exp(4.0) / (math.exp(1.0) + math.exp(4.0))
        assert abs(w1 - 0.04743) < 5e-6 and abs(w2 - 0.95257) < 5e-6
        np.testing.assert_allclose(out.data, w1 * 1.0 + w2 * 2.0, rtol=1e-12)

    def test_weights_sum_to_one_over_available(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(4)
        raw = np.exp(a**2)
        for _ in range(20):
            w = (rng.random(4) < 0.6).astype(float)
            if w.sum() == 0:
                w[0] = 1
            eff = raw * w / (raw * w).sum()
            assert abs(eff.sum() - 1.0) < 1e-12
            assert np.all(eff[w == 0] == 0)

    def test_fusion_weight_gets_gradient(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(9)
        z = Tensor(rng.standard_normal((3, 3, 8)))
        with ad.Tape() as tape:
            out = M.adaptive_fusion(z, np.ones((3, 3)), params["fusion.a"], 2.0)
            tape.backward((out * out).sum())
        assert params["fusion.a"].grad is not None
        assert np.any(params["fusion.a"].grad != 0)

    def test_empty_row(self):
        with pytest.raises(EmptyRowMask):
            M.adaptive_fusion(Tensor(np.ones((2, 2, 4))), np.array([[1.0, 0.0], [0.0, 0.0]]),
                              Tensor(np.ones(2)), 2.0)


class TestClassTokenEncoder:
    def test_output_shapes(self):
        params = tiny_params()
        fused = Tensor(np.random.default_rng(10).standard_normal((6, 8)))
        consensus, states = M.class_token_encoder_forward(fused, params)
        assert consensus.shape == (6, 8)
        assert states.shape == (6, 4, 8)

    def test_token_permutation_equivariance(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(11)
        fused = Tensor(rng.standard_normal((3, 8)))
        base_c, base_s = M.class_token_encoder_forward(fused, params)
        perm = np.array([2, 0, 3, 1])
        params["cls"].data[...] = params["cls"].data[perm]
        perm_c, perm_s = M.class_token_encoder_forward(fused, params)
        # equivariance is exact up to reduction-order rounding in the sums
        np.testing.assert_allclose(perm_c.data, base_c.data, atol=1e-12)
        np.testing.assert_allclose(perm_s.data, base_s.data[:, perm, :], atol=1e-12)

    @staticmethod
    def _generic_layers(fused, params, train=False, rng=None):
        """Every layer, layer 0 included, run per sample over the tokens."""
        n, d = fused.shape
        c = params.n_labels
        tokens = ad.concat([fused.reshape((n, 1, d)), ad.broadcast_to(params["cls"], (n, c, d))],
                           axis=1)
        for layer in range(params.config.layers_c):
            tokens = M._encoder_layer(tokens, None, params, f"cls_enc.{layer}", train, rng)
        return tokens

    @pytest.mark.parametrize("layers_c", [1, 2])
    def test_shared_first_layer_is_bit_identical(self, layers_c):
        params = tiny_params(layers_c=layers_c)
        fused = Tensor(np.random.default_rng(13).standard_normal((5, 8)))
        for train in (False, True):
            ref = self._generic_layers(fused, params, train, np.random.default_rng(14)).data
            consensus, states = M.class_token_encoder_forward(
                fused, params, train=train, rng=np.random.default_rng(14))
            np.testing.assert_array_equal(consensus.data, ref[:, 0])
            np.testing.assert_array_equal(states.data, ref[:, 1:])

    @pytest.mark.parametrize("layers_c", [1, 2])
    def test_shared_first_layer_gradients_match(self, layers_c):
        params = tiny_params(layers_c=layers_c, dropout=0.0)
        rng = np.random.default_rng(15)
        fused = Tensor(rng.standard_normal((5, 8)))
        weights = Tensor(rng.standard_normal((5, 5, 8)))
        names = ["cls"] + [name for name in params.names() if name.startswith("cls_enc.0.")]

        def grads(tokens):
            params.zero_grads()
            with ad.Tape() as tape:
                tape.backward((tokens() * weights).sum())
            return [params[name].grad for name in names]

        def shared():
            consensus, states = M.class_token_encoder_forward(fused, params)
            return ad.concat([consensus.reshape((5, 1, 8)), states], axis=1)

        for got, want in zip(grads(shared), grads(lambda: self._generic_layers(fused, params))):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_tokens_specialize_per_sample(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(12)
        fused = Tensor(rng.standard_normal((2, 8)))
        _, states = M.class_token_encoder_forward(fused, params)
        assert np.any(states.data[0] != states.data[1])


class TestPredict:
    def test_zero_heads_give_half(self):
        params = tiny_params(dropout=0.0)
        params["head_main.w"].data[...] = 0
        params["head_tokens.w"].data[...] = 0
        rng = np.random.default_rng(13)
        p_main, p_tokens = (ad.sigmoid(z) for z in M.predict(
            Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((3, 4, 8))), params
        ))
        np.testing.assert_allclose(p_main.data, 0.5)
        np.testing.assert_allclose(p_tokens.data, 0.5)

    def test_hand_case(self):
        params = tiny_params(d_e=2, heads=1, view_dims=(2,), n_labels=1)
        params["head_main.w"].data[...] = np.array([[1.0], [1.0]])
        params["head_main.b"].data[...] = 0
        main_logits, _ = M.predict(Tensor([[1.0, -1.0]]), Tensor(np.zeros((1, 1, 2))), params)
        p_main = ad.sigmoid(main_logits)
        np.testing.assert_allclose(p_main.data, [[0.5]], atol=1e-12)

    def test_probabilities_strictly_inside_unit_interval(self):
        params = tiny_params()
        rng = np.random.default_rng(14)
        views, w = random_inputs(rng, 5, params.view_dims, missing=0.3)
        out = M.forward(views, w, params)
        for p in (out.p_main.data, ad.sigmoid(out.token_logits).data):
            assert np.all(p > 0) and np.all(p < 1)


class TestEndToEnd:
    def test_forward_shapes(self):
        params = tiny_params()
        rng = np.random.default_rng(15)
        views, w = random_inputs(rng, 7, params.view_dims, missing=0.2)
        out = M.forward(views, w, params)
        assert out.view_states.shape == (7, 3, 8)
        assert out.fused.shape == (7, 8)
        assert out.consensus.shape == (7, 8)
        assert out.class_states.shape == (7, 4, 8)
        assert out.p_main.shape == (7, 4)
        assert out.token_logits.shape == (7, 4)

    def test_train_mode_dropout_is_seeded(self):
        params = tiny_params(dtype="float32")
        rng = np.random.default_rng(16)
        views, w = random_inputs(rng, 4, params.view_dims)
        a = M.forward(views, w, params, train=True, rng=np.random.default_rng(5)).p_main.data
        b = M.forward(views, w, params, train=True, rng=np.random.default_rng(5)).p_main.data
        c = M.forward(views, w, params, train=True, rng=np.random.default_rng(6)).p_main.data
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_end_to_end_missing_view_invariance(self):
        rng = np.random.default_rng(17)
        params = tiny_params(layers_v=2, layers_c=2, dropout=0.0, seed=99)
        views, w = random_inputs(rng, 5, params.view_dims, missing=0.5)
        noisy = [v.copy() for v in views]
        for v in range(3):
            gone = w[:, v] == 0
            noisy[v][gone] = rng.standard_normal((int(gone.sum()), views[v].shape[1])) * 1e3
        base = M.forward(views, w, params)
        pert = M.forward(noisy, w, params)
        np.testing.assert_array_equal(base.fused.data, pert.fused.data)
        np.testing.assert_array_equal(base.p_main.data, pert.p_main.data)
        np.testing.assert_array_equal(base.token_logits.data, pert.token_logits.data)

    def test_gradients_reach_every_parameter_group(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(18)
        views, w = random_inputs(rng, 4, params.view_dims, missing=0.3)
        with ad.Tape() as tape:
            out = M.forward(views, w, params)
            p_tokens = ad.sigmoid(out.token_logits)
            loss = (out.p_main * out.p_main).sum() + (p_tokens * p_tokens).sum()
            tape.backward(loss)
        for group, names in params.groups().items():
            got = any(params[n].grad is not None and np.any(params[n].grad != 0) for n in names)
            assert got, f"no gradient reached group {group}"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = tiny_params(dtype="float32", seed=5)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.view_dims == params.view_dims
        assert loaded.n_labels == params.n_labels
        for name in params.names():
            assert loaded[name].data.dtype == params[name].data.dtype
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, __meta__=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError):
            M.load_checkpoint(path)
        np.save(tmp_path / "array.npy", np.zeros(3))
        np.savez(tmp_path / "no_meta.npz", x=np.zeros(3))
        good = tmp_path / "good.ckpt"
        M.save_checkpoint(tiny_params(), good)
        with np.load(good) as bundle:
            arrays = {key: bundle[key] for key in bundle.files if key != "param:cls"}
        np.savez(tmp_path / "short.npz", **arrays)
        for name in ("array.npy", "no_meta.npz", "short.npz"):
            with pytest.raises(ValueError, match=name):
                M.load_checkpoint(tmp_path / name)
