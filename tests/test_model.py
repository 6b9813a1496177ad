"""Tests for the masked multi-view model.

The central property: content of unavailable views can never influence
available views' states, the fused vector, or any prediction, bit-exactly.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlc import autodiff as ad
from mvmlc import model as M
from mvmlc.autodiff import Tensor
from mvmlc.errors import DimensionMismatch, EmptyRowMask, NonBinary
from mvmlc.losses import graph_constraint_loss, label_similarity, masked_bce, total_loss
from mvmlc.trainer import objective


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


def write_with_meta(checkpoint, path, edit):
    """Copy a checkpoint to ``path`` with ``edit`` applied to its parsed header."""
    with np.load(checkpoint) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    meta = json.loads(arrays.pop("__meta__").tobytes())
    edit(meta)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def all_labels(n, c):
    """The (sample, label) pairs of every entry of an (n, c) label grid."""
    return np.nonzero(np.ones((n, c)))


def attend(x, mask, params, prefix):
    """A layer's attention over x as ``_encoder_layer`` runs it: (mixed, probs)."""
    return ad.attention(ad.linear(x, params[f"{prefix}.wqkv"]), params.config.heads, mask)


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
        # one row per present (sample, view) pair
        params = tiny_params()
        rng = np.random.default_rng(0)
        views, w = random_inputs(rng, 5, params.view_dims, missing=0.4)
        out = M.embed_views(views, w, params)
        assert out.shape == (np.count_nonzero(w), 8) and np.count_nonzero(w) < 15

    @pytest.mark.parametrize("absent", [None, 0, 1, 2])
    def test_rows_are_each_views_mlp_in_row_major_order(self, absent):
        """Row r is view v's MLP over the whole view at sample i, where (i, v)
        is the r-th pair of ``np.nonzero(view_mask)``, also when a view is
        missing from every row of the batch."""
        params = tiny_params(dropout=0.0)
        views, w = random_inputs(np.random.default_rng(3), 7, params.view_dims, missing=0.4)
        if absent is not None:
            w[:, absent] = 0.0
            w[w.sum(axis=1) == 0, (absent + 1) % 3] = 1.0
            views = [x * w[:, v : v + 1] for v, x in enumerate(views)]
        out = M.embed_views(views, w, params).data
        whole = [M._mlp_block(Tensor(x), params, f"embed.{v}.", None).data
                 for v, x in enumerate(views)]
        rows, cols = np.nonzero(w)
        assert out.shape == (rows.size, 8)
        for r, (i, v) in enumerate(zip(rows, cols)):
            np.testing.assert_allclose(out[r], whole[v][i], rtol=1e-12, atol=1e-15)

    def test_eval_mode_deterministic(self):
        params = tiny_params()
        rng = np.random.default_rng(1)
        views, w = random_inputs(rng, 4, params.view_dims)
        a = M.embed_views(views, w, params).data
        b = M.embed_views(views, w, params).data
        np.testing.assert_array_equal(a, b)

    def test_view_absent_from_every_row(self):
        # a batch may lack a view entirely: its MLP runs over zero rows, the
        # stream holds the other views' rows alone, and its weights get a
        # zero gradient
        params = tiny_params(dropout=0.1)
        views, w = random_inputs(np.random.default_rng(2), 5, params.view_dims)
        w[:, 1] = 0.0
        views[1] = np.zeros_like(views[1])
        with ad.Tape() as tape:
            out = M.embed_views(views, w, params, np.random.default_rng(0))
            tape.backward((out * out).sum())
        assert out.shape == (10, 8)
        assert np.all(np.any(out.data != 0.0, axis=1))
        np.testing.assert_array_equal(params["embed.1.w1"].grad, 0.0)
        assert np.any(params["embed.0.w1"].grad != 0.0)

    def test_wrong_view_dim(self):
        params = tiny_params()
        with pytest.raises(DimensionMismatch):
            M.embed_views([np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 9))], np.ones((2, 3)),
                          params)


class TestMaskedSelfAttention:
    def test_uniform_attention_for_identical_rows(self):
        params = tiny_params(dropout=0.0)
        x = Tensor(np.tile(np.linspace(-1, 1, 8), (1, 3, 1)))
        mask = np.ones((1, 3))  # the view mask is the key mask
        normed = ad.layer_norm(x, params["view_enc.0.ln1_g"], params["view_enc.0.ln1_b"])
        _, probs = attend(normed, mask, params, "view_enc.0")
        np.testing.assert_allclose(probs.data, 1.0 / 3.0, atol=1e-12)

    def test_hand_computed_attention(self):
        # m=2 views, one head, hand-chosen 2x2 projections, all views available.
        params = tiny_params(d_e=2, heads=1, view_dims=(2, 2), n_labels=2, dropout=0.0)
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.0, 1.0], [1.0, 0.0]])
        wv = np.array([[2.0, 0.0], [0.0, 0.5]])
        params["view_enc.0.wqkv"].data[...] = np.concatenate([wq, wk, wv], axis=1)
        u = np.array([[1.0, -1.0], [0.5, 2.0]])

        q, k, v = u @ wq, u @ wk, u @ wv
        scores = q @ k.T / math.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a_ref = e / e.sum(axis=1, keepdims=True)
        h_ref = a_ref @ v

        mixed, probs = attend(Tensor(u.reshape(1, 2, 2)), np.ones((1, 2)), params, "view_enc.0")
        np.testing.assert_allclose(probs.data[0, 0], a_ref, atol=1e-9)
        np.testing.assert_allclose(mixed.data[0], h_ref, atol=1e-9)

    def test_empty_row_mask(self):
        params = tiny_params()
        with pytest.raises(EmptyRowMask):
            M.view_encoder_forward(Tensor(np.zeros((1, 3, 8))), np.zeros((1, 3)), params)

    def test_view_mask_of_wrong_shape(self):
        params = tiny_params()
        rng = np.random.default_rng(6)
        views, w = random_inputs(rng, 8, params.view_dims)
        for bad in (w[:1], w[:, :2], w.T, w[None]):
            with pytest.raises(DimensionMismatch) as info:
                M.forward(views, bad, params)
            assert str(bad.shape) in str(info.value) and "(8, 3)" in str(info.value)


class TestViewEncoder:
    def test_sample_order_equivariance(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(3)
        views, w = random_inputs(rng, 6, params.view_dims, missing=0.3)
        emb = M.embed_views(views, w, params)
        out = M.view_encoder_forward(emb, w, params).data
        perm = rng.permutation(6)
        emb_p = M.embed_views([v[perm] for v in views], w[perm], params)
        out_p = M.view_encoder_forward(emb_p, w[perm], params).data
        np.testing.assert_array_equal(out_p, out[perm])

    def test_single_view_degenerate_sequence(self):
        params = tiny_params(view_dims=(5,), dropout=0.0)
        rng = np.random.default_rng(4)
        mask = np.ones((3, 1))
        # with one view, all present, the stream is the (3, 1) grid's rows
        emb = M.embed_views([rng.standard_normal((3, 5))], mask, params).reshape((3, 1, 8))
        normed = ad.layer_norm(emb, params["view_enc.0.ln1_g"], params["view_enc.0.ln1_b"])
        _, probs = attend(normed, mask, params, "view_enc.0")
        np.testing.assert_allclose(probs.data, 1.0)  # 1x1 softmax

    def test_stream_of_another_row_count_raises(self):
        params = tiny_params()
        views, w = random_inputs(np.random.default_rng(6), 5, params.view_dims, missing=0.3)
        stream = M.embed_views(views, w, params)
        M.view_encoder_forward(stream, w, params)
        with pytest.raises(DimensionMismatch, match="present rows"):
            M.view_encoder_forward(stream[:-1], w, params)

    def test_masking_invariance_through_depth(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            params = tiny_params(layers_v=2, dropout=0.0, seed=trial)
            views, w = random_inputs(rng, 4, params.view_dims, missing=0.5)
            noisy = [v.copy() for v in views]
            for v in range(3):
                gone = w[:, v] == 0
                noisy[v][gone] = rng.standard_normal((int(gone.sum()), views[v].shape[1])) * 50
            base = M.view_encoder_forward(M.embed_views(views, w, params), w, params).data
            pert = M.view_encoder_forward(M.embed_views(noisy, w, params), w, params).data
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

    def test_matches_reference_under_masks(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((7, 4, 5))
        a = rng.standard_normal(4)
        w = (rng.random((7, 4)) < 0.6).astype(float)
        w[w.sum(axis=1) == 0, 2] = 1.0
        raw = np.exp(a**3) * w
        want = ((raw / raw.sum(axis=1, keepdims=True))[:, :, None] * z).sum(axis=1)
        out = M.adaptive_fusion(Tensor(z), w, Tensor(a), gamma=3.0)
        np.testing.assert_allclose(out.data, want, rtol=1e-13, atol=1e-15)

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

    def test_view_mask_of_wrong_shape(self):
        # a (1, m) mask would broadcast row 0's availability to every sample
        states = Tensor(np.random.default_rng(11).standard_normal((8, 3, 4)))
        w = np.ones((8, 3))
        for bad in (w[:1], w[:, :2], w.T, w[None]):
            with pytest.raises(DimensionMismatch) as info:
                M.adaptive_fusion(states, bad, Tensor(np.ones(3)), 2.0)
            assert str(bad.shape) in str(info.value) and "(8, 3)" in str(info.value)


class TestClassTokenEncoder:
    def test_output_shapes(self):
        params = tiny_params()
        fused = Tensor(np.random.default_rng(10).standard_normal((6, 8)))
        consensus, states = M.class_token_encoder_forward(fused, params, known=all_labels(6, 4))
        assert consensus.shape == (6, 8)
        assert states.shape == (24, 8)
        consensus, states = M.class_token_encoder_forward(fused, params)
        assert consensus.shape == (6, 8)
        assert states.shape == (0, 8)

    def test_token_permutation_equivariance(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(11)
        fused = Tensor(rng.standard_normal((3, 8)))
        known = all_labels(3, 4)
        base_c, base_s = M.class_token_encoder_forward(fused, params, known=known)
        perm = np.array([2, 0, 3, 1])
        params["cls"].data[...] = params["cls"].data[perm]
        perm_c, perm_s = M.class_token_encoder_forward(fused, params, known=known)
        # equivariance is exact up to reduction-order rounding in the sums
        np.testing.assert_allclose(perm_c.data, base_c.data, atol=1e-12)
        np.testing.assert_allclose(perm_s.data.reshape(3, 4, 8),
                                   base_s.data.reshape(3, 4, 8)[:, perm, :], atol=1e-12)

    @staticmethod
    def _generic_layers(fused, params, rng=None):
        """Every layer, layer 0 included, run per sample over the tokens."""
        n, d = fused.shape
        c = params.n_labels
        tokens = ad.concat([fused.reshape((n, 1, d)), ad.broadcast_to(params["cls"], (n, c, d))],
                           axis=1)
        for layer in range(params.config.layers_c):
            tokens = M._encoder_layer(tokens, None, params, f"cls_enc.{layer}", rng)
        return tokens

    @pytest.mark.parametrize("layers_c", [1, 2])
    def test_shared_first_layer_matches_per_sample_layer(self, layers_c):
        params = tiny_params(layers_c=layers_c)
        fused = Tensor(np.random.default_rng(13).standard_normal((5, 8)))
        ref = self._generic_layers(fused, params).data
        consensus, states = M.class_token_encoder_forward(fused, params, known=all_labels(5, 4))
        np.testing.assert_allclose(consensus.data, ref[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(states.data, ref[:, 1:].reshape(20, 8), rtol=0, atol=1e-12)

    def test_shared_layer_draws_dropout_as_the_per_sample_layer(self):
        # a layer before the last runs all c + 1 tokens in the grid's order,
        # so it draws the same dropout masks as the per-sample layer
        params = tiny_params()
        fused = Tensor(np.random.default_rng(13).standard_normal((5, 8)))
        n, d = fused.shape
        tokens = ad.concat([fused.reshape((n, 1, d)),
                            ad.broadcast_to(params["cls"], (n, params.n_labels, d))], axis=1)
        ref = M._encoder_layer(tokens, None, params, "cls_enc.0", np.random.default_rng(14))
        got = M._shared_token_layer(fused, params, "cls_enc.0", np.random.default_rng(14))
        np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layers_c", [1, 2])
    def test_shared_first_layer_gradients_match(self, layers_c):
        params = tiny_params(layers_c=layers_c, dropout=0.0)
        rng = np.random.default_rng(15)
        fused = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        weights = Tensor(rng.standard_normal((5, 5, 8)))
        names = ["cls"] + [name for name in params.names() if name.startswith("cls_enc.0.")]

        def grads(tokens):
            params.zero_grads()
            fused.grad = None
            with ad.Tape() as tape:
                tape.backward((tokens() * weights).sum())
            return [params[name].grad for name in names] + [fused.grad]

        def shared():
            consensus, states = M.class_token_encoder_forward(fused, params,
                                                              known=all_labels(5, 4))
            return ad.concat([consensus.reshape((5, 1, 8)), states.reshape((5, 4, 8))], axis=1)

        for got, want in zip(grads(shared), grads(lambda: self._generic_layers(fused, params))):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("layers_c", [1, 2])
    def test_consensus_only_matches_full_path(self, layers_c):
        params = tiny_params(layers_c=layers_c)
        fused = Tensor(np.random.default_rng(16).standard_normal((5, 8)))
        full, _ = M.class_token_encoder_forward(fused, params, known=all_labels(5, 4))
        consensus, states = M.class_token_encoder_forward(fused, params)
        assert states.shape == (0, 8)
        np.testing.assert_allclose(consensus.data, full.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layers_c", [1, 2, 3])
    def test_consensus_only_gradients_match_full_path(self, layers_c):
        # the last layer's first-row path backpropagates through every layer
        # as the full path's consensus does
        params = tiny_params(layers_c=layers_c, dropout=0.0)
        rng = np.random.default_rng(17)
        fused = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        weights = Tensor(rng.standard_normal((5, 8)))

        def grads(tokens):
            params.zero_grads()
            fused.grad = None
            with ad.Tape() as tape:
                known = all_labels(5, 4) if tokens else M.NO_LABELS
                consensus, _ = M.class_token_encoder_forward(fused, params, known=known)
                tape.backward((consensus * weights).sum())
            named = {name: p.grad.copy() for name, p in params.items() if p.grad is not None}
            return {**named, "fused": fused.grad}

        got, want = grads(False), grads(True)
        assert got.keys() == want.keys()
        for name, w in want.items():
            np.testing.assert_allclose(got[name], w, rtol=0,
                                       atol=1e-12 * max(np.abs(w).max(), 1.0), err_msg=name)

    def test_tokens_specialize_per_sample(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(12)
        fused = Tensor(rng.standard_normal((2, 8)))
        _, states = M.class_token_encoder_forward(fused, params, known=all_labels(2, 4))
        assert np.any(states.data[:4] != states.data[4:])


class TestPredict:
    def test_zero_heads_give_half(self):
        params = tiny_params(dropout=0.0)
        params["head_main.w"].data[...] = 0
        params["head_tokens.w"].data[...] = 0
        rng = np.random.default_rng(13)
        p_main, p_tokens = (ad.sigmoid(z) for z in M.predict(
            Tensor(rng.standard_normal((3, 8))), Tensor(rng.standard_normal((12, 8))), params,
            all_labels(3, 4)
        ))
        assert p_tokens.shape == (12,)
        np.testing.assert_allclose(p_main.data, 0.5)
        np.testing.assert_allclose(p_tokens.data, 0.5)

    def test_hand_case(self):
        params = tiny_params(d_e=2, heads=1, view_dims=(2,), n_labels=1)
        params["head_main.w"].data[...] = np.array([[1.0], [1.0]])
        params["head_main.b"].data[...] = 0
        main_logits, _ = M.predict(Tensor([[1.0, -1.0]]), Tensor(np.zeros((0, 2))), params)
        p_main = ad.sigmoid(main_logits)
        np.testing.assert_allclose(p_main.data, [[0.5]], atol=1e-12)

    def test_probabilities_strictly_inside_unit_interval(self):
        params = tiny_params()
        rng = np.random.default_rng(14)
        views, w = random_inputs(rng, 5, params.view_dims, missing=0.3)
        out = M.forward(views, w, params, label_mask=np.ones((5, 4)))
        for p in (out.p_main.data, ad.sigmoid(out.token_logits).data):
            assert np.all(p > 0) and np.all(p < 1)


class TestEndToEnd:
    def test_forward_shapes(self):
        params = tiny_params()
        rng = np.random.default_rng(15)
        views, w = random_inputs(rng, 7, params.view_dims, missing=0.2)
        label_mask = np.zeros((7, 4))
        label_mask[[0, 0, 3, 6], [1, 2, 0, 3]] = 1.0
        out = M.forward(views, w, params, label_mask=label_mask)
        assert out.view_states.shape == (7, 3, 8)
        assert out.fused.shape == (7, 8)
        assert out.consensus.shape == (7, 8)
        assert out.class_states.shape == (4, 8)
        assert out.p_main.shape == (7, 4)
        assert out.token_logits.shape == (4,)
        np.testing.assert_array_equal(out.known[0], [0, 0, 3, 6])
        np.testing.assert_array_equal(out.known[1], [1, 2, 0, 3])
        # evaluation's pass: no label mask, no class-token state
        out = M.forward(views, w, params)
        assert out.class_states.shape == (0, 8) and out.token_logits.shape == (0,)

    def test_dropout_is_seeded(self):
        params = tiny_params(dtype="float32")
        rng = np.random.default_rng(16)
        views, w = random_inputs(rng, 4, params.view_dims)
        a = M.forward(views, w, params, rng=np.random.default_rng(5)).p_main.data
        b = M.forward(views, w, params, rng=np.random.default_rng(5)).p_main.data
        c = M.forward(views, w, params, rng=np.random.default_rng(6)).p_main.data
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_generator_at_rate_zero_draws_nothing(self):
        params = tiny_params(dtype="float32", dropout=0.0)
        views, w = random_inputs(np.random.default_rng(17), 5, params.view_dims, missing=0.3)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with_rng = M.forward(views, w, params, rng=rng, label_mask=np.ones((5, 4)))
        without = M.forward(views, w, params, label_mask=np.ones((5, 4)))
        assert rng.bit_generator.state == before
        for name in ("view_states", "fused", "consensus", "class_states", "main_logits",
                     "token_logits", "p_main"):
            np.testing.assert_array_equal(getattr(with_rng, name).data,
                                          getattr(without, name).data)

    def test_no_generator_means_no_dropout(self):
        views, w = random_inputs(np.random.default_rng(18), 5, (3, 4, 2), missing=0.3)
        every = np.ones((5, 4))
        a = M.forward(views, w, tiny_params(dtype="float32", dropout=0.1), label_mask=every)
        b = M.forward(views, w, tiny_params(dtype="float32", dropout=0.0), label_mask=every)
        np.testing.assert_array_equal(a.p_main.data, b.p_main.data)
        np.testing.assert_array_equal(a.token_logits.data, b.token_logits.data)

    @staticmethod
    def _objective_and_grads(views, w, labels, label_mask, params):
        """The training objective (alpha 10, beta 0.1) on the tape, with the
        forward pass and every parameter gradient."""
        params.zero_grads()
        with ad.Tape() as tape:
            out = M.forward(views, w, params, label_mask=label_mask)
            loss = objective(out, labels, label_mask, w, *label_similarity(labels, label_mask),
                             alpha=10.0, beta=0.1)[0]
            tape.backward(loss)
        return loss.data, out, {name: p.grad.copy() for name, p in params.items()}

    def test_end_to_end_missing_view_invariance(self):
        for dtype in ("float64", "float32"):
            rng = np.random.default_rng(17)
            params = tiny_params(layers_v=2, layers_c=2, dropout=0.0, seed=99, dtype=dtype)
            views, w = random_inputs(rng, 5, params.view_dims, missing=0.5)
            noisy = [v.copy() for v in views]
            for v in range(3):
                gone = w[:, v] == 0
                noisy[v][gone] = rng.standard_normal((int(gone.sum()), views[v].shape[1])) * 1e3
            every = np.ones((5, params.n_labels))
            base = M.forward(views, w, params, label_mask=every)
            pert = M.forward(noisy, w, params, label_mask=every)
            np.testing.assert_array_equal(base.fused.data, pert.fused.data)
            np.testing.assert_array_equal(base.p_main.data, pert.p_main.data)
            np.testing.assert_array_equal(base.token_logits.data, pert.token_logits.data)
            # the consensus-only path that evaluation runs keeps the guarantee too
            base = M.forward(views, w, params)
            pert = M.forward(noisy, w, params)
            assert base.token_logits.shape == pert.token_logits.shape == (0,)
            np.testing.assert_array_equal(base.p_main.data, pert.p_main.data)
            # so does training: the loss and every gradient, and a missing
            # view's slot of the view states, exact zeros, gets exactly zero
            # gradient
            labels = (rng.random((5, params.n_labels)) < 0.4).astype(float)
            label_mask = (rng.random((5, params.n_labels)) < 0.7).astype(float)
            labels *= label_mask
            loss, out, grads = self._objective_and_grads(views, w, labels, label_mask, params)
            loss_n, out_n, grads_n = self._objective_and_grads(noisy, w, labels, label_mask,
                                                               params)
            np.testing.assert_array_equal(loss, loss_n)
            for name in grads:
                np.testing.assert_array_equal(grads[name], grads_n[name], err_msg=name)
            for o in (out, out_n):
                np.testing.assert_array_equal(o.view_states.grad[w == 0], 0.0)
                assert np.any(o.view_states.grad[w == 1] != 0)

    def test_label_mask_is_checked(self):
        params = tiny_params()
        views, w = random_inputs(np.random.default_rng(24), 4, params.view_dims)
        with pytest.raises(DimensionMismatch, match=r"\(4, 3\), not \(4, 4\)"):
            M.forward(views, w, params, label_mask=np.ones((4, 3)))
        with pytest.raises(NonBinary):
            M.forward(views, w, params, label_mask=np.full((4, 4), 0.5))
        # objective scores the known entries forward ran with, no others
        labels = np.zeros((4, 4))
        out = M.forward(views, w, params)
        with pytest.raises(DimensionMismatch, match="other label entries"):
            objective(out, labels, np.ones((4, 4)), w, *label_similarity(labels, np.ones((4, 4))),
                      alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nan_in_missing_view_slots_reaches_nothing(self, dtype):
        # straight to forward and objective, past the dataset's zero-fill rule:
        # a missing slot's features are never read
        rng = np.random.default_rng(23)
        params = tiny_params(layers_v=2, layers_c=2, seed=7, dtype=dtype)
        views, w = random_inputs(rng, 6, params.view_dims, missing=0.5)
        assert (w == 0).any()
        nan_views = [x.copy() for x in views]
        for v, x in enumerate(nan_views):
            x[w[:, v] == 0] = np.nan
        labels = (rng.random((6, 4)) < 0.5).astype(float)
        label_mask = (rng.random((6, 4)) < 0.7).astype(float)
        label_mask[:2, 0] = 1.0
        labels *= label_mask

        def run(views):
            params.zero_grads()
            with ad.Tape() as tape:
                out = M.forward(views, w, params, rng=np.random.default_rng(3),
                                label_mask=label_mask)
                terms = objective(out, labels, label_mask, w,
                                  *label_similarity(labels, label_mask), alpha=10.0, beta=0.1)
                tape.backward(terms[0])
            return ([t.data for t in terms], out.p_main.data,
                    {name: p.grad.copy() for name, p in params.items()})

        terms, p_main, grads = run(views)
        nan_terms, nan_p_main, nan_grads = run(nan_views)
        for got, want in zip([*nan_terms, nan_p_main], [*terms, p_main]):
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, want)
        for name, grad in grads.items():
            assert np.isfinite(nan_grads[name]).all(), name
            np.testing.assert_array_equal(nan_grads[name], grad, err_msg=name)

    def test_training_p_main_is_off_the_tape(self):
        params = tiny_params(dtype="float32")
        views, w = random_inputs(np.random.default_rng(19), 6, params.view_dims, missing=0.3)
        with ad.Tape() as tape:
            out = M.forward(views, w, params, rng=np.random.default_rng(3))
            records = len(tape)
            assert out.main_logits.requires_grad and not out.p_main.requires_grad
            ad.sigmoid(out.main_logits)
            assert len(tape) == records + 1  # the same call on a Tensor records
            tape.backward(out.main_logits.sum())
        assert out.p_main.dtype == np.float32
        np.testing.assert_array_equal(out.p_main.data, ad.sigmoid(out.main_logits).data)

    def test_gradients_reach_every_parameter_group(self):
        params = tiny_params(dropout=0.0)
        rng = np.random.default_rng(18)
        views, w = random_inputs(rng, 4, params.view_dims, missing=0.3)
        with ad.Tape() as tape:
            out = M.forward(views, w, params, label_mask=np.ones((4, 4)))
            # p_main is off the tape, so the main head is reached through its logits
            p_main, p_tokens = ad.sigmoid(out.main_logits), ad.sigmoid(out.token_logits)
            loss = (p_main * p_main).sum() + (p_tokens * p_tokens).sum()
            tape.backward(loss)
        for group, names in params.groups().items():
            got = any(params[n].grad is not None and np.any(params[n].grad != 0) for n in names)
            assert got, f"no gradient reached group {group}"


def grid_objective(views, w, labels, label_mask, params, alpha, beta):
    """``objective``'s four terms as the model computed them before packing:
    zero-filled views embedded row by row, every view row through
    ``_encoder_layer`` with the view mask as key mask, every class token
    through every layer, and both BCE terms by ``masked_bce`` on (n, c)."""
    cfg = params.config
    filled = [np.where(w[:, v : v + 1] == 1, x, 0.0) for v, x in enumerate(views)]
    x = ad.stack([M._mlp_block(Tensor(f), params, f"embed.{v}.", None)
                  for v, f in enumerate(filled)], axis=1)
    for layer in range(cfg.layers_v):
        x = M._encoder_layer(x, w, params, f"view_enc.{layer}", None)
    fused = M.adaptive_fusion(x, w, params["fusion.a"], cfg.gamma)
    n, d = fused.shape
    tokens = ad.concat([fused.reshape((n, 1, d)),
                        ad.broadcast_to(params["cls"], (n, params.n_labels, d))], axis=1)
    for layer in range(cfg.layers_c):
        tokens = M._encoder_layer(tokens, None, params, f"cls_enc.{layer}", None)
    main_logits = ad.linear(tokens[:, 0], params["head_main.w"], params["head_main.b"])
    token_logits = ((tokens[:, 1:] * params["head_tokens.w"]).sum(axis=2)
                    + params["head_tokens.b"])
    l_mc = masked_bce(main_logits, labels, label_mask)
    l_ac = masked_bce(token_logits, labels, label_mask)
    l_gc = graph_constraint_loss(x, *label_similarity(labels, label_mask), w)
    return total_loss(l_mc, l_gc, l_ac, alpha, beta), l_mc, l_gc, l_ac


class TestPackedPath:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 4), st.sampled_from([1, 2]),
           st.sampled_from([1, 2]), st.integers(0, 2**16))
    def test_equals_the_grid_path(self, n, m, c, layers_v, layers_c, seed):
        """Present views and known labels alone, against every row and
        token: the same four terms and parameter gradients, float64."""
        rng = np.random.default_rng(seed)
        params = tiny_params(layers_v=layers_v, layers_c=layers_c, view_dims=(3, 4, 2)[:m],
                             n_labels=c, dropout=0.0, seed=seed)
        for name, t in params.items():  # a generic point, not the near-zero init
            t.data[...] = (1.0 if name.endswith(("ln1_g", "ln2_g")) else 0.0) \
                + 0.3 * rng.standard_normal(t.data.shape)
        views, w = random_inputs(rng, n, params.view_dims, missing=0.4)
        label_mask = (rng.random((n, c)) < 0.6).astype(float)
        w[:2, 0] = label_mask[:2, 0] = 1.0  # a valid pair for the graph term
        labels = (rng.random((n, c)) < 0.5) * label_mask

        def terms_and_grads(run):
            params.zero_grads()
            with ad.Tape() as tape:
                terms = run()
                tape.backward(terms[0])
            return ([t.item() for t in terms],
                    {name: p.grad.copy() for name, p in params.items() if p.grad is not None})

        packed, packed_grads = terms_and_grads(lambda: objective(
            M.forward(views, w, params, label_mask=label_mask), labels, label_mask, w,
            *label_similarity(labels, label_mask), 10.0, 0.1))
        grid, grid_grads = terms_and_grads(
            lambda: grid_objective(views, w, labels, label_mask, params, 10.0, 0.1))
        np.testing.assert_allclose(packed, grid, rtol=1e-10)
        assert packed_grads.keys() == grid_grads.keys()
        for name, grad in grid_grads.items():
            # the floor is for gradients that are 0 up to rounding, such as
            # the fusion weight of a single view
            np.testing.assert_allclose(packed_grads[name], grad, rtol=1e-10, atol=1e-12,
                                       err_msg=name)


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
        malformed = {
            "unknown_key.npz": lambda meta: meta["config"].update(d_model=8),
            "missing_key.npz": lambda meta: meta["config"].pop("d_e"),
            "config_list.npz": lambda meta: meta.update(config=[8, 2]),
            **{f"no_{key}.npz": lambda meta, key=key: meta.pop(key)
               for key in ("names", "view_dims", "n_labels", "config")},
        }
        for name, edit in malformed.items():
            write_with_meta(good, tmp_path / name, edit)
        for name in ("array.npy", "no_meta.npz", "short.npz", *malformed):
            with pytest.raises(ValueError, match=name):
                M.load_checkpoint(tmp_path / name)

    def test_rejects_entries_that_do_not_match_the_names(self, tmp_path):
        good = tmp_path / "good.ckpt"
        M.save_checkpoint(tiny_params(), good)
        with np.load(good) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        np.savez(tmp_path / "stray.npz", **arrays, **{"param:stray": np.zeros(3)})
        write_with_meta(good, tmp_path / "twice.npz",
                        lambda meta: meta["names"].append("embed.0.w1"))
        for name, entry in (("stray.npz", "param:stray"), ("twice.npz", "param:embed.0.w1")):
            with pytest.raises(ValueError, match=name) as info:
                M.load_checkpoint(tmp_path / name)
            assert f"['{entry}']" in str(info.value)

    @staticmethod
    def _as_version_1(params, path, drop=()):
        """Write params as a version-1 file would hold them: each packed
        ``wqkv`` split back into ``wq``, ``wk`` and ``wv``, minus ``drop``."""
        d = params.config.d_e
        arrays = {}
        for name, t in params.items():
            prefix, _, leaf = name.rpartition(".")
            if leaf == "wqkv":
                for i, part in enumerate(("wq", "wk", "wv")):
                    arrays[f"{prefix}.{part}"] = t.data[:, i * d : (i + 1) * d]
            else:
                arrays[name] = t.data
        for name in drop:
            del arrays[name]
        meta = {"format": M.CHECKPOINT_FORMAT, "version": 1, "config": asdict(params.config),
                "view_dims": params.view_dims, "n_labels": params.n_labels,
                "names": list(arrays)}
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **{f"param:{name}": a for name, a in arrays.items()})

    def test_version_1_loads_by_packing(self, tmp_path):
        params = tiny_params(layers_v=2, layers_c=2, dtype="float32", seed=3)
        self._as_version_1(params, tmp_path / "v1.ckpt")
        loaded = M.load_checkpoint(tmp_path / "v1.ckpt")
        assert loaded.names() == params.names()
        for name in params.names():
            assert loaded[name].data.dtype == params[name].data.dtype
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_version_1_without_a_value_weight_raises(self, tmp_path):
        path = tmp_path / "no_wv.ckpt"
        self._as_version_1(tiny_params(), path, drop=("cls_enc.0.wv",))
        with pytest.raises(ValueError, match="no_wv.ckpt.*wv"):
            M.load_checkpoint(path)

    def test_other_versions_raise(self, tmp_path):
        good = tmp_path / "good.ckpt"
        M.save_checkpoint(tiny_params(), good)
        for version in (0, 3, None):
            write_with_meta(good, tmp_path / "other.ckpt",
                            lambda meta, version=version: meta.update(version=version))
            with pytest.raises(ValueError, match="unsupported checkpoint version"):
                M.load_checkpoint(tmp_path / "other.ckpt")
