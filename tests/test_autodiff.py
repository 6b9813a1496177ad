"""Tests for the reverse-mode autodiff engine.

Analytic gradients are checked against an independent central-difference
oracle implemented here (not the engine's own gradient_check), plus hand
values for the fixed cases.
"""

import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mvmlc import autodiff as ad
from mvmlc.errors import (
    AllMaskedRow,
    DimensionMismatch,
    DoubleBackward,
    NonBinary,
    NonScalarLoss,
    RepeatedIndex,
)


def finite_difference(f, arrays, eps=1e-6):
    """Central-difference gradients of scalar f w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = f()
            flat[i] = orig - eps
            minus = f()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def check_gradients(build, arrays, tol=1e-6, eps=1e-6):
    """build(tensors) -> scalar Tensor; compares tape grads to the FD oracle."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    with ad.Tape() as tape:
        loss = build(tensors)
        tape.backward(loss)

    def forward_value():
        fresh = [ad.Tensor(t.data) for t in tensors]
        return float(build(fresh).data)

    numeric = finite_difference(forward_value, [t.data for t in tensors], eps=eps)
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        assert rel_err(t.grad, num) < tol


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_case(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[1.0], [1.0]])
        np.testing.assert_allclose(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_gradients(lambda ts: ad.matmul(ts[0], ts[1]).sum(), [a, b], tol=1e-8)

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        check_gradients(lambda ts: (ad.matmul(ts[0], ts[1]) ** 2).sum(), [a, b])
        a4 = rng.standard_normal((2, 2, 3, 4))
        check_gradients(lambda ts: (ad.matmul(ts[0], ts[1]) ** 2).sum(), [a4, b])
        # the transpose is a strided view, so the left operand is non-contiguous
        a_t = rng.standard_normal((3, 2, 4))
        check_gradients(
            lambda ts: (ad.matmul(ad.transpose(ts[0], (1, 0, 2)), ts[1]) ** 2).sum(), [a_t, b]
        )


class TestLinear:
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    @pytest.mark.parametrize("bias", [False, True])
    def test_gradient_matches_finite_differences(self, shape, bias):
        rng = np.random.default_rng(20)
        arrays = [rng.standard_normal(shape), rng.standard_normal((4, 5))]
        if bias:
            arrays.append(rng.standard_normal(5))
        check_gradients(lambda ts: (ad.linear(*ts) ** 2).sum(), arrays)

    def test_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(21)
        x = ad.Tensor(rng.standard_normal((2, 3, 4)))
        w = ad.Tensor(rng.standard_normal((4, 5)))
        b = ad.Tensor(rng.standard_normal(5))
        want = np.matmul(x.data, w.data) + b.data
        np.testing.assert_allclose(ad.linear(x, w, b).data, want, rtol=1e-13)
        np.testing.assert_allclose(ad.linear(x, w).data, want - b.data, rtol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
        with pytest.raises(DimensionMismatch):
            ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))),
                      ad.Tensor(np.ones(3)))


def composed_attention(qkv, heads, mask=None):
    """Attention from the unfused primitives: split heads, matmul, masked
    softmax, matmul, merge heads."""
    n, t, d3 = qkv.shape
    d = d3 // 3
    d_h = d // heads

    def split(part):
        proj = qkv[:, :, part * d : (part + 1) * d]
        return ad.transpose(proj.reshape((n, t, heads, d_h)), (0, 2, 1, 3))

    q, k, v = split(0), split(1), split(2)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(d_h))
    probs = (ad.softmax(scores) if mask is None
             else ad.masked_softmax(scores, mask[:, None, None, :]))
    mixed = ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)).reshape((n, t, d))
    return mixed, probs


def view_style_mask(rng, n, t):
    """Random (n, t) 0/1 key mask, like a view mask: every row keeps a token."""
    mask = (rng.random((n, t)) < 0.6).astype(float)
    mask[np.arange(n), rng.integers(t, size=n)] = 1.0
    return mask


class TestAttention:
    @pytest.mark.parametrize("heads, first_only", [(1, False), (2, False), (2, True), (1, True)],
                             ids=["1", "2", "2-first_only", "1-first_only"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gradient_matches_finite_differences(self, heads, first_only, masked):
        rng = np.random.default_rng(22)
        qkv = rng.standard_normal((2, 3, 12))
        mask = view_style_mask(rng, 2, 3) if masked else None
        weights = rng.standard_normal((2, 1 if first_only else 3, 4))
        check_gradients(
            lambda ts: (ad.attention(ts[0], heads, mask, first_only)[0] * weights).sum(), [qkv])

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_unfused_composition(self, heads, masked):
        rng = np.random.default_rng(23)
        qkv = rng.standard_normal((3, 4, 24))
        mask = view_style_mask(rng, 3, 4) if masked else None
        mixed, probs = ad.attention(ad.Tensor(qkv), heads, mask)
        want_mixed, want_probs = composed_attention(ad.Tensor(qkv), heads, mask)
        np.testing.assert_array_equal(probs.data, want_probs.data)
        np.testing.assert_array_equal(mixed.data, want_mixed.data)

    def test_gradient_equals_unfused_composition(self):
        rng = np.random.default_rng(24)
        qkv = rng.standard_normal((3, 4, 24))
        mask = view_style_mask(rng, 3, 4)
        weights = rng.standard_normal((3, 4, 8))
        grads = []
        for attend in (ad.attention, composed_attention):
            x = ad.Tensor(qkv, requires_grad=True)
            with ad.Tape() as tape:
                tape.backward((attend(x, 2, mask)[0] * weights).sum())
            grads.append(x.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12, atol=1e-15)

    def test_masked_key_gets_zero_weight_and_gradient(self):
        rng = np.random.default_rng(25)
        qkv = ad.Tensor(rng.standard_normal((1, 3, 6)), requires_grad=True)
        mask = np.array([[1.0, 1.0, 0.0]])  # no query may attend to token 2
        with ad.Tape() as tape:
            mixed, probs = ad.attention(qkv, 1, mask)
            tape.backward(mixed.sum())
        assert np.all(probs.data[0, 0, :, 2] == 0.0)
        # token 2 is nobody's key or value, so those slots get no gradient,
        # while its query still reads tokens 0 and 1
        np.testing.assert_array_equal(qkv.grad[0, 2, 2:], 0.0)
        assert np.all(probs.data[0, 0, 2, :2] > 0.0)

    @pytest.mark.parametrize("attend", [ad.attention, composed_attention])
    def test_mask_errors(self, attend):
        qkv = ad.Tensor(np.zeros((2, 3, 6)))
        with pytest.raises(NonBinary):
            attend(qkv, 1, np.full((2, 3), 0.5))
        mask = np.ones((2, 3))
        mask[1] = 0  # sample 1 has no key left
        with pytest.raises(AllMaskedRow):
            attend(qkv, 1, mask)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 1, 3), (1, 3), (2, 2), (3, 2), (3,)])
    @pytest.mark.parametrize("first_only", [False, True])
    def test_mask_not_n_by_t_is_rejected(self, shape, first_only):
        # only the (n, t) key mask is accepted, whatever rows are queries
        with pytest.raises(DimensionMismatch, match=r"\(2, 3\)"):
            ad.attention(ad.Tensor(np.zeros((2, 3, 6))), 1, np.ones(shape), first_only)

    def test_bad_packing(self):
        with pytest.raises(DimensionMismatch):
            ad.attention(ad.Tensor(np.zeros((2, 3, 8))), 2)

    @pytest.mark.parametrize("masked", [False, True])
    def test_first_only_is_the_first_row_of_full_attention(self, masked):
        rng = np.random.default_rng(29)
        qkv = rng.standard_normal((3, 4, 24))
        mask = view_style_mask(rng, 3, 4) if masked else None
        full, full_probs = ad.attention(ad.Tensor(qkv), 2, mask)
        mixed, probs = ad.attention(ad.Tensor(qkv), 2, mask, first_only=True)
        assert mixed.shape == (3, 1, 8) and probs.shape == (3, 2, 1, 4)
        np.testing.assert_allclose(mixed.data, full.data[:, :1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs.data, full_probs.data[:, :, :1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("masked", [False, True])
    def test_first_only_gradient_is_the_first_row_gradient(self, masked, dtype):
        # full attention with no gradient on rows 1.. gives the same gradient;
        # first_only leaves exactly zero on the queries of tokens 1..
        rng = np.random.default_rng(34)
        qkv = rng.standard_normal((3, 4, 24)).astype(dtype)
        mask = view_style_mask(rng, 3, 4) if masked else None
        g = rng.standard_normal((3, 1, 8)).astype(dtype)
        weights = np.zeros((3, 4, 8), dtype=dtype)
        weights[:, :1] = g
        grads = []
        for first_only, w in ((True, g), (False, weights)):
            x = ad.Tensor(qkv, requires_grad=True)
            with ad.Tape() as tape:
                mixed = ad.attention(x, 2, mask, first_only=first_only)[0]
                tape.backward((mixed * w).sum())
            assert mixed.dtype == dtype and x.grad.dtype == dtype
            grads.append(x.grad)
        np.testing.assert_array_equal(grads[0][:, 1:, :8], 0.0)
        tol = 1e-12 if dtype == np.float64 else 2e-6
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=tol * np.abs(grads[1]).max())


def concatenated_attention(proj, n, heads, first_only=False):
    """``shared_token_attention`` the long way: copy the c shared rows to
    every sample and run ``attention`` over the (n, c + 1, 3 * d) tokens."""
    rows, d3 = proj.shape
    qkv = ad.concat([proj[:n].reshape((n, 1, d3)), ad.broadcast_to(proj[n:], (n, rows - n, d3))],
                    axis=1)
    return ad.attention(qkv, heads, first_only=first_only)[0]


class TestSharedTokenAttention:
    @staticmethod
    def _output_and_grad(attend, proj, n, heads, first_only, weights):
        x = ad.Tensor(proj, requires_grad=True)
        with ad.Tape() as tape:
            out = attend(x, n, heads, first_only)
            tape.backward((out * weights).sum())
        return out.data, x.grad

    def _both(self, proj, n, heads, first_only, seed=30):
        c = proj.shape[0] - n
        weights = np.random.default_rng(seed).standard_normal(
            (n, 1 if first_only else c + 1, proj.shape[1] // 3)).astype(proj.dtype)
        return [self._output_and_grad(attend, proj, n, heads, first_only, weights)
                for attend in (ad.shared_token_attention, concatenated_attention)]

    @pytest.mark.parametrize("first_only", [False, True])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_attention_over_concatenated_tokens(self, dtype, n, c, heads, first_only):
        proj = np.random.default_rng(31).standard_normal((n + c, 12 * heads)).astype(dtype)
        got, want = self._both(proj, n, heads, first_only)
        for g, w in zip(got, want):
            assert g.dtype == dtype and g.shape == w.shape
            if dtype == np.float64:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
            else:
                np.testing.assert_allclose(g, w, rtol=2e-6, atol=2e-6 * np.abs(w).max())

    @pytest.mark.parametrize("n, c, heads, first_only", [(1, 1, 1, False), (3, 2, 2, False),
                                                         (2, 3, 1, True), (2, 3, 2, True)])
    def test_gradient_matches_finite_differences(self, n, c, heads, first_only):
        rng = np.random.default_rng(32)
        proj = rng.standard_normal((n + c, 6 * heads))
        weights = rng.standard_normal((n, 1 if first_only else c + 1, 2 * heads))
        check_gradients(
            lambda ts: (ad.shared_token_attention(ts[0], n, heads, first_only) * weights).sum(),
            [proj])

    @pytest.mark.parametrize("first_only", [False, True])
    def test_large_scores_stay_finite_and_match(self, first_only):
        proj = np.random.default_rng(33).standard_normal((5, 24)) * 40.0
        got, want = self._both(proj, 2, 2, first_only)
        for g, w in zip(got, want):
            assert np.all(np.isfinite(g))
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_first_only_gradient_is_the_row_zero_gradient(self, n, heads, dtype):
        # the full output with no gradient on the shared rows gives the same
        # gradient; first_only leaves exactly zero on the shared rows' queries
        proj = np.random.default_rng(35).standard_normal((n + 3, 12 * heads)).astype(dtype)
        g = np.random.default_rng(36).standard_normal((n, 1, 4 * heads)).astype(dtype)
        weights = np.zeros((n, 4, 4 * heads), dtype=dtype)
        weights[:, :1] = g
        (row0, g_first), (full, g_full) = (
            self._output_and_grad(ad.shared_token_attention, proj, n, heads, first_only, w)
            for first_only, w in ((True, g), (False, weights)))
        assert row0.dtype == dtype and g_first.dtype == dtype
        np.testing.assert_array_equal(g_first[n:, :4 * heads], 0.0)
        tol = 1e-12 if dtype == np.float64 else 2e-6
        np.testing.assert_allclose(row0, full[:, :1], rtol=0, atol=tol * np.abs(full).max())
        np.testing.assert_allclose(g_first, g_full, rtol=0, atol=tol * np.abs(g_full).max())

    @pytest.mark.parametrize("n, heads", [(0, 1), (4, 1), (2, 4)])
    def test_dimension_errors(self, n, heads):
        # 4 rows: n in [1, 3]; width 6 is not a multiple of 3 * 4
        with pytest.raises(DimensionMismatch):
            ad.shared_token_attention(ad.Tensor(np.zeros((4, 6))), n, heads)


class TestBceWithLogits:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((3, 4))
        y = (rng.random((3, 4)) < 0.5).astype(float)
        w = rng.random((3, 4))
        check_gradients(lambda ts: ad.bce_with_logits(ts[0], y, w), [x])

    def test_hand_values(self):
        # -log(sigmoid(0)) = log 2; -log(1 - sigmoid(log 3)) = log 4
        x = ad.Tensor([0.0, math.log(3.0)])
        loss = ad.bce_with_logits(x, [1.0, 0.0], [1.0, 0.5])
        assert abs(loss.item() - (math.log(2.0) + 0.5 * math.log(4.0))) < 1e-12

    def test_extreme_logits_stay_finite(self):
        x = ad.Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.bce_with_logits(x, [1.0, 0.0], [1.0, 1.0])
            tape.backward(loss)
        assert loss.item() == 2000.0
        np.testing.assert_array_equal(x.grad, [-1.0, 1.0])


class TestFusedRecords:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case, records", [("linear", 1), ("attention", 1),
                                               ("attention_first_only", 1),
                                               ("shared_token_attention", 1),
                                               ("bce_with_logits", 1)])
    def test_record_count_in_input_dtype(self, case, records, dtype):
        rng = np.random.default_rng(27)

        def tensor(*shape):
            return ad.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

        inputs, build = {
            "linear": ([tensor(2, 3, 4), tensor(4, 5), tensor(5)], lambda ts: ad.linear(*ts)),
            "attention": ([tensor(2, 3, 12)],
                          lambda ts: ad.attention(ts[0], 2, np.ones((2, 3)))[0]),
            "attention_first_only": ([tensor(2, 3, 12)],
                                     lambda ts: ad.attention(ts[0], 2, np.ones((2, 3)),
                                                             first_only=True)[0]),
            "shared_token_attention": ([tensor(5, 12)],
                                       lambda ts: ad.shared_token_attention(ts[0], 2, 2)),
            "bce_with_logits": ([tensor(3, 4)],
                                lambda ts: ad.bce_with_logits(ts[0], np.ones((3, 4)),
                                                              np.full((3, 4), 0.25))),
        }[case]
        with ad.Tape() as tape:
            out = build(inputs)
            assert len(tape) == records
            assert out.dtype == dtype
            tape.backward((out * 1.5).sum())
        for t in inputs:
            assert t.grad.dtype == dtype


class TestElementwise:
    @pytest.mark.parametrize(
        "build",
        [
            lambda ts: (ts[0] + ts[1]).sum(),
            lambda ts: (ts[0] - ts[1]).sum(),
            lambda ts: (ts[0] * ts[1]).sum(),
            lambda ts: (ts[0] / (ts[1] + 3.0)).sum(),
        ],
    )
    def test_binary_op_gradients(self, build):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        check_gradients(build, [a, b])

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        check_gradients(lambda ts: ((ts[0] + ts[1]) * ts[1]).sum(), [a, b])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plain_operand_takes_tensor_dtype(self, dtype):
        t = ad.Tensor(np.array([1.0, 2.0], dtype=dtype))
        wide = np.array([0.5, 4.0])  # float64 array
        for out in (t + 0.5, 0.5 + t, t - 0.5, 0.5 - t, t * 0.5, 0.5 * t, t / 4.0, 4.0 / t,
                    ad.mul(t, wide), ad.add(wide, t)):
            assert out.dtype == dtype

    def test_power_gradient(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(6)  # includes negatives; exponent 2 is fine
        check_gradients(lambda ts: (ts[0] ** 2).sum(), [a], tol=1e-7)

    @pytest.mark.parametrize(
        "op",
        [ad.exp, ad.log, ad.sqrt, ad.sigmoid, ad.gelu],
    )
    def test_unary_op_gradients(self, op):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.2, 2.0, size=(3, 4))  # positive keeps log/sqrt safe
        check_gradients(lambda ts: op(ts[0]).sum(), [a])


def _two_branch_sigmoid(x):
    """The logistic function as two masked halves, 1 / (1 + exp(-x)) for
    x >= 0 and exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SIGMOID_SPECIALS = [0.0, np.inf, 1e30, 88.0, 710.0, 745.2, 1e-45, 5e-324, np.nan]


class TestSigmoidKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64, 4), (128, 20), (4, 128, 20), (512, 16), (128, 260)])
    def test_random_inputs_match_two_branches_bit_for_bit(self, shape, dtype):
        x = (8.0 * np.random.default_rng(61).standard_normal(shape)).astype(dtype)
        got = ad._sigmoid(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, _two_branch_sigmoid(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_match_two_branches_bit_for_bit(self, dtype):
        half = np.array(_SIGMOID_SPECIALS, dtype=dtype)
        x = np.concatenate([half, -half])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad._sigmoid(x)
        assert got.dtype == dtype
        want = _two_branch_sigmoid(x)
        np.testing.assert_array_equal(got, want, strict=True)  # NaN matches NaN
        assert np.isnan(got[-1]) and np.isnan(got[len(half) - 1])
        assert got[1] == 1.0 and got[len(half) + 1] == 0.0  # +-inf


class TestGelu:
    def test_zero(self):
        assert ad.gelu(ad.Tensor(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(ad.gelu(ad.Tensor(10.0)).item() - 10.0) < 1e-9

    def test_reference_value(self):
        # Independent normal CDF via math.erf: 1 * Phi(1).
        expected = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(ad.gelu(ad.Tensor(1.0)).item() - expected) < 1e-9
        assert abs(expected - 0.841345) < 1e-6


def gelu_formula(x, g):
    """GELU and its gradient written as whole-array expressions."""
    cdf = ad._erf(x * ad._INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    pdf = np.exp(-0.5 * x * x) * ad._INV_SQRT_2PI
    return x * cdf, g * (cdf + x * pdf)


def row_sums(a):
    """Last-axis sums written as the ones-vector product the kernels use."""
    return (a.reshape(-1, a.shape[-1]) @ np.ones(a.shape[-1], a.dtype)).reshape(a.shape[:-1] + (1,))


def softmax_formula(x, g):
    """Softmax over the last axis and its gradient as whole-array expressions."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / row_sums(e)
    dot = row_sums(g * p)
    return p, (g - dot) * p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (4, 3, 32), (2, 21, 128), (3, 40_000), (512, 4, 4, 4)])
@pytest.mark.parametrize("op, formula", [(ad.gelu, gelu_formula),
                                         (ad.softmax, softmax_formula)])
def test_in_place_kernels_bit_equal_formulas(op, formula, shape, dtype):
    rng = np.random.default_rng(12)
    x = (rng.standard_normal(shape) * 3.0).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    t = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = op(t)
        tape.backward((out * ad.Tensor(g)).sum())
    want_out, want_grad = formula(x, g)
    for got, want in ((out.data, want_out), (t.grad, want_grad)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def canonical_bits(a):
    """Bytes of ``a`` with -0.0 turned into +0.0; every other value keeps its bits."""
    return (a + a.dtype.type(0.0)).view(np.uint8)


MAX_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, ad.MASK_FILL, 1.0, -1.0]


class TestReductions:
    """The kernels' private row and column reductions against numpy's."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 24), st.data())
    def test_max_last_equals_numpy_max(self, dtype, d, data):
        value = st.one_of(st.sampled_from(MAX_SPECIALS),
                          st.floats(allow_nan=False, allow_infinity=False, width=32))
        rows = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
        pattern = np.array(rows, dtype=dtype)
        # an even count of at least 64 * d rows, so every view below still has
        # the 32 rows a column that the sweep needs
        x = np.tile(pattern, (2 * -(-32 * d // len(rows)), 1))
        for view in (x, x[::2], x[:, ::-1], np.asfortranarray(x), x.reshape(-1, 2, d)[:, 1]):
            got = ad._max_last(view)
            want = view.max(axis=-1, keepdims=True)
            assert got.shape == want.shape and got.dtype == dtype
            # a zero maximum's sign follows the order numpy happens to scan in
            np.testing.assert_array_equal(canonical_bits(got), canonical_bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_last_special_rows(self, dtype):
        rows = np.array([[np.nan, 1.0, 2.0], [1.0, 2.0, np.nan], [np.inf, -np.inf, 1.0],
                         [-np.inf, -np.inf, -np.inf], [ad.MASK_FILL, ad.MASK_FILL, -3.0],
                         [ad.MASK_FILL] * 3, [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]], dtype=dtype)
        x = np.tile(rows, (40, 1))
        got = ad._max_last(x)
        np.testing.assert_array_equal(canonical_bits(got), canonical_bits(x.max(-1, keepdims=True)))
        assert np.all(np.signbit(got[6::8]))                # a row of -0.0 keeps its sign
        np.testing.assert_array_equal(ad._max_last(x[:, :1]), x[:, :1])  # a last axis of 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_of_signed_zeros_is_bit_exact(self, dtype):
        # the sign of a zero maximum cannot reach the weights: x - (+-0) is x
        # for nonzero x, +-0 otherwise, and exp(+-0) is exactly 1
        rng = np.random.default_rng(13)
        x = np.where(rng.random((2048, 17)) < 0.5, 0.0, -0.0).astype(dtype)
        x[rng.random(x.shape) < 0.2] = -2.0
        got = ad._softmax_last_axis(x)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(got.view(np.uint8), (e / row_sums(e)).view(np.uint8))

    @staticmethod
    def _tolerance(dtype):
        return 1e-6 if dtype == np.float32 else 1e-15

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(0, 6), min_size=0, max_size=2), st.integers(0, 8), st.data())
    def test_sum_last_matches_numpy(self, dtype, lead, d, data):
        x = data.draw(hnp.arrays(dtype, tuple(lead) + (d,), elements=st.floats(
            -1e3, 1e3, width=32 if dtype == np.float32 else 64)))
        got = ad._sum_last(x)
        want = x.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == dtype
        bound = self._tolerance(dtype) * np.abs(x).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= bound)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(0, 8), min_size=1, max_size=2),
           st.lists(st.integers(0, 6), min_size=0, max_size=2), st.data())
    def test_sum_leading_matches_numpy(self, dtype, lead, rest, data):
        # at most 8 summed rows, so each sum makes few enough roundings for the bound
        lead = lead[:1] if math.prod(lead) > 8 else lead
        x = data.draw(hnp.arrays(dtype, tuple(lead) + tuple(rest), elements=st.floats(
            -1e3, 1e3, width=32 if dtype == np.float32 else 64)))
        axes = tuple(range(len(lead)))
        got = ad._sum_leading(x, len(lead))
        want = x.sum(axis=axes)
        assert got.shape == want.shape and got.dtype == dtype
        assert np.all(np.abs(got - want) <= self._tolerance(dtype) * np.abs(x).sum(axis=axes))

    @pytest.mark.parametrize("grad_shape, shape", [
        ((3, 8, 8), ()), ((5,), (1,)), ((64, 4, 32), (1, 4, 32)), ((64, 4, 32), (4, 32)),
        ((64, 3, 32), (1, 3, 1)), ((6, 16, 16), (6, 16, 1)), ((64, 3), (1, 3)),
        ((2, 3, 4), (3, 1)), ((2, 1, 4), (1, 1, 4)), ((2, 3, 4), (2, 1, 4)), ((0, 3), (3,)),
    ])
    def test_unbroadcast_matches_numpy_sum(self, grad_shape, shape):
        grad = np.random.default_rng(14).standard_normal(grad_shape)
        extra = len(grad_shape) - len(shape)
        axes = tuple(range(extra)) + tuple(
            extra + i for i, s in enumerate(shape) if s == 1 and grad_shape[extra + i] != 1)
        want = grad.sum(axis=axes, keepdims=True).reshape(shape)
        got = ad._unbroadcast(grad, shape)
        assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * max(1.0, np.abs(grad).sum()))


def softmax_numpy(x, g):
    """Softmax and its gradient from numpy's own max and sum reductions."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, (g - (g * p).sum(axis=-1, keepdims=True)) * p


def layer_norm_numpy(x, gain, bias, g):
    """layer_norm's output and (x, gain, bias) gradients from numpy's reductions."""
    x_hat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((x_hat * x_hat).mean(axis=-1, keepdims=True) + 1e-5)
    x_hat *= inv_std
    g_x = g * gain
    g_in = inv_std * (g_x - g_x.mean(axis=-1, keepdims=True)
                      - x_hat * (g_x * x_hat).mean(axis=-1, keepdims=True))
    lead = tuple(range(x.ndim - 1))
    return [x_hat * gain + bias, g_in, (g * x_hat).sum(axis=lead), g.sum(axis=lead)]


@pytest.mark.parametrize("shape", [(7,), (4, 3, 32), (512, 4, 4, 4), (4, 512, 17), (2, 21, 128)])
def test_float64_reductions_match_numpy_formulas(shape):
    rng = np.random.default_rng(15)
    x = rng.standard_normal(shape) * 3.0 + 1.0
    g = rng.standard_normal(shape)
    gain, bias = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
    t = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        p = ad.softmax(t)
        tape.backward((p * ad.Tensor(g)).sum())
    pairs = list(zip([p.data, t.grad], softmax_numpy(x, g)))
    pairs += zip(layer_norm_with_grads(x, gain, bias, g), layer_norm_numpy(x, gain, bias, g))
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(1.0, np.abs(want).max()))


def ulp_index(a):
    """Float32 or float64 values as integers whose differences count ulps
    (+0 and -0 are 0)."""
    a = np.asarray(a)
    ints = np.int32 if a.dtype == np.float32 else np.int64
    i = a.view(ints).astype(np.int64)
    return np.where(i < 0, -(i & np.iinfo(ints).max), i)


def math_erf(z):
    """math.erf of each element, rounded to z's dtype."""
    z = np.asarray(z)
    return np.array([math.erf(v) for v in z.astype(np.float64).tolist()]).astype(z.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestErf:
    GRID = {np.float32: np.linspace(-8.0, 8.0, 1_000_001).astype(np.float32),
            np.float64: np.linspace(-8.0, 8.0, 2_000_001)}
    ULP = {np.float32: 8, np.float64: 10}

    def test_within_bound_of_math_erf(self, dtype):
        got = ad._erf(self.GRID[dtype])
        assert got.dtype == dtype
        err = np.abs(ulp_index(got) - ulp_index(math_erf(self.GRID[dtype])))
        assert err.max() <= self.ULP[dtype]
        assert np.all(np.abs(got) <= 1.0)

    def test_gelu_within_8_ulp_of_x(self, dtype):
        # 1 + erf cancels for negative x, so the bound is in ulps of the input,
        # which is also ulps of the output where gelu(x) ~ x. Float64 reads
        # at most 5 on this grid.
        x = self.GRID[dtype]
        got = ad.gelu(ad.Tensor(x)).data
        assert got.dtype == dtype
        exact = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()])
        assert np.all(np.abs(got - exact) <= 8 * np.spacing(np.abs(x)))

    def test_special_values(self, dtype):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        got = ad._erf(z)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got[:4], [0.0, -0.0, 1.0, -1.0])
        np.testing.assert_array_equal(np.signbit(got[:4]), [False, True, False, True])
        assert np.isnan(got[4])
        assert ad._erf(dtype(-np.inf)).shape == ()

    def test_subnormal_and_saturated_inputs(self, dtype):
        info = np.finfo(dtype)
        n_subnormal = 1 << info.nmant
        steps = np.arange(1, n_subnormal, n_subnormal // 2047 + 1)
        tiny = (steps * info.smallest_subnormal).astype(dtype)
        # from the kernel's clip bound on, erf rounds to 1
        clip = 4.0 if dtype == np.float32 else 6.0
        big = np.array([clip, clip + 0.5, 10.0, 1e30, info.max], dtype=dtype)
        for z in (tiny, -tiny, big, -big):
            want = math_erf(z)
            assert np.abs(ulp_index(ad._erf(z)) - ulp_index(want)).max() <= 1
        np.testing.assert_array_equal(ad._erf(big), 1.0)

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_odd_bounded_and_monotone(self, dtype, data):
        values = data.draw(st.lists(st.floats(allow_nan=False, width=np.finfo(dtype).bits),
                                    min_size=2, max_size=64))
        z = np.sort(np.array(values, dtype=dtype))
        got = ad._erf(z)
        np.testing.assert_array_equal((-got).view(np.uint8), ad._erf(-z).view(np.uint8))
        assert np.all(np.abs(got) <= 1.0)
        # Exact monotonicity needs near-correct rounding: on most of the
        # range erf rises by less than an ulp per input step, so rounding
        # reverses some neighbours (by up to 11 ulp over all float32 inputs,
        # and up to 18 ulp in float64 over 16M grid points and 8M runs of
        # consecutive doubles in [0, 6]). Each value lies within ULP of the
        # monotone rounded erf, so no value falls more than 2 ULP below an
        # earlier one.
        idx = ulp_index(got)
        assert np.all(np.maximum.accumulate(idx) - idx <= 2 * self.ULP[dtype])


class TestMaskedSoftmax:
    def test_uniform_under_equal_scores(self):
        scores = np.zeros((4, 4))
        out = ad.masked_softmax(ad.Tensor(scores), np.ones((4, 4)))
        np.testing.assert_allclose(out.data, 0.25)

    def test_masked_column_vanishes(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((4, 4))
        mask = np.ones((4, 4))
        mask[:, 3] = 0
        out = ad.masked_softmax(ad.Tensor(scores), mask)
        assert np.all(out.data[:, 3] < 1e-30)

    def test_hand_row(self):
        scores = np.array([[0.0, math.log(2.0)]])
        out = ad.masked_softmax(ad.Tensor(scores), np.ones((1, 2)))
        np.testing.assert_allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores = rng.standard_normal((5, 5)) * 10
            mask = (rng.random((5, 5)) < 0.7).astype(float)
            mask[:, 0] = 1  # keep rows attendable
            out = ad.masked_softmax(ad.Tensor(scores), mask)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_all_masked_row_raises(self):
        mask = np.ones((3, 3))
        mask[1] = 0
        with pytest.raises(AllMaskedRow):
            ad.masked_softmax(ad.Tensor(np.zeros((3, 3))), mask)

    def test_non_binary_mask_raises(self):
        with pytest.raises(NonBinary):
            ad.masked_softmax(ad.Tensor(np.zeros((2, 2))), np.full((2, 2), 0.5))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((3, 3))
        mask = np.ones((3, 3))
        mask[:, 2] = 0
        check_gradients(
            lambda ts: (ad.masked_softmax(ts[0], mask) * rng_weights).sum(),
            [scores],
            tol=1e-4,
        )


rng_weights = np.random.default_rng(9).standard_normal((3, 3))


def layer_norm_with_grads(x, gain, bias, g):
    """layer_norm's output and its (x, gain, bias) gradients for output gradient g."""
    ts = [ad.Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    with ad.Tape() as tape:
        out = ad.layer_norm(*ts)
        tape.backward((out * ad.Tensor(g)).sum())
    return [out.data] + [t.grad for t in ts]


class TestLayerNorm:
    def _unit(self, d):
        return ad.Tensor(np.ones(d)), ad.Tensor(np.zeros(d))

    def test_constant_vector_is_zeroed(self):
        gain, bias = self._unit(4)
        out = ad.layer_norm(ad.Tensor(np.full(4, 3.0)), gain, bias, eps=1e-12)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_hand_case(self):
        gain, bias = self._unit(2)
        out = ad.layer_norm(ad.Tensor([0.0, 2.0]), gain, bias, eps=1e-12)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_rejects_nonpositive_eps(self):
        gain, bias = self._unit(2)
        with pytest.raises(ValueError):
            ad.layer_norm(ad.Tensor([0.0, 1.0]), gain, bias, eps=0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 5))
        gain = rng.standard_normal(5)
        bias = rng.standard_normal(5)
        check_gradients(
            lambda ts: (ad.layer_norm(ts[0], ts[1], ts[2]) ** 2).sum(),
            [x, gain, bias],
            tol=1e-4,
        )

    @pytest.mark.parametrize("shape", [(7,), (5, 1), (3, 1), (4, 3, 32), (2, 21, 128), (6, 2000)])
    def test_float32_matches_float64_reference(self, shape):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(shape) * 3.0 + 1.0).astype(np.float32)
        gain = rng.standard_normal(shape[-1]).astype(np.float32)
        bias = rng.standard_normal(shape[-1]).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        got = layer_norm_with_grads(x, gain, bias, g)
        want = layer_norm_with_grads(*(a.astype(np.float64) for a in (x, gain, bias, g)))
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            # relative to each array's scale: x_hat has unit variance
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-6 * max(np.abs(b).max(), 1.0))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Tensor(np.arange(4.0), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones(4))

    def test_dot_gradient(self):
        x = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_raises(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            y = x * 2.0
            with pytest.raises(NonScalarLoss):
                tape.backward(y)

    def test_double_backward_raises(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            loss = x.sum()
            tape.backward(loss)
            with pytest.raises(DoubleBackward):
                tape.backward(loss)

    def test_shared_parameter_accumulates(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        with ad.Tape() as tape:
            # loss = x*x + 3x, dloss/dx = 2x + 3 = 7
            loss = (x * x + 3.0 * x).sum()
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_shared_subexpression_sums_path_gradients(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))

        def build(ts):
            shared = ad.gelu(ts[0])
            left = (shared * shared).sum()
            right = ad.sigmoid(shared).sum()
            return left + right

        check_gradients(build, [a], tol=1e-5)

    def test_no_tape_is_forward_only(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        assert not y.requires_grad
        assert y.grad is None

    def test_records_are_freed_as_the_sweep_uses_them(self):
        x = ad.Tensor(np.linspace(0.5, 2.0, 6), requires_grad=True)
        with ad.Tape() as tape:
            dropped = ad.exp(x)
            held = dropped * 3.0
            loss = ad.log(held).sum()
            assert len(tape) == 4
            dropped_data = weakref.ref(dropped.data)
            del dropped
            tape.backward(loss)
            # the tape is still alive, but no longer holds the dropped tensor
            assert dropped_data() is None
            assert len(tape) == 0
            np.testing.assert_array_equal(held.grad, 1.0 / held.data)
            with pytest.raises(DoubleBackward):
                tape.backward(loss)
        # d/dx log(3 exp(x)) = 1
        np.testing.assert_allclose(x.grad, np.ones(6), rtol=1e-15)


class ClosureTape(ad.Tape):
    """Tape that keeps every record's backward closure."""

    def __init__(self):
        super().__init__()
        self.closures = []

    def record(self, out, inputs, backward):
        self.closures.append(backward)
        super().record(out, inputs, backward)


def recorded_backward(build, *tensors):
    """The one backward closure that ``build(*tensors)`` records."""
    with ClosureTape() as tape:
        build(*tensors)
    (backward,) = tape.closures
    return backward


class TestConstantOperands:
    """A binary primitive's backward returns None for an operand that does
    not require a gradient, and the other operand's gradient unchanged."""

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul])
    @pytest.mark.parametrize("shapes", [((3, 4, 4), (4, 4)), ((4, 4), (3, 4, 4))])
    @pytest.mark.parametrize("constant", [0, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_slot_is_none(self, op, shapes, constant, dtype):
        rng = np.random.default_rng(31)
        arrays = [rng.uniform(0.5, 2.0, shape).astype(dtype) for shape in shapes]
        g = rng.standard_normal((3, 4, 4)).astype(dtype)
        both = recorded_backward(op, *(ad.Tensor(a, requires_grad=True) for a in arrays))(g)
        got = recorded_backward(op, *(ad.Tensor(a, requires_grad=i != constant)
                                      for i, a in enumerate(arrays)))(g)
        assert got[constant] is None
        variable = 1 - constant
        assert got[variable].dtype == dtype
        np.testing.assert_array_equal(got[variable], both[variable])

    @pytest.mark.parametrize("build", [lambda x: x + 1.0, lambda x: 1.0 + x,
                                       lambda x: x - 1.0, lambda x: 1.0 - x,
                                       lambda x: x * 0.5, lambda x: 0.5 * x,
                                       lambda x: x / 2.0, lambda x: 1.0 / x])
    def test_scalar_operand_is_none(self, build):
        x = ad.Tensor(np.linspace(0.5, 2.0, 6), requires_grad=True)
        grads = recorded_backward(build, x)(np.ones(6))
        assert sum(grad is None for grad in grads) == 1
        (grad,) = [grad for grad in grads if grad is not None]
        assert grad.shape == (6,)


def held_tensors(obj, seen=None):
    """Every Tensor reachable from ``obj`` through tuples, lists, dicts,
    gradient slots and the closure cells of functions."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, ad.Tensor):
        return [obj]
    if isinstance(obj, (tuple, list)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, ad.Node):
        children = [obj.grad]
    elif callable(obj) and hasattr(obj, "__code__"):
        children = [cell.cell_contents for cell in obj.__closure__ or ()]
        children += list(obj.__defaults__ or ())
    else:
        return []
    return [t for child in children for t in held_tensors(child, seen)]


def _leaf(rng, *shape):
    return ad.Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True)


# Each builds one primitive's records from leaves that all require a gradient.
RECORDING_BUILDS = {
    "add": lambda r: ad.add(_leaf(r, 3, 4), _leaf(r, 4)),
    "sub": lambda r: ad.sub(_leaf(r, 3, 4), _leaf(r, 4)),
    "mul": lambda r: ad.mul(_leaf(r, 3, 4), _leaf(r, 4)),
    "div": lambda r: ad.div(_leaf(r, 3, 4), _leaf(r, 4)),
    "scalar_operand": lambda r: 1.0 - 2.0 * _leaf(r, 3) / 3.0,
    "neg": lambda r: ad.neg(_leaf(r, 3)),
    "power": lambda r: ad.power(_leaf(r, 3), 3.0),
    "matmul": lambda r: ad.matmul(_leaf(r, 2, 3, 4), _leaf(r, 4, 5)),
    "linear": lambda r: ad.linear(_leaf(r, 2, 3, 4), _leaf(r, 4, 5), _leaf(r, 5)),
    "linear_no_bias": lambda r: ad.linear(_leaf(r, 3, 4), _leaf(r, 4, 5)),
    "transpose": lambda r: ad.transpose(_leaf(r, 2, 3, 4), (1, 0, 2)),
    "reshape": lambda r: ad.reshape(_leaf(r, 2, 3), (3, 2)),
    "broadcast_to": lambda r: ad.broadcast_to(_leaf(r, 1, 3), (4, 3)),
    "concat": lambda r: ad.concat([_leaf(r, 2, 3), _leaf(r, 1, 3)], axis=0),
    "stack": lambda r: ad.stack([_leaf(r, 2, 3), _leaf(r, 2, 3)], axis=1),
    "take": lambda r: _leaf(r, 3, 4)[1:, 2],
    "take_rows": lambda r: _leaf(r, 3, 4, 2)[np.array([2, 0]), np.array([1, 3])],
    "scatter_rows": lambda r: ad.scatter_rows(_leaf(r, 2, 3), (np.array([0, 2]), np.array([1, 1])),
                                              (3, 2)),
    "tensor_sum": lambda r: ad.tensor_sum(_leaf(r, 3, 4), axis=1),
    "tensor_mean": lambda r: ad.tensor_mean(_leaf(r, 3, 4), axis=0),
    "exp": lambda r: ad.exp(_leaf(r, 3)),
    "log": lambda r: ad.log(_leaf(r, 3)),
    "sqrt": lambda r: ad.sqrt(_leaf(r, 3)),
    "sigmoid": lambda r: ad.sigmoid(_leaf(r, 3)),
    "gelu": lambda r: ad.gelu(_leaf(r, 3)),
    "clamp": lambda r: ad.clamp(_leaf(r, 3), 0.8, 1.5),
    "clamp_min": lambda r: ad.clamp_min(_leaf(r, 3), 1.0),
    "softmax": lambda r: ad.softmax(_leaf(r, 2, 3)),
    "masked_softmax": lambda r: ad.masked_softmax(_leaf(r, 2, 3), np.array([1, 0, 1])),
    "attention": lambda r: ad.attention(_leaf(r, 2, 3, 12), 2, np.ones((2, 3)))[0],
    "attention_first_only": lambda r: ad.attention(_leaf(r, 2, 3, 12), 2, first_only=True)[0],
    "shared_token_attention": lambda r: ad.shared_token_attention(_leaf(r, 5, 12), 2, 2),
    "bce_with_logits": lambda r: ad.bce_with_logits(_leaf(r, 2, 3), np.eye(2, 3),
                                                    np.ones((2, 3))),
    "layer_norm": lambda r: ad.layer_norm(_leaf(r, 2, 4), _leaf(r, 4), _leaf(r, 4)),
    "dropout": lambda r: ad.dropout(_leaf(r, 40), 0.5, np.random.default_rng(0)),
}


class TestRecordContents:
    """A record keeps gradient slots and the arrays its backward reads, so
    an activation nobody reads dies with its last name, not with the tape."""

    @pytest.mark.parametrize("name", sorted(RECORDING_BUILDS))
    def test_no_record_holds_a_tensor(self, name):
        with ad.Tape() as tape:
            out = RECORDING_BUILDS[name](np.random.default_rng(41))
            records = list(tape._records)
            assert records
            assert held_tensors(records) == []
            tape.backward(out.sum())

    def test_unread_activation_dies_before_backward(self):
        rng = np.random.default_rng(42)
        x, w, b = _leaf(rng, 6, 4), _leaf(rng, 4, 5), _leaf(rng, 5)
        with ad.Tape() as tape:
            hidden = ad.linear(x, w, b)
            # dropout's backward reads its mask, not its input
            out = ad.dropout(hidden, 0.5, np.random.default_rng(0))
            hidden_data = weakref.ref(hidden.data)
            del hidden
            assert hidden_data() is None
            tape.backward(out.sum())
        assert x.grad.shape == x.shape and w.grad.shape == w.shape and b.grad.shape == b.shape


class TestShapeOps:
    def test_concat_stack_take_gradients(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))

        def build(ts):
            cat = ad.concat([ts[0], ts[1]], axis=1)
            stk = ad.stack([ts[0], ts[1]], axis=0)
            return (cat * cat).sum() + stk[0, :, 1:].sum()

        check_gradients(build, [a, b])

    def test_transpose_reshape_broadcast_gradients(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 3, 4))

        def build(ts):
            t = ad.transpose(ts[0], (1, 0, 2)).reshape((3, 8))
            wide = ad.broadcast_to(t.reshape((3, 1, 8)), (3, 2, 8))
            return (wide * wide).sum()

        check_gradients(build, [a])

    def test_integer_row_gather_and_scatter_gradients(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((4, 3, 2))
        rows, cols = np.array([3, 0, 1]), np.array([2, 2, 0])

        def build(ts):
            packed = ts[0][rows, cols]  # (3, 2)
            grid = ad.scatter_rows(packed * packed, (rows, cols), (4, 3))
            return (grid * ts[0]).sum() + ts[0][np.array([1, 3])].sum()

        check_gradients(build, [a])

    def test_scatter_rows_places_rows_in_exact_zeros(self):
        x = ad.Tensor(np.arange(6.0).reshape(3, 2))
        grid = ad.scatter_rows(x, (np.array([1, 0, 1]), np.array([0, 1, 2])), (2, 3)).data
        np.testing.assert_array_equal(grid[[1, 0, 1], [0, 1, 2]], x.data)
        assert np.count_nonzero(grid[[0, 0, 1], [0, 2, 1]]) == 0
        np.testing.assert_array_equal(ad.scatter_rows(x, np.array([3, 0, 2]), (4,)).data[1], 0.0)

    def test_repeated_gather_index_raises_instead_of_dropping_gradient(self):
        # a[[0, 0, 2]] would assign row 0's two gradients to one slot and keep
        # one of them: row 0 would get a gradient of 1 where it should get 2
        a = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with ad.Tape():
            for key in (np.array([0, 0, 2]), [1, 1], np.array([0, -4]),
                        (np.array([0, 1, 0]), np.array([2, 2, 2]))):
                with pytest.raises(RepeatedIndex):
                    a[key]
            a[np.array([0, 1, 0]), np.array([2, 2, 1])]  # distinct pairs
        # without a recorded gradient the gather is just numpy's
        np.testing.assert_array_equal(a[np.array([0, 0])].data, a.data[[0, 0]])

    def test_scatter_rows_rejects_repeated_or_misshapen_index(self):
        x = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(RepeatedIndex):
            ad.scatter_rows(x, np.array([2, 0, 2]), (4,))
        with pytest.raises(RepeatedIndex):
            ad.scatter_rows(x, (np.array([0, 1, 0]), np.array([1, 1, 1])), (2, 2))
        with pytest.raises(DimensionMismatch):
            ad.scatter_rows(x, np.array([0, 1]), (4,))
        with pytest.raises(DimensionMismatch):
            ad.scatter_rows(x, np.array([0, 1, 2]), (4, 2))

    def test_mean_gradient(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 4))
        check_gradients(lambda ts: (ad.tensor_mean(ts[0], axis=1) ** 2).sum(), [a])


class TestClamp:
    def test_forward(self):
        x = ad.Tensor([-1.0, 0.5, 2.0])
        np.testing.assert_allclose(ad.clamp(x, 0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_gradient_zero_outside_range(self):
        x = ad.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.clamp(x, 0.0, 1.0).sum())
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_clamp_min_passes_gradient_up_to_inf(self):
        x = ad.Tensor([-1.0, 0.5, 1e300, np.inf, np.nan], requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.clamp_min(x, 0.5).sum())
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


class TestDropout:
    def test_identity_without_generator(self):
        x = ad.Tensor(np.arange(5.0))
        out = ad.dropout(x, 0.5)
        np.testing.assert_array_equal(out.data, x.data)

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(15)
        x = ad.Tensor(np.full(100_000, 2.0))
        out = ad.dropout(x, 0.1, rng=rng)
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.01

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(16)
        x = ad.Tensor(np.ones(1000), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dropout(x, 0.25, rng=rng)
            tape.backward(out.sum())
        # Gradient is exactly the scale mask applied in the forward pass.
        np.testing.assert_array_equal((x.grad > 0), (out.data > 0))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor(np.ones(2)), 1.0, rng=np.random.default_rng(19))

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_kept_fraction_is_binomial(self, rate):
        k = 200_001
        out = ad.dropout(ad.Tensor(np.ones(k, dtype=np.float32)), rate,
                         rng=np.random.default_rng(20))
        keep = 1.0 - rate
        kept = int(np.count_nonzero(out.data))
        assert abs(kept - k * keep) < 5.0 * math.sqrt(k * keep * rate)

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (5, 7), (3, 1, 5)])
    def test_odd_and_zero_d_shapes(self, shape):
        x = ad.Tensor(np.full(shape, 2.0, dtype=np.float32), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dropout(x, 0.5, rng=np.random.default_rng(21))
            tape.backward(out.sum())
        assert out.shape == shape and out.dtype == np.float32
        assert np.all((out.data == 0.0) | (out.data == 4.0))
        np.testing.assert_array_equal(x.grad, out.data / 2.0)

    def test_float64_stays_float64(self):
        out = ad.dropout(ad.Tensor(np.ones((4, 5))), 0.3, rng=np.random.default_rng(22))
        assert out.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_mask_times_inverse_keep(self, dtype):
        rate = 0.3
        x = ad.Tensor(np.random.default_rng(23).standard_normal((6, 50)).astype(dtype),
                      requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dropout(x, rate, rng=np.random.default_rng(24))
            tape.backward(out.sum())
        # replay the same draws to recover the mask
        replay = ad.dropout(ad.Tensor(np.ones_like(x.data)), rate,
                            rng=np.random.default_rng(24)).data
        mask = replay != 0
        inv_keep = dtype(1.0) / dtype(1.0 - rate)
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, mask * inv_keep)
        np.testing.assert_array_equal(out.data, x.data * (mask * inv_keep))

    def test_same_seed_same_mask(self):
        x = ad.Tensor(np.ones((9, 13), dtype=np.float32))
        a = ad.dropout(x, 0.4, rng=np.random.default_rng(25)).data
        b = ad.dropout(x, 0.4, rng=np.random.default_rng(25)).data
        c = ad.dropout(x, 0.4, rng=np.random.default_rng(26)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tiny_rate_does_not_overflow_threshold(self):
        # round(keep * 2**32) is 2**32 here, one past the largest uint32
        rate = 2.0**-34
        assert round((1.0 - rate) * 2**32) == 2**32
        x = ad.Tensor(np.ones(10_000))
        out = ad.dropout(x, rate, rng=np.random.default_rng(27))
        np.testing.assert_array_equal(out.data, 1.0 / (1.0 - rate))


class TestGradientCheck:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(17)
        w = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        c = rng.standard_normal((2, 4))

        def f():
            return ad.matmul(ad.Tensor(c), w).sum()

        # Linear map: no truncation error, so a large step avoids the
        # cancellation noise a tiny step would introduce.
        assert ad.gradient_check(f, [w], eps=1e-3) < 1e-10

    def test_composite_function(self):
        rng = np.random.default_rng(18)
        w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = rng.standard_normal((2, 3))

        def f():
            h = ad.gelu(ad.matmul(ad.Tensor(x), w))
            return (ad.softmax(h) * h).sum()

        assert ad.gradient_check(f, [w], eps=1e-5) < 1e-6

    def test_perturbed_gradient_is_flagged(self):
        # Same comparison formula, but with the analytic side scaled by 1.01:
        # the reported error must exceed the 5e-3 alarm threshold.
        rng = np.random.default_rng(19)
        w = ad.Tensor(rng.standard_normal(5), requires_grad=True)

        def f():
            return (w * w).sum()

        with ad.Tape() as tape:
            loss = f()
            tape.backward(loss)
        analytic = w.grad * 1.01
        numeric = finite_difference(lambda: float(f().data), [w.data], eps=1e-6)[0]
        assert rel_err(analytic, numeric) > 5e-3
