"""Tests for the reverse-mode autodiff engine.

Analytic gradients are checked against an independent central-difference
oracle implemented here (not the engine's own gradient_check), plus hand
values for the fixed cases.
"""

import math

import numpy as np
import pytest

from mvmlc import autodiff as ad
from mvmlc.errors import (
    AllMaskedRow,
    DimensionMismatch,
    DoubleBackward,
    NonBinary,
    NonScalarLoss,
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
    probs = ad.softmax(scores) if mask is None else ad.masked_softmax(scores, mask[:, None])
    mixed = ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)).reshape((n, t, d))
    return mixed, probs


def view_style_mask(rng, n, t):
    """Random (n, t, t) 0/1 mask whose rows all keep their diagonal."""
    mask = (rng.random((n, t, t)) < 0.6).astype(float)
    mask[:, np.arange(t), np.arange(t)] = 1.0
    return mask


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gradient_matches_finite_differences(self, heads, masked):
        rng = np.random.default_rng(22)
        qkv = rng.standard_normal((2, 3, 12))
        mask = view_style_mask(rng, 2, 3) if masked else None
        weights = rng.standard_normal((2, 3, 4))
        check_gradients(lambda ts: (ad.attention(ts[0], heads, mask)[0] * weights).sum(), [qkv])

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
        mask = np.ones((1, 3, 3))
        mask[0, :2, 2] = 0  # rows 0 and 1 may not attend to token 2
        with ad.Tape() as tape:
            mixed, probs = ad.attention(qkv, 1, mask)
            tape.backward(mixed[:, :2].sum())
        assert np.all(probs.data[0, 0, :2, 2] == 0.0)
        # the mask leaves token 2 feeding only its own row, which the loss ignores
        np.testing.assert_array_equal(qkv.grad[0, 2], 0.0)

    @pytest.mark.parametrize("attend", [ad.attention, composed_attention])
    def test_mask_errors(self, attend):
        qkv = ad.Tensor(np.zeros((2, 3, 6)))
        with pytest.raises(NonBinary):
            attend(qkv, 1, np.full((2, 3, 3), 0.5))
        mask = np.ones((2, 3, 3))
        mask[1, 2] = 0
        with pytest.raises(AllMaskedRow):
            attend(qkv, 1, mask)

    def test_bad_packing(self):
        with pytest.raises(DimensionMismatch):
            ad.attention(ad.Tensor(np.zeros((2, 3, 8))), 2)


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
                                               ("bce_with_logits", 1)])
    def test_record_count_in_input_dtype(self, case, records, dtype):
        rng = np.random.default_rng(27)

        def tensor(*shape):
            return ad.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

        inputs, build = {
            "linear": ([tensor(2, 3, 4), tensor(4, 5), tensor(5)], lambda ts: ad.linear(*ts)),
            "attention": ([tensor(2, 3, 12)],
                          lambda ts: ad.attention(ts[0], 2, np.ones((2, 3, 3)))[0]),
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

    def test_mean_gradient(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 4))
        check_gradients(lambda ts: (ts[0].mean(axis=1) ** 2).sum(), [a])


class TestClamp:
    def test_forward(self):
        x = ad.Tensor([-1.0, 0.5, 2.0])
        np.testing.assert_allclose(ad.clamp(x, 0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_gradient_zero_outside_range(self):
        x = ad.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.clamp(x, 0.0, 1.0).sum())
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = ad.Tensor(np.arange(5.0))
        out = ad.dropout(x, 0.5, train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(15)
        x = ad.Tensor(np.full(100_000, 2.0))
        out = ad.dropout(x, 0.1, rng=rng, train=True)
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.01

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(16)
        x = ad.Tensor(np.ones(1000), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dropout(x, 0.25, rng=rng, train=True)
            tape.backward(out.sum())
        # Gradient is exactly the scale mask applied in the forward pass.
        np.testing.assert_array_equal((x.grad > 0), (out.data > 0))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor(np.ones(2)), 1.0, train=True)


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
