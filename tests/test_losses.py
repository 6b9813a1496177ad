"""Tests for the classification and graph-constraint losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mvmlc import autodiff as ad
from mvmlc import losses as L
from mvmlc.autodiff import Tensor
from mvmlc.errors import DegenerateMask, DimensionMismatch


class TestLabelSimilarity:
    def test_hand_value_one_third(self):
        y = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        g = np.ones_like(y)
        t, u = L.label_similarity(y, g)
        assert abs(t[0, 1] - 1.0 / 3.0) < 1e-12
        assert u[0, 1] == 1.0

    def test_disjoint_known_categories(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        t, u = L.label_similarity(y, g)
        assert u[0, 1] == 0.0 and t[0, 1] == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            y = (rng.random((8, 5)) < 0.4).astype(float)
            g = (rng.random((8, 5)) < 0.7).astype(float)
            y = y * g
            t, u = L.label_similarity(y, g)
            np.testing.assert_array_equal(t, t.T)
            np.testing.assert_array_equal(u, u.T)
            assert np.all((t >= 0) & (t <= 1))
            np.testing.assert_array_equal(t[u == 0], 0.0)

    def test_one_hot_rows_give_zero_or_one_over_c(self):
        c = 5
        y = np.eye(c)[[0, 0, 1, 2, 1]]
        t, _ = L.label_similarity(y, np.ones_like(y))
        same = y @ y.T > 0
        np.testing.assert_allclose(t[same], 1.0 / c)
        np.testing.assert_allclose(t[~same], 0.0)

    def test_outputs_are_constants(self):
        t, u = L.label_similarity(np.eye(3), np.ones((3, 3)))
        assert isinstance(t, np.ndarray) and isinstance(u, np.ndarray)

    def test_mask_of_another_shape_raises(self):
        # a 1-D or one-row mask would broadcast to U of shape () or (1, 1)
        y = np.eye(4)[[0, 1, 2, 3, 0]]
        g = np.ones((5, 4))
        for labels, mask in ((y, g[0]), (y, g[:1]), (y, g.T), (y[0], g[0])):
            with pytest.raises(DimensionMismatch) as info:
                L.label_similarity(labels, mask)
            assert str(mask.shape) in str(info.value) and str(labels.shape) in str(info.value)


class TestEmbeddingSimilarity:
    def test_identical_vectors(self):
        z = Tensor(np.tile([1.0, 2.0, 3.0], (2, 1)))
        s = L.embedding_similarity(z)
        np.testing.assert_allclose(s.data, 1.0, atol=1e-12)

    def test_opposite_vectors(self):
        z = Tensor(np.array([[1.0, -2.0], [-1.0, 2.0]]))
        np.testing.assert_allclose(L.embedding_similarity(z).data[0, 1], 0.0, atol=1e-12)

    def test_orthogonal_vectors(self):
        z = Tensor(np.array([[1.0, 0.0], [0.0, 5.0]]))
        np.testing.assert_allclose(L.embedding_similarity(z).data[0, 1], 0.5, atol=1e-12)

    def test_zero_vector_is_safe(self):
        z = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
        s = L.embedding_similarity(z).data
        assert np.all(np.isfinite(s))

    def test_batched_matches_per_view(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 4, 6))
        batched = L.embedding_similarity(Tensor(z)).data
        for v in range(3):
            single = L.embedding_similarity(Tensor(z[v])).data
            np.testing.assert_allclose(batched[v], single, atol=1e-13)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        weights = rng.standard_normal((4, 4))

        def f():
            return (L.embedding_similarity(z) * Tensor(weights)).sum()

        assert ad.gradient_check(f, [z], eps=1e-6) < 1e-6


class TestGraphConstraintLoss:
    def test_hand_value_half_log_two(self):
        # two samples, one view, both available, T12 = S12 = 0.5
        # per-pair BCE = ln 2 over N = 2 ordered pairs -> loss = ln2 / 2
        z = np.array([[1.0, 0.0], [0.0, 5.0]]).reshape(2, 1, 2)  # orthogonal -> S = 0.5
        t = np.array([[1.0, 0.5], [0.5, 1.0]])
        u = np.ones((2, 2))
        w = np.ones((2, 1))
        loss = L.graph_constraint_loss(Tensor(z), t, u, w)
        assert abs(loss.item() - math.log(2.0) / 2.0) < 1e-12
        assert abs(loss.item() - 0.34657) < 1e-5

    def test_matching_similarities_give_tiny_loss(self):
        # embeddings equal wherever T = 1: BCE at its optimum
        z = np.tile([2.0, 1.0], (3, 1)).reshape(3, 1, 2)
        t = np.ones((3, 3))
        loss = L.graph_constraint_loss(Tensor(z), t, np.ones((3, 3)), np.ones((3, 1)))
        assert 0.0 <= loss.item() < 1e-6

    def test_missing_view_content_excluded_bit_exactly(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((5, 2, 4))
        w = np.ones((5, 2))
        w[1, 0] = 0.0
        w[4, 1] = 0.0
        t, u = L.label_similarity((rng.random((5, 3)) < 0.5).astype(float), np.ones((5, 3)))
        base = L.graph_constraint_loss(Tensor(z), t, u, w).item()
        z2 = z.copy()
        z2[1, 0] = rng.standard_normal(4) * 100
        z2[4, 1] = rng.standard_normal(4) * 100
        pert = L.graph_constraint_loss(Tensor(z2), t, u, w).item()
        assert base == pert

    def test_matches_reference_under_masks(self):
        # the folded coefficients give the documented per-view mean over valid
        # pairs, averaged over views with 1/(2m); a view with no pair adds 0
        rng = np.random.default_rng(7)
        n, m = 6, 3
        for _ in range(5):
            z = rng.standard_normal((n, m, 4))
            y = (rng.random((n, 4)) < 0.4).astype(float)
            g = (rng.random((n, 4)) < 0.7).astype(float)
            t, u = L.label_similarity(y * g, g)
            w = (rng.random((n, m)) < 0.7).astype(float)
            w[w.sum(axis=1) == 0, 0] = 1.0
            want = 0.0
            for v in range(m):
                unit = z[:, v] / np.linalg.norm(z[:, v], axis=1, keepdims=True)
                s_v = np.clip((unit @ unit.T + 1.0) / 2.0, L.PROB_CLAMP, 1.0 - L.PROB_CLAMP)
                pairs = np.outer(w[:, v], w[:, v]) * u * (1.0 - np.eye(n))
                if pairs.sum() > 0:
                    bce = -(t * np.log(s_v) + (1.0 - t) * np.log(1.0 - s_v))
                    want += (bce * pairs).sum() / pairs.sum() / (2.0 * m)
            got = L.graph_constraint_loss(Tensor(z), t, u, w).item()
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_float32_loss_and_gradient_stay_float32(self):
        # the folded pair weights and T are built in the states' dtype
        rng = np.random.default_rng(8)
        z = rng.standard_normal((6, 2, 4))
        t, u = L.label_similarity((rng.random((6, 3)) < 0.5).astype(float), np.ones((6, 3)))
        w = np.ones((6, 2))
        w[2, 1] = 0.0
        want = L.graph_constraint_loss(Tensor(z), t, u, w).item()
        z32 = Tensor(z.astype(np.float32), requires_grad=True)
        with ad.Tape() as tape:
            loss = L.graph_constraint_loss(z32, t, u, w)
            tape.backward(loss)
        assert loss.dtype == np.float32 and z32.grad.dtype == np.float32
        assert abs(loss.item() - want) <= 1e-5 * abs(want)

    def test_no_valid_pairs_warns_and_returns_zero(self):
        z = np.ones((2, 1, 3))
        u = np.zeros((2, 2))
        with pytest.warns(UserWarning):
            loss = L.graph_constraint_loss(Tensor(z), np.zeros((2, 2)), u, np.ones((2, 1)))
        assert loss.item() == 0.0

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            z = rng.standard_normal((6, 3, 5))
            y = (rng.random((6, 4)) < 0.4).astype(float)
            g = (rng.random((6, 4)) < 0.8).astype(float)
            t, u = L.label_similarity(y * g, g)
            w = (rng.random((6, 3)) < 0.8).astype(float)
            w[w.sum(axis=1) == 0, 0] = 1.0
            assert L.graph_constraint_loss(Tensor(z), t, u, w).item() >= 0.0

    def test_view_mask_of_wrong_shape(self):
        rng = np.random.default_rng(6)
        z = Tensor(rng.standard_normal((8, 3, 4)))
        t, u = L.label_similarity((rng.random((8, 2)) < 0.5).astype(float), np.ones((8, 2)))
        w = np.ones((8, 3))
        for bad in (w[:1], w[:, :2], w.T, w[None]):
            with pytest.raises(DimensionMismatch) as info:
                L.graph_constraint_loss(z, t, u, bad)
            assert str(bad.shape) in str(info.value) and "(8, 3)" in str(info.value)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)
        y = (rng.random((4, 3)) < 0.5).astype(float)
        t, u = L.label_similarity(y, np.ones_like(y))
        w = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

        def f():
            return L.graph_constraint_loss(z, t, u, w)

        assert ad.gradient_check(f, [z], eps=1e-6) < 1e-6


def logit(p):
    """The logit whose sigmoid is p."""
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


class TestMaskedBce:
    def test_hand_value(self):
        x = Tensor(logit([[0.9, 0.2]]))
        y = np.array([[1.0, 0.0]])
        g = np.array([[1.0, 0.0]])
        loss = L.masked_bce(x, y, g)
        assert abs(loss.item() - (-math.log(0.9))) < 1e-12
        assert abs(loss.item() - 0.10536) < 1e-5

    def test_masked_entries_are_ignored_bit_exactly(self):
        rng = np.random.default_rng(6)
        x = Tensor(logit(rng.random((5, 4)) * 0.98 + 0.01))
        y = (rng.random((5, 4)) < 0.5).astype(float)
        g = (rng.random((5, 4)) < 0.6).astype(float)
        g[0, 0] = 1.0
        y = y * g
        base = L.masked_bce(x, y, g).item()
        y2 = y.copy()
        y2[g == 0] = 1.0 - y2[g == 0]
        # flipped labels violate the zero-fill convention but must not matter
        assert L.masked_bce(x, y2, g).item() == base

    def test_perfect_predictions(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        # logits of +-20 are sigmoid 1 - 2e-9 and 2e-9: confident and right
        loss = L.masked_bce(Tensor(20.0 * (2.0 * y - 1.0)), y, np.ones_like(y))
        assert loss.item() < 2e-7

    def test_degenerate_mask(self):
        with pytest.raises(DegenerateMask):
            L.masked_bce(Tensor(np.zeros((2, 2))), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_mask_or_labels_of_another_shape_raise(self):
        # a (c,) mask would broadcast over the rows and divide by one row's count
        x = Tensor(np.zeros((5, 3)))
        y = np.ones((5, 3))
        for labels, mask in ((y, y[0]), (y, y[:1]), (y[0], y), (y.T, y.T)):
            with pytest.raises(DimensionMismatch) as info:
                L.masked_bce(x, labels, mask)
            message = str(info.value)
            assert str(labels.shape) in message and str(mask.shape) in message
            assert "(5, 3)" in message

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = (rng.random((3, 4)) < 0.5).astype(float)
        g = np.ones((3, 4))

        def f():
            return L.masked_bce(logits, y, g)

        assert ad.gradient_check(f, [logits], eps=1e-6) < 1e-6

    def test_saturated_wrong_predictions_keep_their_gradient(self):
        # sigmoid(+-40) rounds to exactly 1 and 0 in float32; a loss built
        # from the rounded probabilities would give these logits no gradient
        logits = Tensor(np.array([[40.0, -40.0]], dtype=np.float32), requires_grad=True)
        y = np.array([[0.0, 1.0]])
        with ad.Tape() as tape:
            loss = L.masked_bce(logits, y, np.ones_like(y))
            tape.backward(loss)
        assert loss.dtype == np.float32 and logits.grad.dtype == np.float32
        assert np.isfinite(loss.item()) and abs(loss.item() - 40.0) < 1e-5
        np.testing.assert_allclose(logits.grad, [[0.5, -0.5]], rtol=1e-6)


class TestTotalLoss:
    def test_zero_coefficients(self):
        l_mc, l_gc, l_ac = Tensor(0.7), Tensor(0.3), Tensor(0.5)
        assert L.total_loss(l_mc, l_gc, l_ac, 0.0, 0.0).item() == 0.7
        # a zero-weight term is left out, not multiplied by zero: 0 * inf is NaN
        l_mc = Tensor(0.7, requires_grad=True)
        l_gc, l_ac = Tensor(np.inf, requires_grad=True), Tensor(np.nan, requires_grad=True)
        with ad.Tape() as tape:
            loss = L.total_loss(l_mc * 1.0, l_gc * 1.0, l_ac * 1.0, 0.0, 0.0)
            tape.backward(loss)
        assert loss.item() == 0.7 and l_mc.grad == 1.0
        assert l_gc.grad is None and l_ac.grad is None

    def test_alpha_linearity(self):
        l_mc, l_gc, l_ac = Tensor(0.7), Tensor(0.3), Tensor(0.5)
        base = L.total_loss(l_mc, l_gc, l_ac, 1.0, 0.1).item()
        double = L.total_loss(l_mc, l_gc, l_ac, 2.0, 0.1).item()
        assert abs((double - base) - 0.3) < 1e-12

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            L.total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), -1.0, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 10.0, 0.37])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.013])
    def test_equals_the_weighted_sum_bit_for_bit(self, dtype, alpha, beta):
        """The stacked sum is ``l_mc + alpha * l_gc + beta * l_ac`` over the
        positive coefficients, in value and in every gradient."""
        rng = np.random.default_rng(8)
        data = rng.standard_normal(7).astype(dtype)
        scale = rng.standard_normal(7)

        def run(combine):
            x = Tensor(data.copy(), requires_grad=True)
            with ad.Tape() as tape:
                terms = [(x * x).sum(), ad.exp(x).sum(), (x * scale).sum()]
                loss = combine(*terms)
                tape.backward(loss)
            return loss.data, x.grad

        def weighted_sum(l_mc, l_gc, l_ac):
            loss = l_mc
            if alpha > 0:
                loss = loss + alpha * l_gc
            if beta > 0:
                loss = loss + beta * l_ac
            return loss

        value, grad = run(lambda *terms: L.total_loss(*terms, alpha, beta))
        ref_value, ref_grad = run(weighted_sum)
        assert value.dtype == dtype and grad.dtype == dtype
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(grad, ref_grad)


@st.composite
def label_subsets(draw):
    """0/1 labels and label mask (some rows with no known label) and a
    subset of row indices in random order."""
    n = draw(st.integers(1, 30))
    c = draw(st.integers(1, 8))
    y = draw(hnp.arrays(np.float64, (n, c), elements=st.sampled_from([0.0, 1.0])))
    g = draw(hnp.arrays(np.float64, (n, c), elements=st.sampled_from([0.0, 1.0, 1.0])))
    unknown = draw(hnp.arrays(np.bool_, n))
    g[unknown] = 0.0
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return y * g, g, np.array(idx)


class TestLossContext:
    @settings(derandomize=True, deadline=None)
    @given(label_subsets())
    def test_batch_slicing_matches_direct_computation(self, case):
        y, g, idx = case
        ctx = L.LossContext(y, g)
        assert ctx.labels is y and ctx.label_mask is g
        t_b, u_b = ctx.batch(idx)
        t, u = L.label_similarity(y, g)
        grid = np.ix_(idx, idx)
        np.testing.assert_array_equal(t_b, t[grid])
        np.testing.assert_array_equal(u_b, u[grid])
