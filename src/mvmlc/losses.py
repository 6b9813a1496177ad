"""Training objectives: masked BCE classification losses and the
label-guided graph constraint.

The graph constraint treats label agreement as ground truth for how close
two samples should be, and pushes each view's embedding cosine similarity
toward it with a binary cross-entropy, skipping any pair where either view
is unavailable or no label category is known for both samples.

Label similarity T and pair validity U are functions of the (constant)
labels and masks only, so they are plain numpy arrays and no gradient flows
into them; all similarity learning happens through the embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_label_mask, check_view_mask
from .errors import DegenerateMask, DimensionMismatch

# Similarities are clamped here before any log; the floor sits comfortably
# inside float32 resolution.
PROB_CLAMP = 1e-7
# Embedding norms are floored at 1e-12 (squared: 1e-24) before division.
NORM_FLOOR_SQ = 1e-24


def label_similarity(labels: np.ndarray, label_mask: np.ndarray):
    """Pairwise label agreement T and pair validity U.

    T[i, j] is the number of shared known positive tags divided by the number
    of categories known in both rows. Pairs with no commonly-known category
    get U[i, j] = 0 and T[i, j] = 0 by convention (0/0 carries no signal).
    Both outputs are constants: plain float arrays, never Tensors. The mask
    must pass ``check_label_mask`` against the 2-D labels' shape.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2:
        raise DimensionMismatch(f"labels are {y.shape}, not 2-D")
    g = check_label_mask(label_mask, y.shape)
    known_pos = y * g
    shared_pos = known_pos @ known_pos.T
    shared_known = g @ g.T
    valid = shared_known > 0
    t = np.where(valid, shared_pos / np.maximum(shared_known, 1.0), 0.0)
    return t, valid.astype(np.float64)


def embedding_similarity(z: Tensor) -> Tensor:
    """Cosine similarity mapped to [0, 1]: (cos + 1) / 2 over the last axis.

    Accepts (n, d) or any leading batch axes, e.g. (m, n, d) for per-view
    similarity stacks, returning (..., n, n). Norms are floored so zero
    vectors stay finite.
    """
    sq_norm = (z * z).sum(axis=-1, keepdims=True)
    unit = z / ad.sqrt(ad.clamp_min(sq_norm, NORM_FLOOR_SQ))
    cos = ad.matmul(unit, ad.transpose(unit, axes=_swap_axes(unit.ndim)))
    return (cos + 1.0) * 0.5


def _swap_axes(ndim: int):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return axes


def graph_constraint_loss(view_states: Tensor, label_sim: np.ndarray,
                          pair_valid: np.ndarray, view_mask: np.ndarray) -> Tensor:
    """Cross-entropy between label similarity and per-view embedding similarity.

    view_states: (n, m, d_e) encoder outputs. For each view, the BCE between
    T[i, j] and that view's similarity S[i, j] is averaged over its own valid
    ordered pairs (i != j, both views available, U[i, j] = 1), then averaged
    over views with the 1/(2m) convention. Views without a single valid pair
    contribute zero; if no view has one, the loss is zero with a warning.
    ``view_mask`` is checked against the states' (n, m) by ``check_view_mask``.
    """
    n, m, _ = view_states.shape
    w = check_view_mask(view_mask, (n, m))
    dt = view_states.data.dtype
    off_diag = 1.0 - np.eye(n)
    # (m, n, n) 0/1 pair weights; their sums are the exact per-view pair counts
    pair_w = w.T[:, :, None] * w.T[:, None, :] * pair_valid[None] * off_diag[None]
    counts = pair_w.sum(axis=(1, 2))
    if not np.any(counts > 0):
        warnings.warn("graph constraint skipped: no valid sample pair in any view")
        return Tensor(np.zeros((), dtype=dt))

    # fold the per-view 1/N and the -1/(2m) over views into the pair weights;
    # they and T are constants in the model dtype, so no float64 temporary of
    # this size is live while the forward pass's activations are
    scale = np.divide(-1.0 / (2.0 * m), counts, out=np.zeros_like(counts), where=counts > 0)
    pair_w *= scale[:, None, None]
    pair_w = pair_w.astype(dt)
    t = np.asarray(label_sim, dtype=dt)

    sim = embedding_similarity(ad.transpose(view_states, (1, 0, 2)))  # (m, n, n)
    sim = ad.clamp(sim, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return (ad.log(sim) * (pair_w * t) + ad.log(1.0 - sim) * (pair_w * (1.0 - t))).sum()


def masked_bce(logits: Tensor, labels: np.ndarray, label_mask: np.ndarray) -> Tensor:
    """Binary cross-entropy of ``sigmoid(logits)`` averaged over known
    (sample, label) entries only.

    Computed in logit space (``ad.bce_with_logits``), so a prediction
    saturated on the wrong side still gets a gradient of full size.
    ``labels`` and ``label_mask`` (``check_label_mask``) have the logits' shape.
    """
    if np.shape(labels) != logits.shape:
        raise DimensionMismatch(f"labels are {np.shape(labels)}, not the logits' {logits.shape}")
    g = check_label_mask(label_mask, logits.shape).astype(logits.data.dtype)
    known = g.sum()
    if known == 0:
        raise DegenerateMask("masked BCE needs at least one known label")
    return ad.bce_with_logits(logits, labels, g / known)


def total_loss(l_mc: Tensor, l_gc: Tensor, l_ac: Tensor, alpha: float, beta: float) -> Tensor:
    """Weighted objective: main BCE + alpha * graph constraint + beta * token BCE.

    The terms whose coefficient is positive are stacked, scaled by their
    coefficients and summed: three records, and bit for bit the value and
    gradients of ``l_mc + alpha * l_gc + beta * l_ac``. A term whose
    coefficient is zero is left out, so it gets no gradient and even a
    non-finite value of it cannot reach the loss.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("penalty coefficients must be non-negative")
    terms, weights = zip(*((t, w) for t, w in ((l_mc, 1.0), (l_gc, alpha), (l_ac, beta))
                           if w > 0))
    return (ad.stack(terms) * np.array(weights)).sum()


@dataclass
class LossContext:
    """Label similarity T and pair validity U of a training set, per batch.

    Holds the training set's own ``labels`` and ``label_mask`` arrays, not
    copies, and computes T and U over a batch's rows only, so no n × n array
    is ever built. The result equals the whole-set matrices cut to the batch
    bit for bit: T[i, j] and U[i, j] depend only on rows i and j, and both
    are ratios of counts that are exact sums of 0/1 values.
    """

    labels: np.ndarray
    label_mask: np.ndarray

    def batch(self, indices):
        return label_similarity(self.labels[indices], self.label_mask[indices])
