"""Reverse-mode automatic differentiation on dense numpy arrays.

A Tensor wraps a float32/float64 ndarray plus a gradient slot. While a Tape
is active (``with Tape() as tape:``), every primitive whose output depends on
a gradient-requiring tensor appends an (output, inputs, backward_fn) record.
Execution order is already a topological order of the DAG, so
``tape.backward(loss)`` walks the records once in reverse and accumulates
gradients additively into every tensor on a path to a ``requires_grad`` leaf.

Running primitives with no active tape is forward-only: nothing is recorded
and outputs never require gradients. Inference and finite-difference probes
rely on this mode.

Tensors are treated as immutable after construction; gradient arrays are
never mutated in place, only rebound, so sharing buffers between records is
safe. The one writer is the optimizer, which updates parameter data in
place between steps, after the tape that read it has been consumed.

Dtype rule: in the binary primitives (``add``, ``sub``, ``mul``, ``div`` and
their operators, reflected ones included) an operand that is not a Tensor,
such as a Python scalar or a plain ndarray, takes the dtype of the Tensor
operand. A float32 model therefore computes, records and differentiates in
float32, and a float64 model in float64. Two Tensors of different dtypes
still promote by numpy's rules.

Fused primitives: every tape record costs Python overhead in the forward
and the backward pass, and at small widths that overhead, not arithmetic,
bounds a training step. Three composite operations therefore record one
entry each, with a hand-written backward:

- ``linear(x, w, b)``: ``x @ w + b`` with any leading axes of ``x``
  flattened, so forward and backward are each one 2-D GEMM.
- ``attention(qkv, heads, mask)``: multi-head scaled dot-product attention
  on packed query/key/value projections, head split and merge included.
  Its weights come from ``softmax`` or ``masked_softmax`` applied to the
  plain scores array, so masking stays bit-exact and lives in one place.
- ``bce_with_logits(logits, targets, weights)``: binary cross-entropy in
  logit space, which keeps a gradient where a float32 sigmoid saturates.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import (
    AllMaskedRow,
    DimensionMismatch,
    DoubleBackward,
    NonBinary,
    NonScalarLoss,
)

_FLOAT_DTYPES = (np.float32, np.float64)

# Logit fill used to silence masked attention positions. exp() of it
# underflows to exactly 0.0 in both float32 and float64, which is what makes
# masking bit-exact rather than merely approximate.
MASK_FILL = -1e9


class Tensor:
    """Dense real tensor with an optional accumulated-gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # Arithmetic delegates to the module-level primitives.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


_TAPES: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Execution-ordered record of primitive applications.

    Each record holds the output tensor, its input tensors, and a closure
    mapping the output gradient to per-input gradients. Appending in
    execution order guarantees every input of a record precedes it, so one
    reverse sweep visits each record exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._used = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def __len__(self):
        return len(self._records)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable):
        self._records.append((out, inputs, backward))

    def backward(self, loss: Tensor):
        """Accumulate dloss/dt into t.grad for every recorded tensor t."""
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss has shape {loss.data.shape}; expected a scalar")
        if self._used:
            raise DoubleBackward("tape already consumed; build a fresh tape to backpropagate again")
        self._used = True
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        for out, inputs, backward_fn in reversed(self._records):
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            for tensor, grad in zip(inputs, grads):
                if grad is None or not tensor.requires_grad:
                    continue
                tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _as_tensors(a, b) -> tuple[Tensor, Tensor]:
    """Operands of a binary primitive; a non-Tensor takes the Tensor's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(b, dtype=a.data.dtype)
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(a, dtype=b.data.dtype), b
    return _as_tensor(a), _as_tensor(b)


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensors(a, b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensors(a, b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensors(a, b)

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensors(a, b)

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        return (-g,)

    return _make(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a scalar exponent."""
    a = _as_tensor(a)
    e = float(exponent)

    def backward(g):
        return (g * e * np.power(a.data, e - 1.0),)

    return _make(np.power(a.data, e), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra and shape manipulation
# ---------------------------------------------------------------------------


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy stacked-matmul semantics (operands >= 2-D).

    A linear layer should use ``linear``, which runs any number of leading
    axes as one 2-D GEMM; this is for products such as ``q @ k^T``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionMismatch(
            f"matmul needs matrices, got ndim {a.data.ndim} and {b.data.ndim}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionMismatch(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )

    def backward(g):
        return (
            _unbroadcast(g @ _swap_last(b.data), a.data.shape),
            _unbroadcast(_swap_last(a.data) @ g, b.data.shape),
        )

    return _make(a.data @ b.data, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one tape record.

    ``x`` may have any number of leading axes; they are flattened, so the
    forward product, the input gradient and the weight gradient
    ``x2.T @ g2`` are each one 2-D GEMM. ``w`` is (d_in, d_out) and the
    optional bias ``b`` is (d_out,).
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim < 1 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise DimensionMismatch(
            f"linear needs (..., k) @ (k, m), got {x.data.shape} @ {w.data.shape}"
        )
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = x2 @ w.data
    inputs = (x, w)
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != w.data.shape[1:]:
            raise DimensionMismatch(
                f"linear bias has shape {b.data.shape}; expected {w.data.shape[1:]}"
            )
        out += b.data
        inputs = (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        # a layer's input is often data, whose gradient nobody reads
        g_x = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        grads = (g_x, x2.T @ g2)
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _make(out.reshape(x.data.shape[:-1] + w.data.shape[1:]), inputs, backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _as_tensor(a)
    perm = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inverse = tuple(np.argsort(perm))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _make(np.transpose(a.data, perm), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.data.shape

    def backward(g):
        return (g.reshape(old_shape),)

    return _make(a.data.reshape(shape), (a,), backward)


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        return (_unbroadcast(g, a.data.shape),)

    return _make(np.broadcast_to(a.data, shape), (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(parts)))

    return _make(np.stack([p.data for p in parts], axis=axis), tuple(parts), backward)


def take(a, key) -> Tensor:
    """Basic (non-fancy) indexing; gradient scatters back into zeros."""
    a = _as_tensor(a)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _make(a.data[key], (a,), backward)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[i] for i in axes]))
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out_data,)

    return _make(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp() only ever sees -|x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a) -> Tensor:
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF."""
    a = _as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (cdf + x * pdf),)

    return _make(x * cdf, (a,), backward)


def clamp(a, lo: float | None, hi: float | None) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input was in range."""
    a = _as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = np.ones(a.data.shape, dtype=bool)
    if lo is not None:
        inside &= a.data >= lo
    if hi is not None:
        inside &= a.data <= hi

    def backward(g):
        return (g * inside,)

    return _make(out_data, (a,), backward)


def clamp_min(a, lo: float) -> Tensor:
    return clamp(a, lo, None)


def _softmax_last_axis(filled: np.ndarray) -> np.ndarray:
    z = filled - filled.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the logits of softmax weights ``p`` whose gradient is ``g``."""
    dot = (g * p).sum(axis=-1, keepdims=True)
    return (g - dot) * p


def softmax(a) -> Tensor:
    """Numerically stable softmax along the last axis."""
    a = _as_tensor(a)
    p = _softmax_last_axis(a.data)
    return _make(p, (a,), lambda g: (_softmax_backward(p, g),))


def masked_softmax(scores, mask) -> Tensor:
    """Softmax along the last axis with binary masking.

    Positions where ``mask == 0`` have their logits replaced by MASK_FILL
    before the softmax, so they receive exactly zero weight (the exponential
    underflows). The mask must be 0/1-valued and broadcastable to ``scores``;
    a row of all zeros has nothing to attend to and raises AllMaskedRow.
    """
    scores = _as_tensor(scores)
    m = np.asarray(mask.data if isinstance(mask, Tensor) else mask)
    if not np.all((m == 0) | (m == 1)):
        raise NonBinary("mask entries must be exactly 0 or 1")
    if np.any(np.all(m == 0, axis=-1)):
        raise AllMaskedRow("mask contains a row with no available position")
    filled = np.where(m == 0, MASK_FILL, scores.data)
    p = _softmax_last_axis(filled)
    # p is exactly 0 at masked positions, so the softmax Jacobian already
    # sends zero gradient to their logits.
    return _make(p, (scores,), lambda g: (_softmax_backward(p, g),))


def attention(qkv, heads: int, mask=None) -> tuple[Tensor, Tensor]:
    """Multi-head scaled dot-product self-attention as one tape record.

    ``qkv`` is (n, t, 3 * d): the query, key and value projections packed
    along the last axis. Each is split into ``heads`` heads of width
    d_h = d / heads. The scores ``q @ k^T / sqrt(d_h)`` of every head go
    through ``softmax``, or ``masked_softmax`` when ``mask`` (n, t, t) is
    given, to weights over the key axis, which mix the values; the heads
    are then merged. Returns ``(mixed, probs)``: the merged head outputs
    (n, t, d), recorded on the tape, and the attention weights
    (n, heads, t, t) as a constant Tensor, which gets no gradient.

    The head split and merge are views and reshapes, and the softmax runs
    on a plain array, so none of them records anything. The backward pass
    runs the value mix, the softmax Jacobian and the scores in reverse and
    returns one packed ``qkv`` gradient. It reuses the stored weights
    instead of recomputing them from ``qkv``: they hold n * heads * t * t
    values against the n * t * 3d of ``qkv``, fewer whenever
    heads * t < 3d, as in both encoders here.
    """
    qkv = _as_tensor(qkv)
    if qkv.data.ndim != 3 or qkv.data.shape[-1] % (3 * heads) != 0:
        raise DimensionMismatch(
            f"attention needs packed (n, t, 3 * d) projections with d divisible by "
            f"heads={heads}, got {qkv.data.shape}"
        )
    n, t, d3 = qkv.data.shape
    d = d3 // 3
    d_h = d // heads
    scale = qkv.data.dtype.type(1.0 / math.sqrt(d_h))
    # (3, n, heads, t, d_h) views of the packed projections
    q, k, v = qkv.data.reshape(n, t, 3, heads, d_h).transpose(2, 0, 3, 1, 4)
    scores = (q @ _swap_last(k)) * scale
    if mask is None:
        probs = softmax(scores)
    else:
        probs = masked_softmax(scores, np.asarray(mask)[:, None, :, :])
    p = probs.data

    def backward(g):
        g_heads = g.reshape(n, t, heads, d_h).transpose(0, 2, 1, 3)
        g_v = _swap_last(p) @ g_heads
        g_scores = _softmax_backward(p, g_heads @ _swap_last(v)) * scale
        g_qkv = np.stack((g_scores @ k, _swap_last(g_scores) @ q, g_v))
        return (g_qkv.transpose(1, 3, 0, 2, 4).reshape(n, t, d3),)

    mixed = (p @ v).transpose(0, 2, 1, 3).reshape(n, t, d)
    return _make(mixed, (qkv,), backward), probs


def bce_with_logits(logits, targets, weights) -> Tensor:
    """Weighted binary cross-entropy of ``sigmoid(logits)`` as one tape record.

    Returns ``sum(weights * (softplus(x) - y * x))``, the cross-entropy
    written in logit space, so it needs no clamp and no log of a rounded
    probability. Its gradient ``weights * (sigmoid(x) - y)`` stays useful
    when a prediction saturates on the wrong side. ``targets`` and
    ``weights`` are constants broadcastable to ``logits``.
    """
    logits = _as_tensor(logits)
    x = logits.data
    y = np.asarray(targets, dtype=x.dtype)
    w = np.asarray(weights, dtype=x.dtype)

    def backward(g):
        return (g * w * (_sigmoid(x) - y),)

    return _make((w * (np.logaddexp(0, x) - y * x)).sum(), (logits,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Uses the population variance. ``gain`` and ``bias`` have the size of the
    last axis and broadcast over all leading axes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * gain.data + bias.data

    def backward(g):
        g_gain = _unbroadcast(g * x_hat, gain.data.shape)
        g_bias = _unbroadcast(g, bias.data.shape)
        g_hat = g * gain.data
        g_x = inv_std * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        return g_x, g_gain, g_bias

    return _make(out_data, (x, gain, bias), backward)


def dropout(x, rate: float, rng: np.random.Generator | None = None, train: bool = False) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale kept values by
    1/(1-rate) so the expected output equals the input. Identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a random generator")
    keep = 1.0 - rate
    scale = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep

    def backward(g):
        return (g * scale,)

    return _make(x.data * scale, (x,), backward)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def gradient_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must rebuild the scalar loss from the current parameter values on
    every call and must be deterministic (disable dropout). Returns the
    maximum over all parameter coordinates of

        |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).

    Run in 64-bit precision; float32 has too little headroom for the
    difference quotient.
    """
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [
        np.zeros_like(p.data, dtype=np.float64)
        if p.grad is None
        else np.asarray(p.grad, dtype=np.float64)
        for p in params
    ]
    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        flat_grads = grads.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            loss_plus = float(f().data)
            flat[i] = original - eps
            loss_minus = float(f().data)
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = flat_grads[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
    return worst
