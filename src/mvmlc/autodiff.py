"""Reverse-mode automatic differentiation on dense numpy arrays.

A Tensor wraps a float32/float64 ndarray plus a gradient slot, a small
``Node`` that ``Tensor.grad`` reads and sets. While a Tape is active
(``with Tape() as tape:``), every primitive whose output depends on a
gradient-requiring tensor appends an (output slot, input slots, backward_fn)
record. Execution order is already a topological order of the DAG, so
``tape.backward(loss)`` walks the records once in reverse and accumulates
gradients additively into every slot on a path to a ``requires_grad`` leaf.

Running primitives with no active tape is forward-only: nothing is recorded
and outputs never require gradients. Inference and finite-difference probes
rely on this mode.

Tensors are treated as immutable after construction: a backward closure
captures the arrays it reads when the record is made, not the tensors, so
rebinding a tensor's ``.data`` later does not reach it. Gradient arrays are
never mutated in place, only rebound, so sharing buffers between records is
safe. The one writer is the optimizer, which updates parameter data in
place between steps, after the tape that read it has been consumed.

Record lifetime: a record holds no Tensor. It holds the output's gradient
slot, one slot per input that requires a gradient, and a closure over only
the arrays, shapes and flags its backward reads, as PyTorch's
``save_for_backward`` keeps only what a backward saves. So an activation
whose data no backward reads, such as the input of ``dropout`` or of an
addition, is freed as soon as the caller drops it, during the forward pass,
and a step retains only what its backward needs. ``Tape.backward`` pops
each record off the tape before it runs the record's closure, so the tape
is empty once the sweep ends, and the saved arrays and the gradient of an
intermediate the caller no longer holds go during the sweep rather than
when the tape does. A tensor the caller still holds keeps its gradient,
and the arithmetic and its order are those of a plain reverse walk, so
results are the same bit for bit.

Constant operands: an input's ``requires_grad`` is read when the record is
made. The backward of ``add``, ``sub``, ``mul``, ``div`` and ``matmul``,
and ``linear``'s for its input ``x``, returns None and computes nothing for
an operand whose ``requires_grad`` is False, such as a scalar, a label
array or a data batch; ``mul``, ``div`` and ``matmul`` keep an operand's
data only when a gradient that reads it is wanted.

Dtype rule: in the binary primitives (``add``, ``sub``, ``mul``, ``div`` and
their operators, reflected ones included) an operand that is not a Tensor,
such as a Python scalar or a plain ndarray, takes the dtype of the Tensor
operand. A float32 model therefore computes, records and differentiates in
float32, and a float64 model in float64. Two Tensors of different dtypes
still promote by numpy's rules.

Fused primitives: every tape record costs Python overhead in the forward
and the backward pass, and at small widths that overhead, not arithmetic,
bounds a training step. Four composite operations therefore record one
entry each, with a hand-written backward:

- ``linear(x, w, b)``: ``x @ w + b`` with any leading axes of ``x``
  flattened, so forward and backward are each one 2-D GEMM.
- ``attention(qkv, heads, mask)``: multi-head scaled dot-product attention
  on packed query/key/value projections, head split and merge included.
  Its weights come from ``softmax`` or ``masked_softmax`` applied to the
  plain scores array, so masking stays bit-exact and lives in one place.
- ``shared_token_attention(proj, n, heads)``: unmasked attention over
  [a sample's token, c tokens shared by every sample] that computes the
  shared tokens' block once per call instead of once per sample.
- ``bce_with_logits(logits, targets, weights)``: binary cross-entropy in
  logit space, which keeps a gradient where a float32 sigmoid saturates.

Dropout runs only when it is given a random generator: training passes
one, and inference and gradient checks pass none. Its masks come from
32-bit draws: ``dropout`` compares the halves of the generator's raw 64-bit
words against a 32-bit threshold, two mask elements per word, instead of
drawing a float64 uniform per element. A seeded generator gives the same
masks on every run; the stream is not the one ``rng.random(shape) < keep``
would give.

Reductions: numpy's axis reductions pay a fixed cost per row, whatever
its length, and the model's rows are short (m views, c + 1 tokens, d_e
features). So the kernels (``softmax`` and ``masked_softmax`` with their
backward, ``shared_token_attention``, ``layer_norm``, ``linear``'s bias
gradient and ``_unbroadcast``) take their sums as one BLAS matrix-vector
product with a ones vector: ``_sum_last`` over the last axis and
``_sum_leading`` over leading axes. ``_max_last`` takes the row maximum of
short rows by one in-place ``np.maximum`` pass per column, and leaves long
rows, or too few of them, to numpy. Float32, best of 5 x 200 calls, numpy
2.4.6 on a 2-vCPU host, numpy -> helper in microseconds:

    shape                                  max        row sum    column sum
    (512, 4, 4, 4) eval view scores        410 -> 21  170 -> 9   144 -> 12
    (4, 512, 17) eval shared row-0 scores   86 -> 42   55 -> 10   56 -> 10
    (2688, 128) train-labels token rows    (numpy)    121 -> 36   92 -> 28

Sums round in BLAS order rather than numpy's pairwise order, so they equal
numpy's only up to rounding, and like every GEMM here they depend on the
BLAS thread count. Maxima equal numpy's bit for bit, except that a zero
maximum may carry either sign. ``tensor_sum`` keeps numpy's sum.

The error function inside ``gelu`` is one numpy kernel, ``_erf``, for both
precisions: a rational approximation z P(z^2) / Q(z^2) evaluated in the
input's dtype, with a coefficient table and clip bound per dtype. It is
within 8 ulp of the correctly rounded erf in float32 and within 10 ulp in
float64, the dtype that gradients are verified in. numpy is the only
runtime dependency.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AllMaskedRow,
    DimensionMismatch,
    DoubleBackward,
    NonBinary,
    NonScalarLoss,
    RepeatedIndex,
)

_FLOAT_DTYPES = (np.float32, np.float64)

# Logit fill used to silence masked attention positions. exp() of it
# underflows to exactly 0.0 in both float32 and float64, which is what makes
# masking bit-exact rather than merely approximate.
MASK_FILL = -1e9


class Node:
    """A tensor's gradient slot, which tape records hold instead of the tensor."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """Dense real tensor with an optional accumulated-gradient slot."""

    __slots__ = ("data", "node", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.node = Node()
        self.requires_grad = bool(requires_grad)

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        self.node.grad = value

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

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


_TAPES: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Execution-ordered record of primitive applications.

    Each record holds the output's gradient slot, one slot per input (None
    for an input that does not require a gradient), and a closure mapping
    the output gradient to per-input gradients. Appending in execution order
    guarantees every input of a record precedes it, so one reverse sweep
    visits each record exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Node, tuple[Node | None, ...], Callable]] = []
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
        slots = tuple(t.node if t.requires_grad else None for t in inputs)
        self._records.append((out.node, slots, backward))

    def backward(self, loss: Tensor):
        """Accumulate dloss/dt into t.grad for every recorded tensor t that is
        still reachable, and every ``requires_grad`` leaf.

        Each record is dropped as it is used, so the tape is empty afterwards
        and the gradient of an intermediate nobody holds is freed during the
        sweep. A second call raises ``DoubleBackward``.
        """
        if loss.data.size != 1:
            raise NonScalarLoss(f"loss has shape {loss.data.shape}; expected a scalar")
        if self._used:
            raise DoubleBackward("tape already consumed; build a fresh tape to backpropagate again")
        self._used = True
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            # popped before it runs: its closure, and a gradient slot nobody
            # else holds, are freed when the next iteration rebinds these names
            out, inputs, backward_fn = records.pop()
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            for node, grad in zip(inputs, grads):
                if node is None or grad is None:
                    continue
                node.grad = grad if node.grad is None else node.grad + grad


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


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` as one matrix-vector product with a
    ones vector: the rows of ``x`` flattened to 2-D times ones(d)."""
    d = x.shape[-1]
    rows = math.prod(x.shape[:-1])
    return (x.reshape(rows, d) @ np.ones(d, x.dtype)).reshape(x.shape[:-1] + (1,))


def _sum_leading(x: np.ndarray, k: int) -> np.ndarray:
    """Sum over the first ``k`` axes of ``x`` as one vector-matrix product,
    ones(rows) times the array flattened to (rows, rest)."""
    rows = math.prod(x.shape[:k])
    return (np.ones(rows, x.dtype) @ x.reshape(rows, math.prod(x.shape[k:]))).reshape(x.shape[k:])


# The column sweep of _max_last pays off for short rows only: past this width
# each pass rereads the array's cache lines and numpy's own reduction wins.
_SWEEP_MAX_WIDTH = 24


def _max_last(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` by one in-place ``np.maximum`` pass
    per column when the rows are short and many.

    A maximum does not depend on the order of comparison, so the result
    equals numpy's bit for bit, NaN included, with one exception: a zero
    maximum of a row holding both +0.0 and -0.0 may carry either sign, as
    numpy's own choice of that sign changes with the row length.
    """
    d = x.shape[-1]
    # numpy pays ~45 ns a row and a pass ~1 us: sweep from 32 rows a column up
    if not 2 <= d <= _SWEEP_MAX_WIDTH or x.size < 32 * d * d:
        return x.max(axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for j in range(1, d):
        np.maximum(out, x[..., j : j + 1], out=out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape.

    The leading axes that ``shape`` lacks or holds as 1 are summed as one
    ``_sum_leading`` product; other axes, and a sum down to one element, go
    through numpy.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    lead = extra
    while lead < grad.ndim and shape[lead - extra] == 1:
        lead += 1
    if lead == grad.ndim:
        return grad.sum().reshape(shape)
    if lead:
        grad = _sum_leading(grad, lead)
    axes = tuple(i for i, s in enumerate(shape[lead - extra :]) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (_unbroadcast(g, shape_a) if need_a else None,
                _unbroadcast(g, shape_b) if need_b else None)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (_unbroadcast(g, shape_a) if need_a else None,
                _unbroadcast(-g, shape_b) if need_b else None)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    # each gradient reads the other operand: keep an operand only if it is read
    data_a = a.data if need_b else None
    data_b = b.data if need_a else None

    def backward(g):
        return (
            _unbroadcast(g * data_b, shape_a) if need_a else None,
            _unbroadcast(g * data_a, shape_b) if need_b else None,
        )

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    # both gradients read the divisor, only b's reads the dividend
    data_a = a.data if need_b else None
    data_b = b.data

    def backward(g):
        return (
            _unbroadcast(g / data_b, shape_a) if need_a else None,
            _unbroadcast(-g * data_a / (data_b * data_b), shape_b) if need_b else None,
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
    x = a.data
    e = float(exponent)

    def backward(g):
        return (g * e * np.power(x, e - 1.0),)

    return _make(np.power(x, e), (a,), backward)


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

    shape_a, shape_b = a.data.shape, b.data.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    # each gradient reads the other operand: keep an operand only if it is read
    data_a = a.data if need_b else None
    data_b = b.data if need_a else None

    def backward(g):
        return (
            _unbroadcast(g @ _swap_last(data_b), shape_a) if need_a else None,
            _unbroadcast(_swap_last(data_a) @ g, shape_b) if need_b else None,
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
    w_data = w.data
    out = x2 @ w_data
    inputs = (x, w)
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != w_data.shape[1:]:
            raise DimensionMismatch(
                f"linear bias has shape {b.data.shape}; expected {w_data.shape[1:]}"
            )
        out += b.data
        inputs = (x, w, b)
    shape_x, need_x, has_bias = x.data.shape, x.requires_grad, b is not None

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        # a layer's input is often data, whose gradient nobody reads
        g_x = (g2 @ w_data.T).reshape(shape_x) if need_x else None
        grads = (g_x, x2.T @ g2)
        return grads + (_sum_leading(g2, 1),) if has_bias else grads

    return _make(out.reshape(shape_x[:-1] + w_data.shape[1:]), inputs, backward)


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
    old_shape = a.data.shape

    def backward(g):
        return (_unbroadcast(g, old_shape),)

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
    count = len(parts)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(count))

    return _make(np.stack([p.data for p in parts], axis=axis), tuple(parts), backward)


def _check_unique(key, shape: tuple[int, ...]):
    """Raise ``RepeatedIndex`` if the integer arrays of ``key``, one per
    leading axis of ``shape`` that they index, name one position twice."""
    flat, size = None, 1
    for part, dim in zip(key if isinstance(key, tuple) else (key,), shape):
        if isinstance(part, (np.ndarray, list)) and np.asarray(part).dtype.kind in "iu":
            part = np.asarray(part) % dim
            flat = part if flat is None else flat * dim + part
            size *= dim
    if flat is None:
        return
    seen = np.zeros(size, bool)
    seen[flat] = True
    if np.count_nonzero(seen) != np.size(flat):
        raise RepeatedIndex(f"an index names one of {size} positions more than once")


def take(a, key) -> Tensor:
    """``a[key]``; the gradient scatters back into zeros.

    ``key`` is a basic key (integers, slices) or holds integer arrays, one
    per leading axis it indexes (``a[rows]``, ``a[rows, cols]``): a gather
    of unique positions. The backward assigns each output gradient to its
    position, so an integer array that names a position twice would drop
    all but one of that position's gradients: when the gather is recorded,
    such a key raises ``RepeatedIndex``.
    """
    a = _as_tensor(a)
    shape, dtype = a.data.shape, a.data.dtype
    out = a.data[key]
    if a.requires_grad and _active_tape() is not None:
        _check_unique(key, shape)

    def backward(g):
        ga = np.zeros(shape, dtype)
        ga[key] = g
        return (ga,)

    return _make(out, (a,), backward)


def scatter_rows(x, index, shape) -> Tensor:
    """Rows of ``x`` placed at ``index`` in zeros of ``shape + x.shape[1:]``.

    ``index`` is an integer array, or a tuple of them, one per axis of
    ``shape``, naming the position of each of ``x``'s rows; a position
    named twice raises ``RepeatedIndex``. Every other position holds exact
    zeros. The backward is the gather ``g[index]``, so it is ``take``'s
    adjoint: ``take(scatter_rows(x, index, shape), index)`` is ``x``.
    """
    x = _as_tensor(x)
    index = index if isinstance(index, tuple) else (index,)
    rows = len(x.data)
    if len(index) != len(shape) or any(len(i) != rows for i in index):
        raise DimensionMismatch(f"scatter_rows needs {len(shape)} index arrays of {rows} "
                                f"rows into {tuple(shape)}")
    _check_unique(index, shape)
    out = np.zeros(tuple(shape) + x.data.shape[1:], x.data.dtype)
    out[index] = x.data
    return _make(out, (x,), lambda g: (g[index],))


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

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
    x = a.data

    def backward(g):
        return (g / x,)

    return _make(np.log(x), (a,), backward)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out_data,)

    return _make(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow or branches: with e = exp(-|x|),
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, so exp() only ever
    sees -|x|. The result keeps x's dtype, and NaN stays NaN."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# erf(z) ~ z * P(z^2) / Q(z^2), highest degree first. Float32 uses the
# rational approximation of Eigen and XLA on [-4, 4]; beyond |z| = 4, erf(z)
# rounds to +-1 in float32.
_ERF_P32 = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32)
_ERF_Q32 = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)

# Float64: a degree-(13, 13) rational in t = z^2 on [0, 36], that is |z| <= 6,
# beyond which erf(z) rounds to +-1 in float64. Fitted to erf(sqrt(t))/sqrt(t)
# in relative error by Lawson-reweighted linearized least squares (11
# reweightings, 60-digit mpmath, 278 Chebyshev extrema in s = t/18 - 1, then
# expanded in t with Q's constant term scaled to 1). Its max relative error
# in exact arithmetic is 3.0e-18; float64 Horner roundoff, up to ~1e-15
# absolute near erf = 1, is what bounds the kernel. In float64 the rational
# rounds to exactly 1 at z = 6.
_ERF_P64 = np.array([-2.1685059861292734e-19, -2.437583923607552e-16, -5.612812914763312e-15,
                     2.244563832874947e-12, 1.1775577328416102e-10, 5.450198740044666e-09,
                     1.3351171432386769e-07, 3.390763515991802e-06, 4.806405164569089e-05,
                     0.000786839653870046, 0.006139978064063747, 0.06371518801605373,
                     0.2065767253365735, 1.1283791670955126])
_ERF_Q64 = np.array([-1.1369196903361172e-17, -2.4828960947212644e-15, 1.6014499650694675e-13,
                     1.7290762038240204e-11, 8.483465907332628e-10, 2.8055324716403486e-08,
                     6.9367070521429e-07, 1.3305882197454998e-05, 0.00019984507213736721,
                     0.0023287471009670463, 0.02047750041273831, 0.1286018450129294,
                     0.516407189498464, 1.0])

# dtype -> (clip bound for z, P, Q)
_ERF_TABLES = {
    np.dtype(np.float32): (4.0, _ERF_P32, _ERF_Q32),
    np.dtype(np.float64): (6.0, _ERF_P64, _ERF_Q64),
}


# Elements per pass of the erf kernel. Blocks this size keep the three scratch
# buffers (64 KiB each in float32, 128 KiB in float64) in cache. On a 2-vCPU
# Xeon, float32 (128, 261, 128) took 25-37 ms blocked, 60-81 ms whole-array.
# Outside ``train``'s heap settings, freed whole-array temporaries page-fault
# on every call too: (128, 21, 128) took 1.8-2.2 ms blocked, 3.6-4.8 ms whole.
# At 1-6 blocks the loop costs up to ~35%: (64, 17, 32) took 0.21-0.33 ms
# blocked, 0.15-0.23 ms whole.
_ERF_BLOCK = 16384


def _erf(z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """erf(scale * z) of a float32 or float64 array, in its own dtype.

    Within 8 ulp (float32) or 10 ulp (float64) of the rounded erf of the
    product. Exactly odd, exact at +-0 and +-inf (+-1), NaN in NaN out.
    Dividing P by Q before multiplying by z keeps subnormal inputs within
    1 ulp. The rational may exceed 1 by an ulp or two near the clip bound,
    so the result is clipped to [-1, 1]. The product is rounded to z's dtype
    block by block, exactly as a whole-array ``z * scale`` would be, without
    building one.
    """
    flat = np.ascontiguousarray(z).reshape(-1)
    bound, p_coefs, q_coefs = _ERF_TABLES[flat.dtype]
    scale = flat.dtype.type(scale)
    out = np.empty_like(flat)
    scratch = [np.empty(min(flat.size, _ERF_BLOCK), dtype=flat.dtype) for _ in range(3)]
    for start in range(0, flat.size, _ERF_BLOCK):
        p = out[start : start + _ERF_BLOCK]
        zc, z2, q = (buf[: p.size] for buf in scratch)
        np.multiply(flat[start : start + p.size], scale, out=zc)
        np.clip(zc, -bound, bound, out=zc)
        np.multiply(zc, zc, out=z2)
        _horner(p_coefs, z2, p)
        p /= _horner(q_coefs, z2, q)
        p *= zc
        np.clip(p, -1.0, 1.0, out=p)
    return out.reshape(np.shape(z))


def _horner(coefs: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Polynomial with ``coefs`` (highest degree first) at ``x``, by Horner's
    rule in place in ``out``."""
    out.fill(coefs[0])
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def gelu(a) -> Tensor:
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF.

    erf comes from ``_erf`` in the input's dtype: within 8 ulp in float32
    (GELU itself within 8 ulp of |x| of the float64 value) and 10 ulp in
    float64.
    """
    a = _as_tensor(a)
    x = a.data
    cdf = _erf(x, _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5

    def backward(g):
        # g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi), in one buffer
        grad = np.multiply(x, -0.5, out=np.empty_like(x))
        grad *= x
        np.exp(grad, out=grad)
        grad *= _INV_SQRT_2PI
        grad *= x
        grad += cdf
        grad *= g
        return (grad,)

    return _make(x * cdf, (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input was in range."""
    a = _as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        return (g * inside,)

    return _make(out_data, (a,), backward)


def clamp_min(a, lo: float) -> Tensor:
    return clamp(a, lo, np.inf)


def _softmax_last_axis(filled: np.ndarray) -> np.ndarray:
    e = filled - _max_last(filled)
    np.exp(e, out=e)
    e /= _sum_last(e)
    return e


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient ``(g - sum(g * p)) * p`` of the logits of softmax weights
    ``p`` whose gradient is ``g``, in one new buffer."""
    grad = g * p
    np.subtract(g, _sum_last(grad), out=grad)
    grad *= p
    return grad


def softmax(a) -> Tensor:
    """Numerically stable softmax along the last axis."""
    a = _as_tensor(a)
    p = _softmax_last_axis(a.data)
    return _make(p, (a,), lambda g: (_softmax_backward(p, g),))


def masked_softmax(scores, mask) -> Tensor:
    """Softmax along the last axis with binary masking.

    Positions where ``mask == 0`` have their logits replaced by MASK_FILL
    before the softmax, so they receive exactly zero weight (the exponential
    underflows). The mask must be a 0/1-valued array, not a Tensor,
    broadcastable to ``scores``; a row of all zeros has nothing to attend to
    and raises AllMaskedRow.
    """
    scores = _as_tensor(scores)
    m = np.asarray(mask)
    masked = m == 0
    if not np.all(masked | (m == 1)):
        raise NonBinary("mask entries must be exactly 0 or 1")
    if np.any(np.all(masked, axis=-1)):
        raise AllMaskedRow("mask contains a row with no available position")
    filled = np.where(masked, MASK_FILL, scores.data)
    p = _softmax_last_axis(filled)
    # p is exactly 0 at masked positions, so the softmax Jacobian already
    # sends zero gradient to their logits.
    return _make(p, (scores,), lambda g: (_softmax_backward(p, g),))


def attention(qkv, heads: int, mask=None, first_only: bool = False) -> tuple[Tensor, Tensor]:
    """Multi-head scaled dot-product self-attention as one tape record.

    ``qkv`` is (n, t, 3 * d): the query, key and value projections packed
    along the last axis. Each is split into ``heads`` heads of width
    d_h = d / heads. The scores ``q @ k^T / sqrt(d_h)`` of every head go
    through ``softmax``, or ``masked_softmax`` when the (n, t) key ``mask``
    is given (no query weights a token whose entry is 0; another shape
    raises DimensionMismatch), to weights over the key axis, which mix the
    values; the heads are then merged. Returns ``(mixed, probs)``: the merged
    head outputs (n, r, d), recorded on the tape, and the attention weights
    (n, heads, r, t) as a constant, gradient-free Tensor.

    r is t, or 1 with ``first_only``: then only the first token acts as a
    query, every token still serves as a key and a value, and the other
    query slots of ``qkv`` get zero gradient. Each output row depends on its
    own query only, so the result is the first row of full attention.

    The head split and merge are views and reshapes, and the softmax runs
    on a plain array, so none of them records anything. The backward pass
    runs the value mix, the softmax Jacobian and the scores in reverse and
    returns one packed ``qkv`` gradient. It reuses the stored weights
    instead of recomputing them from ``qkv``: they hold n * heads * r * t
    values against the n * t * 3d of ``qkv``, fewer whenever
    heads * r < 3d, as in the encoders here.
    """
    qkv = _as_tensor(qkv)
    if qkv.data.ndim != 3 or qkv.data.shape[-1] % (3 * heads) != 0:
        raise DimensionMismatch(
            f"attention needs packed (n, t, 3 * d) projections with d divisible by "
            f"heads={heads}, got {qkv.data.shape}"
        )
    n, t, d3 = qkv.data.shape
    if mask is not None and np.shape(mask) != (n, t):
        raise DimensionMismatch(f"attention's key mask is {np.shape(mask)}, not {(n, t)}")
    r = 1 if first_only else t
    d = d3 // 3
    d_h = d // heads
    scale = qkv.data.dtype.type(1.0 / math.sqrt(d_h))
    # (3, n, heads, t, d_h) views of the packed projections
    q, k, v = qkv.data.reshape(n, t, 3, heads, d_h).transpose(2, 0, 3, 1, 4)
    if first_only:
        q = q[:, :, :1]
    scores = (q @ _swap_last(k)) * scale
    if mask is None:
        probs = softmax(scores)
    else:
        probs = masked_softmax(scores, np.asarray(mask)[:, None, None, :])
    p = probs.data

    def backward(g):
        g_heads = g.reshape(n, r, heads, d_h).transpose(0, 2, 1, 3)
        g_qkv = np.empty((n, t, 3, heads, d_h), dtype=scale.dtype)
        # the products land in (n, heads, t, d_h) views of the packed gradient
        g_q, g_k, g_v = g_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(_swap_last(p), g_heads, out=g_v)
        g_scores = _softmax_backward(p, g_heads @ _swap_last(v))
        g_scores *= scale
        np.matmul(g_scores, k, out=g_q[:, :, :r])
        g_q[:, :, r:] = 0.0
        np.matmul(_swap_last(g_scores), q, out=g_k)
        return (g_qkv.reshape(n, t, d3),)

    mixed = (p @ v).transpose(0, 2, 1, 3).reshape(n, r, d)
    return _make(mixed, (qkv,), backward), probs


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows, ``(a * b).sum(-1)``, as
    (1, k) @ (k, 1) products: no elementwise temporary."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def shared_token_attention(proj, n: int, heads: int, first_only: bool = False) -> Tensor:
    """Attention over [one sample token, c tokens shared by every sample], as
    one tape record.

    ``proj`` is (n + c, 3 * d): the packed query/key/value projections of n
    sample tokens followed by c shared tokens. The result equals
    ``attention(qkv, heads, first_only=first_only)[0]`` up to rounding, where
    ``qkv`` (n, c + 1, 3 * d) puts each sample's row in front of the c shared
    rows, but no per-sample copy of the shared rows and no
    (n, heads, c + 1, c + 1) scores are built. Per head:

    - the shared block runs once: S = Q_c K_c^T / sqrt(d_h), its ``softmax``
      P_c, its log-sum-exp L and A = P_c V_c;
    - shared row i of sample j merges the one extra key k_0(j) into that
      block by the log-sum-exp rescaling of the online softmax:
      A_i + w_ij (v_0(j) - A_i), with w_ij = sigmoid(q_i . k_0(j) / sqrt(d_h) - L_i);
    - row 0 is an ordinary softmax over [k_0(j), K_c].

    ``first_only`` is as in ``attention``: only row 0 is computed, and the
    shared block not at all. The backward pass reuses P_c, A, w and the
    row-0 weights of the forward pass.
    """
    proj = _as_tensor(proj)
    if proj.data.ndim != 2 or proj.data.shape[-1] % (3 * heads) != 0:
        raise DimensionMismatch(
            f"shared_token_attention needs packed (n + c, 3 * d) projections with d divisible "
            f"by heads={heads}, got {proj.data.shape}"
        )
    rows, d3 = proj.data.shape
    if not 1 <= n <= rows - 1:
        raise DimensionMismatch(f"n={n} must lie in [1, {rows - 1}] for {rows} rows")
    c = rows - n
    r = 1 if first_only else c + 1
    d = d3 // 3
    d_h = d // heads
    dtype = proj.data.dtype
    scale = dtype.type(1.0 / math.sqrt(d_h))
    # (3, heads, n + c, d_h) views of the packed projections
    q, k, v = proj.data.reshape(rows, 3, heads, d_h).transpose(1, 2, 0, 3)
    q0, k0, v0 = q[:, :n], k[:, :n], v[:, :n]
    qc, kc, vc = q[:, n:], k[:, n:], v[:, n:]

    out = np.empty((n, r, d), dtype)
    heads_out = out.reshape(n, r, heads, d_h).transpose(2, 0, 1, 3)  # (heads, n, r, d_h)
    # row 0: each sample's query over its own key, then the c shared keys
    scores0 = np.empty((heads, n, 1 + c), dtype)
    scores0[..., 0] = _row_dot(q0, k0)
    np.matmul(q0, _swap_last(kc), out=scores0[..., 1:])
    scores0 *= scale
    p0 = softmax(scores0).data
    np.matmul(p0[..., 1:], vc, out=heads_out[:, :, 0])
    heads_out[:, :, 0] += p0[..., :1] * v0
    if not first_only:
        # the shared block, once per call
        s_c = (qc @ _swap_last(kc)) * scale
        p_c = softmax(s_c).data
        # a row's largest weight is exp(0) / Z, so L = max(S) + log Z = max(S) - log max(P_c)
        lse = (_max_last(s_c) - np.log(_max_last(p_c)))[..., 0]
        a = p_c @ vc  # (heads, c, d_h)
        # weight of each sample's own key in each shared row: (heads, n, c)
        w = (k0 @ _swap_last(qc)) * scale
        w -= lse[:, None, :]
        w = _sigmoid(w)
        # A_i + w_ij (v_0(j) - A_i), in the output's own (n, c, heads, d_h)
        # order, which numpy walks several times faster than the head-major one
        a_rows = np.ascontiguousarray(a.transpose(1, 0, 2))
        shared_out = out.reshape(n, r, heads, d_h)[:, 1:]
        np.subtract(v0.transpose(1, 0, 2)[:, None], a_rows, out=shared_out)
        shared_out *= w.transpose(1, 2, 0)[..., None]
        shared_out += a_rows

    def backward(g):
        g_heads = g.reshape(n, r, heads, d_h).transpose(2, 0, 1, 3)  # (heads, n, r, d_h)
        g_proj = np.empty((rows, 3, heads, d_h), dtype)
        # (heads, n + c, d_h) views of the packed gradient
        g_q, g_k, g_v = g_proj.transpose(1, 2, 0, 3)
        g0 = g_heads[:, :, 0]
        g_p0 = np.empty_like(p0)
        g_p0[..., 0] = _row_dot(g0, v0)
        np.matmul(g0, _swap_last(vc), out=g_p0[..., 1:])
        g_s0 = _softmax_backward(p0, g_p0)
        g_s0 *= scale
        np.matmul(g_s0[..., 1:], kc, out=g_q[:, :n])
        g_q[:, :n] += g_s0[..., :1] * k0
        np.multiply(g_s0[..., :1], q0, out=g_k[:, :n])
        np.matmul(_swap_last(g_s0[..., 1:]), q0, out=g_k[:, n:])
        np.multiply(p0[..., :1], g0, out=g_v[:, :n])
        np.matmul(_swap_last(p0[..., 1:]), g0, out=g_v[:, n:])
        if first_only:
            g_q[:, n:] = 0.0
        else:
            # (heads, c, n, d_h): shared row i's gradient over the samples
            g_rows = g_heads[:, :, 1:].transpose(0, 2, 1, 3)
            g_v[:, :n] += (w[:, :, None, :] @ g_heads[:, :, 1:])[:, :, 0]
            g_a = ((1.0 - _swap_last(w))[..., None, :] @ g_rows)[:, :, 0]  # (heads, c, d_h)
            # gradient of w: g_ij . (v_0(j) - A_i), then through the sigmoid
            g_w = (g_heads[:, :, 1:] @ v0[..., None])[..., 0]
            g_w -= _swap_last((g_rows @ a[..., None])[..., 0])
            g_w *= w
            g_w *= 1.0 - w
            g_lse = -(np.ones(n, dtype) @ g_w)  # (heads, c): column sums over the samples
            g_w *= scale
            g_k[:, :n] += g_w @ qc
            # the shared block: A = P_c V_c and L = logsumexp(S), dL/dS = P_c
            g_v[:, n:] += _swap_last(p_c) @ g_a
            g_s = _softmax_backward(p_c, g_a @ _swap_last(vc))
            g_s += g_lse[..., None] * p_c
            g_s *= scale
            np.matmul(_swap_last(g_w), k0, out=g_q[:, n:])
            g_q[:, n:] += g_s @ kc
            g_k[:, n:] += _swap_last(g_s) @ qc
        return (g_proj.reshape(rows, d3),)

    return _make(out, (proj,), backward)


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
    d = x.data.shape[-1]
    x_hat = x.data - _sum_last(x.data) / d
    var = _row_dot(x_hat, x_hat)[..., None]
    var /= d
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std
    gain_data, bias_shape = gain.data, bias.data.shape
    out_data = x_hat * gain_data
    out_data += bias.data

    def backward(g):
        # inv_std * (g_x - mean(g_x) - x_hat * mean(g_x * x_hat)), g_x = g * gain
        g_x = g * gain_data
        work = g_x * x_hat
        proj = _sum_last(work) / d
        g_x -= _sum_last(g_x) / d
        g_x -= np.multiply(x_hat, proj, out=work)
        g_x *= inv_std
        g_gain = _unbroadcast(np.multiply(g, x_hat, out=work), gain_data.shape)
        return g_x, g_gain, _unbroadcast(g, bias_shape)

    return _make(out_data, (x, gain, bias), backward)


def dropout(x, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale kept values by
    1/(1-rate) so the expected output equals the input. Passing ``rng`` is
    what turns dropout on: without a generator, or at rate 0, it is the
    identity and draws nothing.

    The mask comes from 32-bit draws: the k = x.size elements take the
    32-bit halves of ``(k + 1) // 2`` raw 64-bit words of ``rng``'s bit
    generator (low half first on a little-endian host), and an element is
    kept where its half is below ``min(round(keep * 2**32), 2**32 - 1)``. So
    the keep probability is exact to 2**-32, and a seeded generator gives
    the same mask on every run. The backward pass reuses the boolean mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if rng is None or rate == 0.0:
        return x
    keep = 1.0 - rate
    threshold = np.uint32(min(round(keep * 2**32), 2**32 - 1))
    k = x.data.size
    words = rng.bit_generator.random_raw((k + 1) // 2).view(np.uint32)[:k]
    mask = (words < threshold).reshape(x.data.shape)
    dtype = x.data.dtype.type
    inv_keep = dtype(1.0) / dtype(keep)

    def backward(g):
        grad = np.multiply(g, mask)
        grad *= inv_keep
        return (grad,)

    out = np.multiply(x.data, mask)
    out *= inv_keep
    return _make(out, (x,), backward)


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
