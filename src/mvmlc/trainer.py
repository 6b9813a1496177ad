"""Training loop: Adam optimization of the full objective, plus evaluation.

Everything is seeded through one master seed (parameter init, epoch
shuffling, dropout draws), so a (seed, config, data) triple reproduces
bit-identical parameters, history, and reports within a precision mode and
a BLAS thread count. The thread count matters because OpenBLAS splits a
GEMM's sums differently across threads: the same run with
``OPENBLAS_NUM_THREADS=1`` and with 2 can end on losses that differ in the
last digits. The same holds for the row and column sums of softmax, layer
norm and the bias gradients, which ``autodiff`` takes as BLAS
matrix-vector products: within one thread count they are reproducible too.

Label similarity constants are computed per batch, over the batch's rows
only. A step computes only what a loss reads: ``forward`` gets the batch's
view mask and label mask, so the view encoder runs over the present views
and the class-token tail and heads over the known labels (see ``model``);
evaluation passes no label mask. Every step computes all three loss terms
of ``objective`` on the tape, for the history; ``total_loss`` leaves a
zero-weight term out of the sum, so its records get no gradient and
backward skips them. A zero-alpha run thus updates parameters exactly like
a run that never builds the graph term.

Heap: a step's activations are freed within the step, and the next step
allocates them again. Those no backward reads go during the forward pass,
as soon as the model drops them, because tape records hold gradient slots
and saved arrays, not tensors; ``Tape.backward`` frees the rest during its
sweep. So that glibc reuses that memory instead of faulting it in anew each
step, ``train`` sets two ``mallopt`` values once per process, through
``ctypes``:

- ``M_TRIM_THRESHOLD`` at 1 GiB: up to 1 GiB of freed heap stays resident
  instead of going back to the kernel.
- ``M_MMAP_THRESHOLD`` at 32 MiB, the ceiling of glibc's adaptive mmap
  threshold: arrays below it come from the heap. Any ``mallopt`` call
  freezes the adaptive threshold where the process's history left it, and
  at the paper's label scale (c = 260) that made each 17 MB activation a
  fresh ``mmap``, so the threshold is set too.

The settings are process-wide and stay in force after ``train`` returns.
Where glibc's ``mallopt`` is missing (macOS, Windows, musl's stub) the call
does nothing. The allocator changes only where arrays live, never their
values.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import MultiViewDataset
from .errors import DegenerateMask, DimensionMismatch, NonFiniteLoss
from .losses import LossContext, graph_constraint_loss, masked_bce, total_loss
from .metrics import MetricsReport, compute_report
from .model import ForwardPass, ModelConfig, ModelParams, forward

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per forward pass in evaluate; scores depend on it only up to float32
# rounding
EVAL_BATCH_SIZE = 2048
# glibc's mallopt parameter numbers, and the values train sets for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_SETTINGS = ((_M_TRIM_THRESHOLD, 1 << 30), (_M_MMAP_THRESHOLD, 32 << 20))


@functools.cache
def keep_freed_heap() -> bool:
    """Apply ``HEAP_SETTINGS`` through glibc's ``mallopt``, once per process.

    Returns whether glibc accepted them all; False where the C library has
    no ``mallopt`` (nothing changes) or refuses a setting.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a list, not a generator: every setting is tried even if one is refused
    return all([mallopt(param, value) == 1 for param, value in HEAP_SETTINGS])


@dataclass
class TrainConfig:
    """Optimization hyperparameters and run plumbing. ``batch_size`` caps a
    batch: an epoch over n >= 2 labelled rows runs ceil(n / batch_size)
    batches of near-equal size, but never more than n // 2, so no batch has
    a single row. The cap binds only at batch_size 2 with n odd, where one
    batch of 3 rows takes the place of a one-row tail."""

    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    alpha: float = 10.0
    beta: float = 0.1
    seed: int = 0
    eval_every: int = 0          # 0 disables periodic evaluation

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (pair losses need pairs)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("penalty coefficients must be non-negative")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 disables periodic evaluation)")


class AdamState:
    """The parameters and their first/second moment estimates as flat
    vectors, plus the step counter.

    Creating the state copies every parameter into one flat vector and
    rebinds each ``p.data`` to a view of it, so ``adam_step`` updates all
    parameters in place with a few vectorized passes however many
    parameters the model has. The moments live in two flat buffers in the
    same layout; ``m[name]`` and ``v[name]`` are views of them. Two more
    flat buffers hold the gradient and the update, so a step allocates no
    array of the model's size.
    """

    def __init__(self, params: ModelParams):
        self.step = 0
        self.layout = [(name, t.data.shape) for name, t in params.items()]
        self.flat_p = np.concatenate([t.data.reshape(-1) for _, t in params.items()])
        self.flat_m, self.flat_v, self.flat_g, self.work = (
            np.zeros_like(self.flat_p) for _ in range(4))
        self.p = self.views(self.flat_p)
        self.m = self.views(self.flat_m)
        self.v = self.views(self.flat_v)
        for name, t in params.items():
            t.data = self.p[name]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views of a flat vector in this state's layout."""
        out, start = {}, 0
        for name, shape in self.layout:
            size = math.prod(shape)
            out[name] = flat[start : start + size].reshape(shape)
            start += size
        return out


def adam_step(params: ModelParams, grads: dict, state: AdamState, config: TrainConfig):
    """One bias-corrected Adam update; deterministic given its inputs.

    Every parameter is updated in place in one pass over the flat vectors,
    with the same elementwise arithmetic as a per-parameter loop. A
    parameter whose ``data`` was rebound since the last step is copied back
    into the flat vector first. A missing gradient counts as zero.
    """
    flat_g = []
    for (name, p), (_, shape) in zip(params.items(), state.layout, strict=True):
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != shape or p.data.shape != shape:
            raise DimensionMismatch(f"gradient for {name} has shape {g.shape}, parameter "
                                    f"{p.data.shape}, Adam state {shape}")
        if p.data is not state.p[name]:
            state.p[name][...] = p.data
            p.data = state.p[name]
        flat_g.append(g.reshape(-1))
    g = np.concatenate(flat_g, out=state.flat_g)

    state.step += 1
    t = state.step
    lr, b1, b2, eps = config.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    m, v, work = state.flat_m, state.flat_v, state.work
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, through one work buffer
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=work)
    v *= b2
    np.multiply(g, g, out=work)
    work *= 1.0 - b2
    v += work
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps); g is free now
    denom = np.sqrt(np.divide(v, 1.0 - b2**t, out=work), out=work)
    denom += eps
    update = np.divide(m, 1.0 - b1**t, out=g)
    update /= denom
    update *= lr
    state.flat_p -= update


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    l_mc: float
    l_gc: float
    l_ac: float
    view_weights: list[float]
    eval_report: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunHistory:
    """One record per completed epoch, serializable as JSON lines."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def final(self) -> EpochRecord:
        return self.records[-1]

    def save_jsonl(self, path):
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "RunHistory":
        records = []
        for line in Path(path).read_text().splitlines():
            d = json.loads(line)
            records.append(EpochRecord(**d))
        return cls(records)


def _batch_views(ds: MultiViewDataset, idx: np.ndarray | slice):
    return [x[idx] for x in ds.views]


def objective(out: ForwardPass, labels, label_mask, view_mask, label_sim, pair_valid,
              alpha: float, beta: float):
    """The objective of one forward pass: (``total_loss``, l_mc, l_gc, l_ac).

    ``out`` must come from ``forward`` with this ``label_mask``: l_ac is the
    BCE of its K known token logits, the mean over those K entries, which
    equals ``masked_bce`` of the (n, c) token logits under the mask. The
    loss functions are looked up as module globals at each call, so a run
    can swap them out.
    """
    l_mc = masked_bce(out.main_logits, labels, label_mask)
    if not all(np.array_equal(a, b) for a, b in zip(out.known, np.nonzero(label_mask))):
        raise DimensionMismatch("the forward pass scored other label entries than label_mask's")
    known_labels = np.asarray(labels)[out.known]
    l_ac = masked_bce(out.token_logits, known_labels, np.ones_like(known_labels))
    l_gc = graph_constraint_loss(out.view_states, label_sim, pair_valid, view_mask)
    return total_loss(l_mc, l_gc, l_ac, alpha, beta), l_mc, l_gc, l_ac


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    dataset: MultiViewDataset,
    eval_dataset: MultiViewDataset | None = None,
) -> tuple[ModelParams, RunHistory]:
    """Optimize a fresh model on the dataset; returns (params, history).

    Rows with no known label add nothing to any loss, so they are left out
    once, up front: n counts the labelled rows kept, and fewer than two kept
    raises ``DegenerateMask``, since the pair losses need pairs. Each epoch
    splits one permutation of them into ``TrainConfig``'s near-equal
    batches. Non-finite losses abort with the failing step in the message.
    An ``eval_dataset`` whose view widths or label count differ from the
    training set's raises ``DimensionMismatch`` before the first step.
    The first call in a process sets glibc's heap thresholds (see the module
    docstring), which outlive it.
    """
    if eval_dataset is not None and (eval_dataset.view_dims, eval_dataset.c) != (
            dataset.view_dims, dataset.c):
        raise DimensionMismatch(
            f"eval_dataset has view dims {eval_dataset.view_dims} and {eval_dataset.c} labels, "
            f"the training set {dataset.view_dims} and {dataset.c}")
    keep_freed_heap()
    labelled = dataset.label_mask.any(axis=1)
    if np.count_nonzero(labelled) < 2:
        raise DegenerateMask("fewer than two training rows have a known label")
    if not labelled.all():
        dataset = dataset.take(np.flatnonzero(labelled))
    seed_seq = np.random.SeedSequence(train_config.seed)
    init_seed, shuffle_seed, dropout_seed = seed_seq.spawn(3)
    params = ModelParams.initialize(
        model_config, dataset.view_dims, dataset.c,
        seed=int(init_seed.generate_state(1)[0]),
    )
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed)

    ctx = LossContext(dataset.labels, dataset.label_mask)
    state = AdamState(params)
    history = RunHistory()
    n = dataset.n
    n_batches = min(math.ceil(n / train_config.batch_size), n // 2)

    for epoch in range(train_config.epochs):
        order = shuffle_rng.permutation(n)
        sums = dict.fromkeys(("loss", "l_mc", "l_gc", "l_ac"), 0.0)
        for step, idx in enumerate(np.array_split(order, n_batches)):
            w_b, g_b = dataset.view_mask[idx], dataset.label_mask[idx]

            params.zero_grads()
            with Tape() as tape:
                # no name holds the forward pass, so backward frees its states
                terms = objective(forward(_batch_views(dataset, idx), w_b, params,
                                          rng=dropout_rng, label_mask=g_b),
                                  dataset.labels[idx], g_b, w_b,
                                  *ctx.batch(idx), train_config.alpha, train_config.beta)
                loss = terms[0]
                tape.backward(loss)

            if not np.isfinite(loss.data):
                raise NonFiniteLoss(f"epoch {epoch}, step {step}: loss={loss.item()}")
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            adam_step(params, grads, state, train_config)
            # every parameter is a view of the flat vector adam_step updates
            if not np.isfinite(state.flat_p).all():
                raise NonFiniteLoss(
                    f"epoch {epoch}, step {step}: non-finite parameter after update")

            for key, term in zip(sums, terms, strict=True):
                sums[key] += term.item() * len(idx)

        record = EpochRecord(
            epoch=epoch,
            **{key: total / n for key, total in sums.items()},
            view_weights=[float(a) for a in params["fusion.a"].data],
        )
        if (
            eval_dataset is not None
            and train_config.eval_every > 0
            and (epoch + 1) % train_config.eval_every == 0
        ):
            record.eval_report = evaluate(params, eval_dataset).to_dict()
        history.append(record)

    return params, history


def evaluate(params: ModelParams, dataset: MultiViewDataset) -> MetricsReport:
    """Score the main head on a dataset, with no dropout: the forward
    passes get no random generator.

    View availability is respected; labels are taken as full ground truth,
    so pass an uncorrupted split. The rows run ``EVAL_BATCH_SIZE`` at a
    time, as contiguous slices, so each forward pass reads views of the
    dataset's arrays, not copies. Samples are scored independently, so that
    size changes the scores only up to float32 rounding: a GEMM over more
    rows may split its sums differently, and two nearly tied scores may
    swap. Only the main head is ranked, so the forward pass gets no label
    mask: the last class layer computes the consensus query alone.
    """
    if params.n_labels != dataset.c:
        raise DimensionMismatch(
            f"the model predicts {params.n_labels} labels but the dataset has {dataset.c}")
    scores = np.empty((dataset.n, dataset.c))
    for start in range(0, dataset.n, EVAL_BATCH_SIZE):
        rows = slice(start, start + EVAL_BATCH_SIZE)
        out = forward(_batch_views(dataset, rows), dataset.view_mask[rows], params)
        scores[rows] = out.p_main.data
    if np.any(dataset.label_mask == 0):
        warnings.warn("evaluating against a dataset with masked labels; "
                      "metrics treat its zero-filled labels as ground truth")
    return compute_report(scores, dataset.labels,
                          meta={"n": dataset.n, "m": dataset.m, "c": dataset.c})
