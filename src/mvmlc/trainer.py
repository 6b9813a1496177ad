"""Training loop: Adam optimization of the full objective, plus evaluation.

Everything is seeded through one master seed (parameter init, epoch
shuffling, dropout draws), so a (seed, config, data) triple reproduces
bit-identical parameters, history, and reports within a precision mode.

Label similarity constants are computed per batch, over the batch's rows
only. Every step computes all three loss terms of ``objective`` on the tape,
for the history; ``total_loss`` leaves a zero-weight term out of the sum, so
its records get no gradient and backward skips them. A zero-alpha run thus
updates parameters exactly like a run that never builds the graph term.
"""

from __future__ import annotations

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


@dataclass
class TrainConfig:
    """Optimization hyperparameters and run plumbing."""

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


def _batch_views(ds: MultiViewDataset, idx: np.ndarray):
    return [x[idx] for x in ds.views]


def objective(out: ForwardPass, labels, label_mask, view_mask, label_sim, pair_valid,
              alpha: float, beta: float):
    """The objective of one forward pass: (``total_loss``, l_mc, l_gc, l_ac).

    The loss functions are looked up as module globals at each call, so a
    run can swap them out.
    """
    l_mc = masked_bce(out.main_logits, labels, label_mask)
    l_ac = masked_bce(out.token_logits, labels, label_mask)
    l_gc = graph_constraint_loss(out.view_states, label_sim, pair_valid, view_mask)
    return total_loss(l_mc, l_gc, l_ac, alpha, beta), l_mc, l_gc, l_ac


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    dataset: MultiViewDataset,
    eval_dataset: MultiViewDataset | None = None,
) -> tuple[ModelParams, RunHistory]:
    """Optimize a fresh model on the dataset; returns (params, history).

    A batch whose label mask is entirely zero is redrawn once; a second
    degenerate draw aborts. Non-finite losses abort with the failing step in
    the message.
    """
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

    for epoch in range(train_config.epochs):
        order = shuffle_rng.permutation(n)
        sums = dict.fromkeys(("loss", "l_mc", "l_gc", "l_ac"), 0.0)
        for start in range(0, n, train_config.batch_size):
            idx = order[start : start + train_config.batch_size]
            if dataset.label_mask[idx].sum() == 0:
                idx = shuffle_rng.choice(n, size=len(idx), replace=False)
                if dataset.label_mask[idx].sum() == 0:
                    raise DegenerateMask(
                        f"epoch {epoch}: batch has no known label even after resampling"
                    )
            w_b = dataset.view_mask[idx]

            params.zero_grads()
            with Tape() as tape:
                out = forward(_batch_views(dataset, idx), w_b, params, train=True,
                              rng=dropout_rng)
                terms = objective(out, dataset.labels[idx], dataset.label_mask[idx], w_b,
                                  *ctx.batch(idx), train_config.alpha, train_config.beta)
                loss = terms[0]
                tape.backward(loss)

            if not np.isfinite(loss.data):
                raise NonFiniteLoss(
                    f"epoch {epoch}, step {start // train_config.batch_size}: loss={loss.item()}"
                )
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            adam_step(params, grads, state, train_config)
            if not params.all_finite():
                raise NonFiniteLoss(
                    f"epoch {epoch}, step {start // train_config.batch_size}: "
                    "non-finite parameter after update"
                )

            # a redraw keeps the batch size, so the sizes sum to n per epoch
            k = len(idx)
            for key, term in zip(sums, terms, strict=True):
                sums[key] += term.item() * k

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


def evaluate(params: ModelParams, dataset: MultiViewDataset,
             batch_size: int = 512) -> MetricsReport:
    """Score the main head on a dataset in eval mode (no dropout).

    View availability is respected; labels are taken as full ground truth,
    so pass an uncorrupted split. Per-sample independence makes the batch
    size irrelevant to the result.
    """
    scores = np.empty((dataset.n, dataset.c))
    for start in range(0, dataset.n, batch_size):
        idx = np.arange(start, min(start + batch_size, dataset.n))
        out = forward(_batch_views(dataset, idx), dataset.view_mask[idx], params, train=False)
        scores[idx] = out.p_main.data
    if np.any(dataset.label_mask == 0):
        warnings.warn("evaluating against a dataset with masked labels; "
                      "metrics treat its zero-filled labels as ground truth")
    return compute_report(scores, dataset.labels,
                          meta={"n": dataset.n, "m": dataset.m, "c": dataset.c})
