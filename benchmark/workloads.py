"""The benchmark's workloads and the measured run of one of them.

Every workload trains and evaluates, so every metric is measured on each of
them, but each spends its time on a different part of the program. A run
repeats iterations of set-up followed by:

* for train-small and train-labels, a training run of a fixed number of
  epochs, a checkpoint round trip and evaluations of the held-out rows;
* for eval-rank, whose set-up trains briefly, one evaluation pass over a
  large table.

Training runs use a fixed epoch count, never a time limit, so final_loss and
heldout_ap depend on the seed alone and a faster program is not rewarded
with a better model.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mvmlc import data, metrics, model, trainer
from mvmlc.model import ModelConfig
from mvmlc.trainer import TrainConfig

import oracle
from tracing import Tracer, instrument, patched, per_layer

MISSING_RATIO = 0.3       # share of views and of training labels removed
TRAIN_RATIO = 0.7
D_LATENT = 8
HEADS = 4
ORACLE_ROWS = 64          # rows of each evaluation checked by brute force
HELD_OUT_ROWS = 512       # rows evaluated after each training run, in whole passes
MIN_TAIL_BEYOND = 10      # samples the tail percentile must leave above it


@dataclass(frozen=True)
class Workload:
    name: str
    n: int            # rows the model trains on (before the split, if any)
    m: int            # views
    c: int            # labels
    d_e: int
    batch: int
    epochs: int       # epochs per training run
    eval_rows: int = 0  # >0: score this many fresh rows; no held-out split

    @property
    def view_dims(self) -> list[int]:
        return [16 + 8 * v for v in range(self.m)]


WORKLOADS = {w.name: w for w in (
    Workload("train-small", n=512, m=3, c=4, d_e=32, batch=64, epochs=5),
    Workload("train-labels", n=1024, m=6, c=20, d_e=128, batch=128, epochs=2),
    Workload("eval-rank", n=1024, m=4, c=16, d_e=32, batch=64, epochs=1, eval_rows=16384),
)}


@dataclass
class Ledger:
    """What the untraced, or the traced, iterations of a run did and how
    long it took."""

    setup_s: list[float] = field(default_factory=list)
    train_runs: list[tuple[float, int, float]] = field(default_factory=list)  # s, samples, loss
    step_ms: list[float] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)
    passes: list[tuple[float, int, float]] = field(default_factory=list)      # s, rows, AP
    reports: list = field(default_factory=list)   # (scores, labels) given to compute_report
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool):
        self.checks += 1
        if not ok:
            self.failures.append(what)

    @property
    def attempted(self) -> int:
        return len(self.step_ms) + len(self.passes) + self.checks


@contextlib.contextmanager
def probe(ledger: Ledger):
    """Cheap hooks, on in every run: step times, step losses, and the scores
    evaluate() ranks. A step ends when adam_step returns; the first step of
    a training run starts when its optimizer state is created."""
    adam_state, adam_step = trainer.AdamState, trainer.adam_step
    total_loss, compute_report = trainer.total_loss, trainer.compute_report
    last = [0.0]

    def start_steps(params):
        state = adam_state(params)
        last[0] = perf_counter()
        return state

    def timed_step(*args, **kwargs):
        adam_step(*args, **kwargs)
        now = perf_counter()
        ledger.step_ms.append(1e3 * (now - last[0]))
        last[0] = now

    def kept_loss(*args, **kwargs):
        loss = total_loss(*args, **kwargs)
        ledger.step_losses.append(float(loss.data))
        return loss

    def kept_report(scores, labels, meta=None):
        ledger.reports.append((scores, labels))
        return compute_report(scores, labels, meta)

    with patched(trainer, AdamState=start_steps, adam_step=timed_step,
                 total_loss=kept_loss, compute_report=kept_report):
        yield


def _phase(tracer: Tracer | None, name: str):
    return tracer.in_phase(name) if tracer else contextlib.nullcontext()


def _seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]


def set_up(w: Workload, seed: int, workdir: Path, ledger: Ledger, tracer: Tracer | None):
    """Synthesize, corrupt and split; eval-rank also trains and reloads a model.

    Labels are removed from training rows only: evaluate() takes the labels
    it scores against as ground truth.
    """
    start = perf_counter()
    synth_seed, view_seed, split_seed, label_seed = _seeds(seed)
    rows = w.n + w.eval_rows
    ds = data.make_synthetic(rows, w.m, w.c, D_LATENT, w.view_dims, seed=synth_seed)
    ds = data.apply_masks(ds, view_mask=data.simulate_missing_views(rows, w.m, MISSING_RATIO,
                                                                     view_seed))
    if w.eval_rows:
        train_ds, eval_ds = ds.take(np.arange(w.n)), ds.take(np.arange(w.n, rows))
    else:
        train_ds, eval_ds = data.split(ds, TRAIN_RATIO, split_seed)
    train_ds = data.apply_masks(
        train_ds,
        label_mask=data.simulate_missing_labels(train_ds.labels, MISSING_RATIO, label_seed),
    )
    params = train_and_reload(w, train_ds, seed, workdir, ledger, tracer) if w.eval_rows else None
    ledger.setup_s.append(perf_counter() - start)
    return train_ds, eval_ds, params


def train_and_reload(w: Workload, train_ds, seed: int, workdir: Path, ledger: Ledger,
                     tracer: Tracer | None):
    """One training run, then a save / load round trip of its parameters."""
    config = ModelConfig(d_e=w.d_e, heads=HEADS)
    first_loss = len(ledger.step_losses)
    with _phase(tracer, "train"):
        start = perf_counter()
        params, history = trainer.train(config, TrainConfig(epochs=w.epochs, batch_size=w.batch,
                                                            seed=seed), train_ds)
        elapsed = perf_counter() - start
    ledger.train_runs.append((elapsed, w.epochs * train_ds.n, history.final().loss))
    for loss in ledger.step_losses[first_loss:]:
        ledger.check("step loss is finite", math.isfinite(loss))
    ledger.check("parameters are finite", params.all_finite())
    ledger.check("training reproduces the first run's loss",
                 ledger.train_runs[-1][2] == ledger.train_runs[0][2])

    path = workdir / "model.npz"
    model.save_checkpoint(params, path)
    loaded = model.load_checkpoint(path)
    ledger.check("checkpoint round trip is bit-exact",
                 loaded.names() == params.names()
                 and all(np.array_equal(loaded[k].data, params[k].data) for k in params.names()))
    return loaded


def score(params, eval_ds, ledger: Ledger, tracer: Tracer | None):
    """One timed evaluate() pass, then checks on the scores it ranked."""
    with _phase(tracer, "eval"):
        start = perf_counter()
        report = trainer.evaluate(params, eval_ds)
        elapsed = perf_counter() - start
    ledger.passes.append((elapsed, eval_ds.n, report.ap))
    scores, labels = ledger.reports.pop()
    ledger.check("p_main lies in [0, 1]", bool(np.all((scores >= 0.0) & (scores <= 1.0))))
    ledger.check("evaluation reproduces the first pass's AP", report.ap == ledger.passes[0][2])

    rows = np.unique(np.linspace(0, len(scores) - 1, ORACLE_ROWS).astype(int))
    s, y = scores[rows], labels[rows]
    sub = metrics.compute_report(s, y)
    for got, want, what in ((sub.ap, oracle.average_precision(s, y), "AP"),
                            (sub.one_minus_rl, oracle.one_minus_ranking_loss(s, y), "1-RL"),
                            (sub.auc, oracle.macro_auc(s, y), "AUC")):
        ledger.check(f"{what} matches the brute-force oracle",
                     math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12))


def iterate(w: Workload, seed: int, workdir: Path, ledger: Ledger, tracer: Tracer | None):
    """One set-up, then the workload's timed unit.

    Set-up is repeated, not done once, so that setup_s is a median and so
    that eval-rank's set-up training is sampled across the whole run: the
    host's speed changes over seconds.
    """
    train_ds, eval_ds, params = set_up(w, seed, workdir, ledger, tracer)
    if w.eval_rows:
        score(params, eval_ds, ledger, tracer)
    else:
        params = train_and_reload(w, train_ds, seed, workdir, ledger, tracer)
        for _ in range(math.ceil(HELD_OUT_ROWS / eval_ds.n)):
            score(params, eval_ds, ledger, tracer)


def measure(w: Workload, seed: int, seconds: float, workdir: Path,
            tracer: Tracer | None = None) -> tuple[Ledger, Ledger]:
    """Iterate until ``seconds`` have passed (at least once); return the
    untraced ledger and the traced one.

    With a tracer, iterations alternate between untraced and traced (ending
    on a traced one), so both halves see the same host speed and their
    difference is the tracing overhead. Without one the traced ledger stays
    empty.
    """
    untraced, traced = Ledger(), Ledger()
    deadline = perf_counter() + seconds
    for turn in itertools.count():
        tracing = tracer is not None and turn % 2 == 1
        ledger = traced if tracing else untraced
        with contextlib.ExitStack() as stack:
            if tracing:
                stack.enter_context(instrument(tracer))
            stack.enter_context(probe(ledger))
            iterate(w, seed, workdir, ledger, tracer if tracing else None)
        if perf_counter() >= deadline and (tracer is None or tracing):
            break
    return untraced, traced


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least MIN_TAIL_BEYOND samples
    above it (nearest rank), and that percentile. Falls back to the maximum
    when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100
    q = math.floor(100 * (n - MIN_TAIL_BEYOND) / n)
    while n - math.ceil(q * n / 100) < MIN_TAIL_BEYOND:
        q -= 1
    return ordered[max(math.ceil(q * n / 100) - 1, 0)], q


def _rate(runs) -> float:
    """Items per second over all runs together: the host's speed changes by
    up to half within seconds, and a total averages that where a median of
    per-run rates jumps between its fast and slow states."""
    return sum(k for _, k, _ in runs) / sum(s for s, _, _ in runs)


def end_to_end(ledger: Ledger, import_s: float) -> tuple[dict[str, float], str]:
    """End-to-end figures of one untraced run, its step latencies, and a note
    on the tail."""
    step_tail, q = tail(ledger.step_ms)
    figures = {
        "setup_s": import_s + statistics.median(ledger.setup_s),
        "train_samples_per_s": _rate(ledger.train_runs),
        "trainer.step_ms_p50": statistics.median(ledger.step_ms),
        "trainer.step_ms_tail": step_tail,
        "eval_rows_per_s": _rate(ledger.passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss": ledger.train_runs[-1][2],
        "heldout_ap": ledger.passes[-1][2],
    }
    note = (f"trainer.step_ms_tail is p{q} of {len(ledger.step_ms)} steps; "
            f"{len(ledger.train_runs)} training runs, {len(ledger.passes)} evaluation passes")
    return figures, note


def traced(w: Workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, Ledger, Ledger]:
    """Alternate untraced and traced iterations for ``seconds``; return the
    per-layer figures with the tracing overhead, and both ledgers."""
    tracer = Tracer(np.dtype(ModelConfig(d_e=w.d_e, heads=HEADS).np_dtype).itemsize)
    untraced, ledger = measure(w, seed, seconds, workdir, tracer=tracer)
    ledger.check("tracing leaves final_loss bit-equal",
                 ledger.train_runs[-1][2] == untraced.train_runs[-1][2])
    figures = per_layer(tracer, steps=len(ledger.step_ms), step_s=sum(ledger.step_ms) / 1e3,
                        passes=len(ledger.passes), pass_s=sum(s for s, _, _ in ledger.passes),
                        setups=len(ledger.setup_s))
    # Means, not medians: a median jumps with the host's speed (see _rate).
    figures["trace.step_overhead"] = (statistics.fmean(ledger.step_ms)
                                      / statistics.fmean(untraced.step_ms) - 1.0)
    figures["trace.pass_overhead"] = _rate(untraced.passes) / _rate(ledger.passes) - 1.0
    return figures, untraced, ledger
