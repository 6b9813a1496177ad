"""Outside-in tracing of mvmlc for the benchmark's per-layer metrics.

Nothing in ``src/`` is edited. ``instrument`` replaces public functions of
each mvmlc module with timed wrappers, on the object the caller looks them up
on (``trainer`` imports ``forward``, ``masked_bce`` and the rest by name), and
swaps ``trainer.Tape`` for a subclass that accounts for every record and
times every backward closure. Everything is restored on exit.

A span's self time is its duration minus the durations of the spans it
directly contains. Calls nest, so the contained spans never overlap, and the
self times of all spans in an interval add up to the time the top-level
spans cover. Spans are keyed by the phase the benchmark was in (``train``,
``eval`` or ``other``) so training steps and evaluation passes are reported
apart.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from mvmlc import autodiff, data, losses, model, trainer

# Every differentiable primitive of the autodiff module. Tensor operators
# and the primitives themselves call these through the module's globals, so
# replacing the module attribute catches every call.
PRIMITIVES = (
    "add", "sub", "mul", "div", "neg", "power", "matmul", "transpose",
    "reshape", "broadcast_to", "concat", "stack", "take", "tensor_sum",
    "tensor_mean", "exp", "log", "sqrt", "sigmoid", "gelu", "clamp",
    "clamp_min", "softmax", "masked_softmax", "layer_norm", "dropout",
)

# (owner, attribute, span name); the name's first part is the layer.
SPANS = (
    (data, "make_synthetic", "data.synth"),
    (data, "simulate_missing_views", "data.corrupt"),
    (data, "simulate_missing_labels", "data.corrupt"),
    (data, "apply_masks", "data.corrupt"),
    (trainer, "forward", "model.forward"),
    (model, "embed_views", "model.embed"),
    (model, "view_encoder_forward", "model.view_encoder"),
    (model, "adaptive_fusion", "model.fusion"),
    (model, "class_token_encoder_forward", "model.class_token_encoder"),
    (model, "predict", "model.heads"),
    (model, "load_checkpoint", "model.checkpoint_load"),
    (model.ModelParams, "zero_grads", "model.zero_grads"),
    (model.ModelParams, "all_finite", "model.all_finite"),
    (trainer, "masked_bce", "losses.bce"),
    (trainer, "graph_constraint_loss", "losses.graph"),
    (trainer, "total_loss", "losses.total"),
    (losses.LossContext, "batch", "losses.context_batch"),
    (trainer, "adam_step", "trainer.adam"),
    (trainer, "compute_report", "metrics.compute_report"),
) + tuple((autodiff, p, f"autodiff.op.{p}") for p in PRIMITIVES)

# Layers whose spans name the scope of a tape record.
SCOPE_LAYERS = ("model", "losses")


@contextlib.contextmanager
def patched(owner, **replacements):
    """Set attributes on ``owner`` for the duration of the block."""
    saved = {name: getattr(owner, name) for name in replacements}
    for name, value in replacements.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


class Tracer:
    """In-memory span and tape accounting for one traced run."""

    def __init__(self, itemsize: int):
        self.itemsize = itemsize      # bytes per element of the model dtype
        self.phase = "other"
        self._stack: list[list] = []  # open spans: [name, layer, child seconds]
        self.calls: dict = defaultdict(int)       # (phase, name) -> calls
        self.total_s: dict = defaultdict(float)   # (phase, name) -> inclusive s
        self.self_s: dict = defaultdict(float)    # (phase, name) -> self s
        self.top_s: dict = defaultdict(float)     # phase -> s in top-level spans
        self.tape: dict = defaultdict(float)      # tape counters and backward s

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        self.phase = phase
        try:
            yield
        finally:
            self.phase = "other"

    def span(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                key = (self.phase, name)
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                else:
                    self.top_s[self.phase] += elapsed

        return timed

    def _innermost(self, layers) -> str:
        for name, layer, _ in reversed(self._stack):
            if layer in layers:
                return name.rsplit(".", 1)[-1]
        return "other"

    def tape_class(self):
        """A ``Tape`` whose records are counted and whose closures are timed."""
        tracer = self
        counters = self.tape

        class TracingTape(autodiff.Tape):
            def record(self, out, inputs, backward):
                op = tracer._innermost(("autodiff",))
                scope = tracer._innermost(SCOPE_LAYERS)
                counters["records"] += 1
                counters["bytes"] += out.data.nbytes
                if out.data.dtype.itemsize > tracer.itemsize:
                    counters["wide"] += 1

                def timed_backward(grad):
                    start = perf_counter()
                    grads = backward(grad)
                    elapsed = perf_counter() - start
                    counters["op", op] += elapsed
                    counters["scope", scope] += elapsed
                    return grads

                super().record(out, inputs, timed_backward)

            backward = tracer.span("autodiff.backward", autodiff.Tape.backward)

        return TracingTape


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call listed in SPANS, and every tape, through ``tracer``."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(trainer, Tape=tracer.tape_class()))
        for owner, attr, name in SPANS:
            stack.enter_context(patched(owner, **{attr: tracer.span(name, getattr(owner, attr))}))
        yield tracer


def per_layer(tracer: Tracer, steps: int, step_s: float, passes: int, pass_s: float,
              setups: int) -> dict[str, float]:
    """Per-layer figures: per training step, per evaluation pass or batch,
    and per set-up, from the spans and tape counters of one traced run."""

    def ms(seconds, count):
        return 1e3 * seconds / count

    def phase_sum(table, phase, prefix):
        return sum(v for (p, name), v in table.items() if p == phase and name.startswith(prefix))

    def every_phase(table, name):
        return sum(v for (_, n), v in table.items() if n == name)

    out: dict[str, float] = {}
    tape = tracer.tape
    out["autodiff.tape_records"] = tape["records"] / steps
    out["autodiff.tape_bytes"] = tape["bytes"] / steps
    out["autodiff.f64_records"] = tape["wide"] / steps
    out["autodiff.backward_ms"] = ms(tracer.total_s["train", "autodiff.backward"], steps)
    for (phase, name), calls in tracer.calls.items():
        if phase == "train" and name.startswith("autodiff.op."):
            out[f"{name}.calls"] = calls / steps
            out[f"{name}.fwd_ms"] = ms(tracer.self_s[phase, name], steps)
            out[f"{name}.bwd_ms"] = ms(tape["op", name.rsplit(".", 1)[-1]], steps)
    for key, seconds in tape.items():
        if isinstance(key, tuple) and key[0] == "scope":
            out[f"autodiff.scope.{key[1]}.bwd_ms"] = ms(seconds, steps)

    for name in ("model.embed", "model.view_encoder", "model.fusion",
                 "model.class_token_encoder", "model.heads", "losses.bce",
                 "losses.graph", "losses.context_batch", "trainer.adam"):
        out[f"{name}_ms"] = ms(tracer.total_s["train", name], steps)
    for layer in ("model", "losses", "autodiff", "trainer"):
        out[f"{layer}.self_step_ms"] = ms(phase_sum(tracer.self_s, "train", layer + "."), steps)
    out["trace.unattributed_step_ms"] = ms(step_s - tracer.top_s["train"], steps)
    out["trace.step_coverage"] = tracer.top_s["train"] / step_s

    out["model.forward_eval_ms"] = ms(tracer.total_s["eval", "model.forward"],
                                      tracer.calls["eval", "model.forward"])
    out["metrics.compute_report_ms"] = ms(tracer.total_s["eval", "metrics.compute_report"], passes)
    for layer in ("model", "autodiff", "metrics"):
        out[f"{layer}.self_pass_ms"] = ms(phase_sum(tracer.self_s, "eval", layer + "."), passes)
    out["trace.unattributed_pass_ms"] = ms(pass_s - tracer.top_s["eval"], passes)
    out["trace.pass_coverage"] = tracer.top_s["eval"] / pass_s

    out["data.synth_ms"] = ms(every_phase(tracer.total_s, "data.synth"), setups)
    out["data.corrupt_ms"] = ms(every_phase(tracer.total_s, "data.corrupt"), setups)
    out["model.checkpoint_load_ms"] = ms(every_phase(tracer.total_s, "model.checkpoint_load"),
                                         every_phase(tracer.calls, "model.checkpoint_load"))
    return out
