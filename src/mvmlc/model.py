"""Masked multi-view transformer classifier with class-token heads.

Pipeline: per-view MLPs embed heterogeneous views into a shared width, a
view-attention encoder exchanges information across available views only
(missing views are masked out of every softmax), an adaptive weighting fuses
the per-view states into one vector per sample, and a second encoder runs
over [fused vector, c learnable class tokens] so categories can share
information. c+1 heads read the outputs: one multi-label head on the
consensus token and one scalar head per class token. The class tokens are
the same for every sample, so that encoder's first layer computes their
class-to-class attention once per batch and merges each sample's fused
vector into it (``ad.shared_token_attention``); the result equals running
the layer per sample up to rounding.

The heads emit logits, and the losses work in logit space. ``forward``
applies the sigmoid only at the edge, to the main head's values, to give
``ForwardPass.p_main``, which ``evaluate`` ranks. It is computed off the
tape: no loss reads it, so it carries no gradient and a training step
records no sigmoid.

Only observed entries are computed. From the embeddings on, the view side
is one packed stream of the P present (sample, view) rows; attention alone
sees the (n, m) grid, and a missing view has a slot only in the view
states. The class side runs all c + 1 tokens up to the last layer, whose
tail and the token heads run over the n consensus rows and the K (sample,
label) entries of the batch's label mask, the only tokens a loss reads.
Evaluation passes no label mask, so K = 0 and the last class layer
computes the consensus query alone.

Masking guarantee: the features, embeddings, and encoder states of a view
with availability 0 never influence any available view's state, the fused
vector, or any prediction. The (n, m) view mask, checked by
``data.check_view_mask``, is each view layer's key mask: missing views get
attention weights that underflow to exactly 0, so the guarantee is
bit-exact. A missing view's own row is never computed: its features are
never read, it has no row in the stream, its slot of the view states holds
exact zeros, and NaN features there reach no output and no gradient.

Encoder blocks use pre-layer-norm residual wiring. Each layer packs its
query, key and value weights side by side in one (d_e, 3 d_e) parameter,
``{prefix}.wqkv``, so the three projections are one GEMM. Every MLP block is
linear -> GELU -> dropout -> linear -> dropout with hidden width equal to
the embedding width.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_label_mask, check_view_mask
from .errors import DimensionMismatch

CHECKPOINT_FORMAT = "mvmlc-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    d_e: embedding width; heads: attention head count (must divide d_e);
    layers_v / layers_c: depth of the view and class-token encoders;
    dropout: rate used after attention output projections and inside MLP
    blocks; gamma: exponent of the fusion weights exp(a**gamma); dtype:
    "float32" for training, "float64" for verification. The model computes,
    records and differentiates in this dtype: scalars and plain arrays
    combined with its tensors take the tensor's dtype.
    """

    d_e: int = 128
    heads: int = 4
    layers_v: int = 1
    layers_c: int = 1
    dropout: float = 0.1
    gamma: float = 2.0
    dtype: str = "float32"

    def __post_init__(self):
        if self.d_e < 1 or self.heads < 1 or self.d_e % self.heads != 0:
            raise ValueError(f"d_e={self.d_e} must be a positive multiple of heads={self.heads}")
        if self.layers_v < 1 or self.layers_c < 1:
            raise ValueError("encoder depths must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def d_h(self) -> int:
        return self.d_e // self.heads

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class ModelParams:
    """Name-addressed store of all learnable tensors plus the shapes metadata
    (config, per-view input dims, label count) needed to rebuild the model."""

    def __init__(self, config: ModelConfig, view_dims: list[int], n_labels: int,
                 tensors: dict[str, Tensor]):
        self.config = config
        self.view_dims = list(view_dims)
        self.n_labels = int(n_labels)
        self._tensors = tensors

    @classmethod
    def initialize(cls, config: ModelConfig, view_dims: list[int], n_labels: int,
                   seed: int = 0) -> "ModelParams":
        """Seeded init: weights N(0, 0.02), biases 0, norm gains 1, fusion
        weights 1 (so fusion starts as a masked mean), class tokens N(0, 0.02).
        Each ``wqkv`` is three (d_e, d_e) draws, query, key, value, side by side."""
        rng = np.random.default_rng(seed)
        dt = config.np_dtype
        d = config.d_e
        t: dict[str, Tensor] = {}

        def weight(shape, parts=1):
            draws = np.concatenate([rng.standard_normal(shape) for _ in range(parts)], axis=1)
            return Tensor((draws * 0.02).astype(dt), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape, dtype=dt), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape, dtype=dt), requires_grad=True)

        for v, d_v in enumerate(view_dims):
            t[f"embed.{v}.w1"] = weight((d_v, d))
            t[f"embed.{v}.b1"] = zeros(d)
            t[f"embed.{v}.w2"] = weight((d, d))
            t[f"embed.{v}.b2"] = zeros(d)

        def encoder_layer(prefix):
            t[f"{prefix}.wqkv"] = weight((d, d), parts=3)
            t[f"{prefix}.wo"] = weight((d, d))
            t[f"{prefix}.bo"] = zeros(d)
            t[f"{prefix}.ln1_g"] = ones(d)
            t[f"{prefix}.ln1_b"] = zeros(d)
            t[f"{prefix}.ln2_g"] = ones(d)
            t[f"{prefix}.ln2_b"] = zeros(d)
            t[f"{prefix}.mlp_w1"] = weight((d, d))
            t[f"{prefix}.mlp_b1"] = zeros(d)
            t[f"{prefix}.mlp_w2"] = weight((d, d))
            t[f"{prefix}.mlp_b2"] = zeros(d)

        for layer in range(config.layers_v):
            encoder_layer(f"view_enc.{layer}")
        t["fusion.a"] = ones(len(view_dims))
        t["cls"] = weight((n_labels, d))
        for layer in range(config.layers_c):
            encoder_layer(f"cls_enc.{layer}")
        t["head_main.w"] = weight((d, n_labels))
        t["head_main.b"] = zeros(n_labels)
        t["head_tokens.w"] = weight((n_labels, d))
        t["head_tokens.b"] = zeros(n_labels)
        return cls(config, view_dims, n_labels, t)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def num_parameters(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def zero_grads(self):
        for t in self._tensors.values():
            t.grad = None

    def all_finite(self) -> bool:
        return all(np.isfinite(t.data).all() for t in self._tensors.values())

    def groups(self) -> dict[str, list[str]]:
        """Parameter names keyed by functional group, for diagnostics."""
        out: dict[str, list[str]] = {
            "embed": [], "view_attention": [], "fusion": [],
            "class_tokens": [], "class_attention": [], "heads": [],
        }
        for name in self._tensors:
            if name.startswith("embed."):
                out["embed"].append(name)
            elif name.startswith("view_enc."):
                out["view_attention"].append(name)
            elif name == "fusion.a":
                out["fusion"].append(name)
            elif name == "cls":
                out["class_tokens"].append(name)
            elif name.startswith("cls_enc."):
                out["class_attention"].append(name)
            else:
                out["heads"].append(name)
        return out


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def _mlp_block(x: Tensor, params: ModelParams, prefix: str, rng) -> Tensor:
    cfg = params.config
    h = ad.gelu(ad.linear(x, params[f"{prefix}w1"], params[f"{prefix}b1"]))
    h = ad.dropout(h, cfg.dropout, rng)
    h = ad.linear(h, params[f"{prefix}w2"], params[f"{prefix}b2"])
    return ad.dropout(h, cfg.dropout, rng)


def embed_views(views, view_mask, params: ModelParams, rng=None) -> Tensor:
    """Map per-view data arrays (n x d_v each) into the packed (P, d_e)
    stream of the P present (sample, view) rows of the (n, m) ``view_mask``
    (``check_view_mask``): row r is view v's MLP of sample i, where (i, v)
    is the r-th pair of ``np.nonzero(view_mask)``. Each MLP runs over its
    view's present rows only, and one gather orders the joined outputs."""
    if len(views) != len(params.view_dims):
        raise DimensionMismatch(f"got {len(views)} views for a {len(params.view_dims)}-view model")
    n = np.shape(views[0])[0] if np.ndim(views[0]) else 0
    for v, x in enumerate(views):
        if np.shape(x) != (n, params.view_dims[v]):
            raise DimensionMismatch(
                f"view {v} has shape {np.shape(x)}; expected ({n}, {params.view_dims[v]})"
            )
    present = check_view_mask(view_mask, (n, len(views))) == 1
    dt = params.config.np_dtype
    outputs = [_mlp_block(Tensor(np.asarray(x)[present[:, v]], dtype=dt), params,
                          f"embed.{v}.", rng) for v, x in enumerate(views)]
    # each present slot's position in the view-major join, read row-major
    slot = np.zeros(present.shape, np.intp)
    slot.T[present.T] = np.arange(np.count_nonzero(present))
    return ad.concat(outputs)[slot[present]]


def _qkv(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    """The layer's packed query/key/value projections of its normed input."""
    normed = ad.layer_norm(x, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"])
    return ad.linear(normed, params[f"{prefix}.wqkv"])


def _mix(x: Tensor, mask, params: ModelParams, prefix: str, first_only: bool = False) -> Tensor:
    """The layer's attention output over the tokens of x (n, t, d_e). With
    ``first_only`` only the first token's query is computed and the output
    is (n, 1, d_e), while all t tokens still serve as keys and values."""
    return ad.attention(_qkv(x, params, prefix), params.config.heads, mask, first_only)[0]


def _encoder_layer(x: Tensor, mask, params: ModelParams, prefix: str, rng) -> Tensor:
    """One pre-norm encoder layer over the tokens of x (n, t, d_e)."""
    return _encoder_tail(x, _mix(x, mask, params, prefix), params, prefix, rng)


def _encoder_tail(x: Tensor, mixed: Tensor, params: ModelParams, prefix: str, rng) -> Tensor:
    """Output projection, attention residual, and the pre-norm MLP residual,
    all row-wise: x and mixed may be any matching (..., d_e) rows."""
    cfg = params.config
    # no name on the projection or the normed stream: when no backward reads
    # their data, it is freed as soon as the next primitive has consumed it
    x = x + ad.dropout(ad.linear(mixed, params[f"{prefix}.wo"], params[f"{prefix}.bo"]),
                       cfg.dropout, rng)
    return x + _mlp_block(ad.layer_norm(x, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"]),
                          params, f"{prefix}.mlp_", rng)


def _shared_token_mix(fused: Tensor, params: ModelParams, prefix: str,
                      first_only: bool = False) -> Tensor:
    """The attention of an encoder layer over [fused, cls] tokens whose c
    class tokens are the same for every sample, (n, c + 1, d_e).

    LayerNorm-1 and the Q/K/V projections are row-wise, so the class tokens
    need them once, not once per sample: the n fused rows and the c class
    tokens are normalized and projected together as one (n + c, d_e) matrix.
    ``ad.shared_token_attention`` then computes the class-to-class block of
    the attention once and merges each sample's own key and value into it,
    so no class row is copied per sample. The output equals ``_mix`` over
    the concatenated tokens up to rounding; ``first_only`` is as there.
    """
    qkv = _qkv(ad.concat([fused, params["cls"]], axis=0), params, prefix)
    return ad.shared_token_attention(qkv, fused.shape[0], params.config.heads, first_only)


def _shared_token_layer(fused: Tensor, params: ModelParams, prefix: str, rng) -> Tensor:
    """An encoder layer over [fused, cls] tokens (``_shared_token_mix``),
    (n, c + 1, d_e); it equals ``_encoder_layer`` over them up to rounding."""
    n, d = fused.shape
    mixed = _shared_token_mix(fused, params, prefix)
    # The (n, c + 1, d) residual stream is built after the attention's
    # temporaries are gone and handed on unnamed: no backward reads it, so
    # the tail frees it at its first residual.
    tokens = ad.concat([fused.reshape((n, 1, d)),
                        ad.broadcast_to(params["cls"], (n, params.n_labels, d))], axis=1)
    return _encoder_tail(tokens, mixed, params, prefix, rng)


def view_encoder_forward(stream: Tensor, view_mask, params: ModelParams, rng=None) -> Tensor:
    """Run all masked encoder layers over the (P, d_e) view stream of
    ``embed_views``; returns the (n, m, d_e) view states, exact zeros at
    missing slots. ``view_mask`` (``check_view_mask``) is the (n, m)
    availability, and a stream without one row per present entry raises
    DimensionMismatch.

    Each layer's LayerNorms, projections, residuals and MLP run over the
    stream alone. Attention scatters the stream's Q/K/V into the (n, m)
    grid, where the view mask is the key mask, so no view attends to a
    missing one, and gathers the present rows of its output back."""
    mask = check_view_mask(view_mask, np.shape(view_mask)[:1] + (len(params.view_dims),))
    present = np.nonzero(mask)
    if stream.shape != (present[0].size, params.config.d_e):
        raise DimensionMismatch(f"the view stream is {stream.shape}; the view mask has "
                                f"{present[0].size} present rows of width {params.config.d_e}")
    for layer in range(params.config.layers_v):
        prefix = f"view_enc.{layer}"
        grid = ad.scatter_rows(_qkv(stream, params, prefix), present, mask.shape)
        mixed, _ = ad.attention(grid, params.config.heads, mask)
        stream = _encoder_tail(stream, mixed[present], params, prefix, rng)
    return ad.scatter_rows(stream, present, mask.shape)


def adaptive_fusion(states: Tensor, view_mask, weights: Tensor, gamma: float) -> Tensor:
    """Fuse per-view states (n, m, d_e) into (n, d_e).

    Each available view v gets weight exp(weights[v]**gamma), renormalized
    over that sample's available views; missing views get weight 0. These
    (n, m) weights are normalized before they scale the states, in one
    weighted sum. The weight vector is learnable and receives gradient
    through the fusion. ``view_mask`` is checked against the states' (n, m)
    by ``check_view_mask``.
    """
    w = check_view_mask(view_mask, states.shape[:2])
    n, m = w.shape
    raw = ad.exp(weights ** gamma) * w
    norm = raw / raw.sum(axis=1, keepdims=True)
    return (states * norm.reshape((n, m, 1))).sum(axis=1)


def fusion_weights(params: ModelParams) -> np.ndarray:
    """Current unnormalized fusion weights exp(a**gamma) as plain floats."""
    a = params["fusion.a"].data
    return np.exp(np.power(a, params.config.gamma))


# (sample, label) index pairs of no known label: the consensus-only case
NO_LABELS = (np.zeros(0, np.intp), np.zeros(0, np.intp))


def known_pairs(label_mask, shape) -> tuple[np.ndarray, np.ndarray]:
    """The (sample, label) index arrays of the known entries of an (n, c)
    ``label_mask`` (``check_label_mask``), in row-major order; ``NO_LABELS``
    for no mask."""
    return NO_LABELS if label_mask is None else np.nonzero(check_label_mask(label_mask, shape))


def class_token_encoder_forward(fused: Tensor, params: ModelParams, rng=None,
                                known=NO_LABELS):
    """Unmasked encoder over [fused sample vector, c class tokens].

    Returns (consensus, class_states): the first output token (n, d_e) and
    the (K, d_e) states of the K class tokens that ``known`` names, a pair
    of (sample, label) index arrays without repeats (``known_pairs``). The
    same learned tokens feed every sample; attention specializes them per
    sample. Layer 0 sees the class tokens before any sample has touched
    them, so it projects them and computes their class-to-class attention
    once per batch (``_shared_token_mix``), equal to the per-sample layer up
    to rounding; deeper layers run per sample.

    Every layer before the last runs all c + 1 tokens, since each token is a
    key and a value for the others. The last layer's tail (output
    projection, residuals and MLP) runs over one 2-D stream of the n
    consensus rows and the K known rows alone, in that order: no other
    token's output is read. With K = 0, as evaluation runs it, the last
    attention computes the consensus query alone (``first_only``).
    """
    cfg = params.config
    if fused.ndim != 2 or fused.shape[1] != cfg.d_e:
        raise DimensionMismatch(f"fused states have shape {fused.shape}; expected (n, {cfg.d_e})")
    n, d = fused.shape
    rows, labels = known
    # the stream's positions in the (n, c + 1) token grid
    stream = (np.concatenate([np.arange(n), rows]),
              np.concatenate([np.zeros(n, np.intp), labels + 1]))
    first_only = rows.size == 0
    last = cfg.layers_c - 1
    prefix = f"cls_enc.{last}"
    if last == 0:
        mixed = _shared_token_mix(fused, params, prefix, first_only)
        residual = ad.concat([fused,
                              ad.broadcast_to(params["cls"], (n, params.n_labels, d))[known]])
    else:
        x = _shared_token_layer(fused, params, "cls_enc.0", rng)
        for layer in range(1, last):
            x = _encoder_layer(x, None, params, f"cls_enc.{layer}", rng)
        mixed = _mix(x, None, params, prefix, first_only)
        residual = x[stream]
    out = _encoder_tail(residual, mixed[stream], params, prefix, rng)
    return out[:n], out[n:]


def predict(consensus: Tensor, class_states: Tensor, params: ModelParams, known=NO_LABELS):
    """Logits of the c+1 heads.

    main_logits (n, c) come from the shared head on the consensus token;
    their sigmoid is what inference and metrics use. token_logits (K,) are
    the per-class scalar heads on the K class states that ``known`` names
    (``class_token_encoder_forward``): the state of label j is read by
    label j's head alone.
    """
    main_logits = ad.linear(consensus, params["head_main.w"], params["head_main.b"])
    n, d = consensus.shape
    c = params.n_labels
    w = ad.broadcast_to(params["head_tokens.w"], (n, c, d))[known]
    b = ad.broadcast_to(params["head_tokens.b"], (n, c))[known]
    return main_logits, (class_states * w).sum(axis=1) + b


@dataclass
class ForwardPass:
    """All intermediate and final tensors of one forward evaluation. The K
    known entries are those of the label mask ``forward`` was given."""

    view_states: Tensor          # (n, m, d_e) encoder output per view; 0 at missing slots
    fused: Tensor                # (n, d_e) weighted fusion
    consensus: Tensor            # (n, d_e) first token of the class encoder
    class_states: Tensor         # (K, d_e) class tokens of the known entries
    main_logits: Tensor          # (n, c) main head logits, what the losses read
    token_logits: Tensor         # (K,) per-class-token head logits of the known entries
    p_main: Tensor               # (n, c) main predictions: sigmoid of main_logits, off the tape
    known: tuple                 # (sample, label) index arrays of the K known entries


def forward(views, view_mask, params: ModelParams, rng=None, label_mask=None) -> ForwardPass:
    """Run the whole model on a batch. Passing ``rng`` turns dropout on, as
    training does; without it the pass is deterministic. The view side runs
    as a stream of the present (sample, view) rows (``embed_views``) up to
    the (n, m, d_e) view states, which fusion and the graph constraint read.

    Only the training loss reads the class tokens, and only at the known
    entries of the (n, c) ``label_mask``: those K tokens are computed and
    scored (``class_token_encoder_forward``). Evaluation passes no mask, so
    K = 0 and the class-token heads score nothing."""
    stream = embed_views(views, view_mask, params, rng)
    view_states = view_encoder_forward(stream, view_mask, params, rng)
    fused = adaptive_fusion(view_states, view_mask, params["fusion.a"], params.config.gamma)
    known = known_pairs(label_mask, (fused.shape[0], params.n_labels))
    consensus, class_states = class_token_encoder_forward(fused, params, rng, known)
    main_logits, token_logits = predict(consensus, class_states, params, known)
    return ForwardPass(view_states, fused, consensus, class_states, main_logits, token_logits,
                       ad.sigmoid(main_logits.data), known)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    """Single-file checkpoint: versioned JSON header + named parameter blobs.

    Arrays are stored losslessly, so save -> load round-trips bit-exactly.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "view_dims": params.view_dims,
        "n_labels": params.n_labels,
        "names": params.names(),
    }
    arrays = {f"param:{name}": t.data for name, t in params.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                 **arrays)


def _pack_qkv(arrays: dict[str, np.ndarray], path) -> None:
    """Replace each version-1 ``{prefix}.wq``/``wk``/``wv`` triple in
    ``arrays`` with ``{prefix}.wqkv``, the three side by side; a partial
    triple raises ValueError."""
    parts = ("wq", "wk", "wv")
    prefixes = dict.fromkeys(name.rpartition(".")[0] for name in arrays
                             if name.rpartition(".")[2] in parts)
    for prefix in prefixes:
        triple = [f"{prefix}.{part}" for part in parts]
        missing = [name for name in triple if name not in arrays]
        if missing:
            raise ValueError(f"{path} lacks parameters of a version-1 layer: {missing}")
        arrays[f"{prefix}.wqkv"] = np.concatenate([arrays.pop(name) for name in triple], axis=1)


def load_checkpoint(path) -> ModelParams:
    """Read a ``save_checkpoint`` file; a file of any other layout, or a
    header that lacks a field or whose config keys differ from
    ``ModelConfig``'s, raises ValueError naming it. Every entry but
    ``__meta__`` must be ``param:<name>`` for a name the header lists, one
    entry per listed name, or ValueError names the odd entries. The
    parameters must have the names, shapes and dtypes of
    ``ModelParams.initialize`` for the header's config, view dims and label
    count: they are copied into such a fresh model, and the first that does
    not fit raises ValueError naming it. Version-1 files, with unpacked
    Q/K/V weights, load by packing (``_pack_qkv``)."""
    bundle = np.load(path)
    if not isinstance(bundle, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    with bundle:
        meta = (json.loads(bundle["__meta__"].tobytes().decode("utf-8"))
                if "__meta__" in bundle.files else {})
        if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        version = meta.get("version")
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        try:
            names = list(meta["names"])
            view_dims = [int(d) for d in meta["view_dims"]]
            n_labels = int(meta["n_labels"])
            keys = {f.name for f in fields(ModelConfig)}
            if set(meta["config"]) != keys:
                raise ValueError(f"config keys {sorted(meta['config'])} are not {sorted(keys)}")
            config = ModelConfig(**meta["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path} has a malformed header: {type(exc).__name__}: {exc}") from exc
        # +1 per listed name, -1 per stored entry: any nonzero count is odd
        counts = Counter(f"param:{name}" for name in names)
        counts.subtract(key for key in bundle.files if key != "__meta__")
        odd = sorted(key for key, count in counts.items() if count)
        if odd:
            raise ValueError(f"{path} does not hold one param: entry per listed name: {odd}")
        arrays = {name: bundle[f"param:{name}"] for name in names}
    if version == 1:
        _pack_qkv(arrays, path)
    params = ModelParams.initialize(config, view_dims, n_labels)
    for name, t in params.items():
        array = arrays.pop(name, None)
        if array is None:
            raise ValueError(f"{path} lacks parameter {name!r}")
        if array.shape != t.data.shape or array.dtype != t.data.dtype:
            raise ValueError(f"{path}: parameter {name!r} is {array.dtype} {array.shape}, "
                             f"the model needs {t.data.dtype} {t.data.shape}")
        t.data[...] = array
    if arrays:
        raise ValueError(f"{path} holds parameters the model does not have: {list(arrays)}")
    return params
