"""Masked multi-view transformer classifier with class-token heads.

Pipeline: per-view MLPs embed heterogeneous views into a shared width, a
view-attention encoder exchanges information across available views only
(missing views are masked out of every softmax), an adaptive weighting fuses
the per-view states into one vector per sample, and a second encoder runs
over [fused vector, c learnable class tokens] so categories can share
information. c+1 heads read the outputs: one multi-label head on the
consensus token and one scalar head per class token.

The heads emit logits, and the losses work in logit space. ``forward``
applies the sigmoid only at the edge, to the main head, to give
``ForwardPass.p_main``, which ``evaluate`` ranks.

Masking guarantee: the features, embeddings, and encoder states of a view
with availability 0 never influence any available view's state, the fused
vector, or any prediction. Masked attention weights underflow to exactly 0,
so the guarantee is bit-exact, not approximate.

Encoder blocks use pre-layer-norm residual wiring. Every MLP block is
linear -> GELU -> dropout -> linear -> dropout with hidden width equal to
the embedding width.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionMismatch, EmptyRowMask

LAYER_NORM_EPS = 1e-5

CHECKPOINT_FORMAT = "mvmlc-checkpoint"
CHECKPOINT_VERSION = 1


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
        weights 1 (so fusion starts as a masked mean), class tokens N(0, 0.02)."""
        rng = np.random.default_rng(seed)
        dt = config.np_dtype
        d = config.d_e
        t: dict[str, Tensor] = {}

        def weight(shape):
            return Tensor((rng.standard_normal(shape) * 0.02).astype(dt), requires_grad=True)

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
            t[f"{prefix}.wq"] = weight((d, d))
            t[f"{prefix}.wk"] = weight((d, d))
            t[f"{prefix}.wv"] = weight((d, d))
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


def _mlp_block(x: Tensor, params: ModelParams, prefix: str, train: bool, rng) -> Tensor:
    cfg = params.config
    h = ad.gelu(ad.linear(x, params[f"{prefix}w1"], params[f"{prefix}b1"]))
    h = ad.dropout(h, cfg.dropout, rng=rng, train=train)
    h = ad.linear(h, params[f"{prefix}w2"], params[f"{prefix}b2"])
    return ad.dropout(h, cfg.dropout, rng=rng, train=train)


def embed_views(views, params: ModelParams, train: bool = False, rng=None) -> Tensor:
    """Map per-view matrices (n x d_v each) into a shared (n, m, d_e) tensor."""
    if len(views) != len(params.view_dims):
        raise DimensionMismatch(f"got {len(views)} views for a {len(params.view_dims)}-view model")
    dt = params.config.np_dtype
    embedded = []
    for v, x in enumerate(views):
        x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=dt)
        if x.ndim != 2 or x.shape[1] != params.view_dims[v]:
            raise DimensionMismatch(
                f"view {v} has shape {x.shape}; expected (n, {params.view_dims[v]})"
            )
        embedded.append(_mlp_block(Tensor(x), params, f"embed.{v}.", train, rng))
    return ad.stack(embedded, axis=1)


def attention_mask(view_mask: np.ndarray) -> np.ndarray:
    """Pairwise availability mask (n, m, m): outer product of each sample's
    availability row. Rows belonging to missing views would be entirely
    masked (nothing to attend to), so their diagonal is re-enabled; their
    output is self-content only and is never read downstream."""
    w = np.asarray(view_mask)
    if np.any(w.sum(axis=-1) == 0):
        raise EmptyRowMask("a sample has no available view")
    mask = w[:, :, None] * w[:, None, :]
    rows, cols = np.nonzero(w == 0)
    mask[rows, cols, cols] = 1.0
    return mask


def _qkv_weight(params: ModelParams, prefix: str) -> Tensor:
    """The layer's query, key and value weights packed as one (d_e, 3 d_e)
    matrix, so the three projections are one GEMM."""
    return ad.concat([params[f"{prefix}.{name}"] for name in ("wq", "wk", "wv")], axis=1)


def masked_attention(x: Tensor, mask, params: ModelParams, prefix: str):
    """Multi-head scaled dot-product attention over the token axis.

    x: (n, t, d_e); mask: (n, t, t) binary or None for unmasked attention.
    Returns (mixed, probs) where mixed is the concatenated head outputs
    (n, t, d_e) before the output projection and probs is the constant
    (n, h, t, t) attention weights.
    """
    return ad.attention(ad.linear(x, _qkv_weight(params, prefix)), params.config.heads, mask)


def _encoder_layer(x: Tensor, mask, params: ModelParams, prefix: str,
                   train: bool, rng) -> Tensor:
    normed = ad.layer_norm(x, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"],
                           eps=LAYER_NORM_EPS)
    mixed, _ = masked_attention(normed, mask, params, prefix)
    return _encoder_tail(x, mixed, params, prefix, train, rng)


def _encoder_tail(x: Tensor, mixed: Tensor, params: ModelParams, prefix: str,
                  train: bool, rng) -> Tensor:
    """Output projection, attention residual, and the pre-norm MLP residual."""
    cfg = params.config
    attended = ad.linear(mixed, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    x = x + ad.dropout(attended, cfg.dropout, rng=rng, train=train)
    normed = ad.layer_norm(x, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"],
                           eps=LAYER_NORM_EPS)
    return x + _mlp_block(normed, params, f"{prefix}.mlp_", train, rng)


def _shared_token_layer(fused: Tensor, params: ModelParams, prefix: str,
                        train: bool, rng) -> Tensor:
    """An encoder layer over [fused, cls] tokens whose c class tokens are the
    same for every sample.

    LayerNorm-1 and the Q/K/V projections are row-wise, so the class tokens
    need them once, not once per sample: the n fused rows and the c class
    tokens are normalized and projected together as one (n + c, d_e) matrix,
    and the class rows are broadcast over the batch. Everything from the
    attention scores on is per sample. numpy computes a one-row product with
    gemv, which can round differently from a GEMM; projecting the n + c >= 2
    rows together keeps every product a GEMM, so in float64 the output is
    bit-identical to ``_encoder_layer`` over the concatenated tokens.
    """
    n, d = fused.shape
    c = params.n_labels
    cls = params["cls"]
    tokens = ad.concat([fused.reshape((n, 1, d)), ad.broadcast_to(cls, (n, c, d))], axis=1)
    normed = ad.layer_norm(ad.concat([fused, cls], axis=0), params[f"{prefix}.ln1_g"],
                           params[f"{prefix}.ln1_b"], eps=LAYER_NORM_EPS)
    proj = ad.linear(normed, _qkv_weight(params, prefix))
    qkv = ad.concat([proj[:n].reshape((n, 1, 3 * d)), ad.broadcast_to(proj[n:], (n, c, 3 * d))],
                    axis=1)
    mixed, _ = ad.attention(qkv, params.config.heads)
    return _encoder_tail(tokens, mixed, params, prefix, train, rng)


def view_encoder_forward(embedded: Tensor, view_mask, params: ModelParams,
                         train: bool = False, rng=None) -> Tensor:
    """Run all masked encoder layers over the (n, m, d_e) view embeddings."""
    mask = attention_mask(view_mask)
    x = embedded
    for layer in range(params.config.layers_v):
        x = _encoder_layer(x, mask, params, f"view_enc.{layer}", train, rng)
    return x


def adaptive_fusion(states: Tensor, view_mask, weights: Tensor, gamma: float) -> Tensor:
    """Fuse per-view states (n, m, d_e) into (n, d_e).

    Each available view v gets weight exp(weights[v]**gamma), renormalized
    over that sample's available views; missing views get weight 0. The
    weight vector is learnable and receives gradient through the fusion.
    """
    w = np.asarray(view_mask, dtype=states.dtype)
    if np.any(w.sum(axis=-1) == 0):
        raise EmptyRowMask("a sample has no available view to fuse")
    n, m, _ = states.shape
    raw = ad.exp(weights ** gamma)
    numer = (states * raw.reshape((1, m, 1)) * Tensor(w[:, :, None])).sum(axis=1)
    denom = (raw.reshape((1, m)) * Tensor(w)).sum(axis=1, keepdims=True)
    return numer / denom


def fusion_weights(params: ModelParams) -> np.ndarray:
    """Current unnormalized fusion weights exp(a**gamma) as plain floats."""
    a = params["fusion.a"].data
    return np.exp(np.power(a, params.config.gamma))


def class_token_encoder_forward(fused: Tensor, params: ModelParams,
                                train: bool = False, rng=None):
    """Unmasked encoder over [fused sample vector, c class tokens].

    Returns (consensus, class_states): the first output token (n, d_e) and
    the per-sample class-token states (n, c, d_e). The same learned tokens
    feed every sample; attention specializes them per sample. Layer 0 sees
    the class tokens before any sample has touched them, so it projects them
    once (``_shared_token_layer``); deeper layers run per sample.
    """
    cfg = params.config
    if fused.ndim != 2 or fused.shape[1] != cfg.d_e:
        raise DimensionMismatch(f"fused states have shape {fused.shape}; expected (n, {cfg.d_e})")
    tokens = _shared_token_layer(fused, params, "cls_enc.0", train, rng)
    for layer in range(1, cfg.layers_c):
        tokens = _encoder_layer(tokens, None, params, f"cls_enc.{layer}", train, rng)
    return tokens[:, 0, :], tokens[:, 1:, :]


def predict(consensus: Tensor, class_states: Tensor, params: ModelParams):
    """Logits of the c+1 heads.

    main_logits (n, c) come from the shared head on the consensus token;
    their sigmoid is what inference and metrics use. token_logits (n, c)
    stack the c per-class scalar heads, each reading only its own token.
    """
    c = params.n_labels
    d = params.config.d_e
    main_logits = ad.linear(consensus, params["head_main.w"], params["head_main.b"])
    token_logits = (class_states * params["head_tokens.w"].reshape((1, c, d))).sum(axis=2)
    return main_logits, token_logits + params["head_tokens.b"]


@dataclass
class ForwardPass:
    """All intermediate and final tensors of one forward evaluation."""

    view_states: Tensor      # (n, m, d_e) encoder output per view
    fused: Tensor            # (n, d_e) weighted fusion
    consensus: Tensor        # (n, d_e) first token of the class encoder
    class_states: Tensor     # (n, c, d_e) specialized class tokens
    main_logits: Tensor      # (n, c) main head logits, what the losses read
    token_logits: Tensor     # (n, c) per-class-token head logits
    p_main: Tensor           # (n, c) main predictions: sigmoid of main_logits


def forward(views, view_mask, params: ModelParams, train: bool = False, rng=None) -> ForwardPass:
    embedded = embed_views(views, params, train=train, rng=rng)
    view_states = view_encoder_forward(embedded, view_mask, params, train=train, rng=rng)
    fused = adaptive_fusion(view_states, view_mask, params["fusion.a"], params.config.gamma)
    consensus, class_states = class_token_encoder_forward(fused, params, train=train, rng=rng)
    main_logits, token_logits = predict(consensus, class_states, params)
    return ForwardPass(view_states, fused, consensus, class_states, main_logits, token_logits,
                       ad.sigmoid(main_logits))


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


def load_checkpoint(path) -> ModelParams:
    """Read a ``save_checkpoint`` file; a file of any other layout raises
    ValueError naming it."""
    bundle = np.load(path)
    if not isinstance(bundle, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    with bundle:
        meta = (json.loads(bundle["__meta__"].tobytes().decode("utf-8"))
                if "__meta__" in bundle.files else {})
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        missing = [name for name in meta["names"] if f"param:{name}" not in bundle.files]
        if missing:
            raise ValueError(f"{path} lists parameters it does not hold: {missing}")
        config = ModelConfig(**meta["config"])
        tensors = {
            name: Tensor(bundle[f"param:{name}"].copy(), requires_grad=True)
            for name in meta["names"]
        }
    return ModelParams(config, meta["view_dims"], meta["n_labels"], tensors)
