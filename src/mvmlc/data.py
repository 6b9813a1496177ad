"""Multi-view multi-label datasets: loading, corruption simulation, synthesis.

A dataset bundles m per-view feature matrices (n x d_v), a binary label
matrix Y (n x c), a view-availability mask W (n x m) and a label-known mask
G (n x c). Missing entries are zero-filled: features of an unavailable view
and labels of an unknown entry are exactly 0, so the masks are the single
source of truth about what is observed.

The view mask's rule lives in one place, ``check_view_mask``: the mask is
(n, m), holds only 0 and 1, and keeps a view in every row. The label mask's
rule, in ``check_label_mask``, is the labels' (n, c) shape and only 0 and 1.
The dataset and every model and loss function that reads a mask call them.

File format: a JSON manifest with keys ``views`` (ordered list of CSV paths),
``labels`` and optional ``view_mask`` / ``label_mask``. Matrix files are
headerless comma-separated CSV, one sample per row; feature files must be
finite and binary files must contain exactly 0 or 1.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateSplit,
    DimensionMismatch,
    EmptyRowMask,
    InfeasibleRatio,
    MissingFile,
    NonBinary,
    NonFiniteFeatures,
)

MANIFEST_NAME = "manifest.json"


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only C-contiguous float64 array. A writeable array
    is copied, so the caller's own array stays writeable and writing to it
    cannot reach the dataset; one that is already read-only float64 and
    C-contiguous, as every dataset's own arrays are, is shared."""
    arr = np.asarray(arr)
    if arr.flags.writeable or arr.dtype != np.float64 or not arr.flags.c_contiguous:
        arr = np.array(arr, dtype=np.float64, order="C")
        arr.setflags(write=False)
    return arr


def _adopt(views, labels, view_mask, label_mask) -> "MultiViewDataset":
    """A dataset of arrays this module has just made and holds nowhere else:
    they are frozen in place rather than copied."""
    for arr in (*views, labels, view_mask, label_mask):
        arr.setflags(write=False)
    return MultiViewDataset(views=list(views), labels=labels, view_mask=view_mask,
                            label_mask=label_mask)


def _zero_fill(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask == 0, 0.0, x)


def _check_binary(arr: np.ndarray, name: str):
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise NonBinary(f"{name} contains values outside {{0, 1}}")


def check_view_mask(view_mask, shape) -> np.ndarray:
    """The view mask as float64, once it has the given (n, m) ``shape``
    (else DimensionMismatch), only 0/1 entries (else NonBinary) and a view
    in every row (else EmptyRowMask)."""
    w = np.asarray(view_mask, dtype=np.float64)
    if w.shape != tuple(shape):
        raise DimensionMismatch(f"view_mask is {w.shape}, not {tuple(shape)}")
    _check_binary(w, "view_mask")
    if not w.any(axis=1).all():
        raise EmptyRowMask("every sample must keep at least one available view")
    return w


def check_label_mask(label_mask, shape) -> np.ndarray:
    """The label mask as float64, once it has the given (n, c) ``shape``
    (else DimensionMismatch) and only 0/1 entries (else NonBinary)."""
    g = np.asarray(label_mask, dtype=np.float64)
    if g.shape != tuple(shape):
        raise DimensionMismatch(f"label_mask is {g.shape}, not {tuple(shape)}")
    _check_binary(g, "label_mask")
    return g


@dataclass(frozen=True)
class MultiViewDataset:
    """Immutable container for multi-view features, labels, and masks."""

    views: list[np.ndarray]
    labels: np.ndarray
    view_mask: np.ndarray
    label_mask: np.ndarray

    def __post_init__(self):
        if not self.views:
            raise DimensionMismatch("a dataset needs at least one view")
        object.__setattr__(self, "views", [_freeze(v) for v in self.views])
        for name in ("labels", "view_mask", "label_mask"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        views, labels, view_mask, label_mask = (
            self.views, self.labels, self.view_mask, self.label_mask)

        n = views[0].shape[0]
        for v, x in enumerate(views):
            if x.ndim != 2 or x.shape[0] != n:
                raise DimensionMismatch(f"view {v} has shape {x.shape}; expected {n} rows")
        check_view_mask(view_mask, (n, len(views)))
        if labels.ndim != 2 or labels.shape[0] != n:
            raise DimensionMismatch(f"labels has shape {labels.shape}; expected {n} rows")
        check_label_mask(label_mask, labels.shape)
        for v, x in enumerate(views):
            if not np.isfinite(x).all():
                raise NonFiniteFeatures(f"view {v} has non-finite features (NaN or inf)")
        _check_binary(labels, "labels")
        for v, x in enumerate(views):
            if np.any(x[view_mask[:, v] == 0] != 0.0):
                raise ValueError(f"view {v} has nonzero features on masked rows")
        if np.any(labels[label_mask == 0.0] != 0.0):
            raise ValueError("labels must be 0 where the label mask is 0")

    @property
    def n(self) -> int:
        return self.views[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.views)

    @property
    def c(self) -> int:
        return self.labels.shape[1]

    @property
    def view_dims(self) -> list[int]:
        return [x.shape[1] for x in self.views]

    def take(self, indices) -> "MultiViewDataset":
        """New dataset holding the given rows; masks travel with their rows.

        Indexing with an integer array already copies, so each array is
        copied once.
        """
        idx = np.asarray(indices, dtype=int)
        return _adopt([x[idx] for x in self.views], self.labels[idx], self.view_mask[idx],
                      self.label_mask[idx])


def apply_masks(
    ds: MultiViewDataset,
    view_mask: np.ndarray | None = None,
    label_mask: np.ndarray | None = None,
) -> MultiViewDataset:
    """Return a copy with the given masks applied and features/labels zero-filled.

    New masks combine with existing ones (an already-missing entry stays
    missing). Each given mask must have the shape of the one it combines with.
    """
    for name, new, own in (("view_mask", view_mask, ds.view_mask),
                           ("label_mask", label_mask, ds.label_mask)):
        if new is not None and np.shape(new) != own.shape:
            raise DimensionMismatch(f"{name} is {np.shape(new)}, not {own.shape}")
    w = ds.view_mask if view_mask is None else ds.view_mask * np.asarray(view_mask, dtype=np.float64)
    g = ds.label_mask if label_mask is None else ds.label_mask * np.asarray(label_mask, dtype=np.float64)
    views = [_zero_fill(x, w[:, v : v + 1]) for v, x in enumerate(ds.views)]
    labels = _zero_fill(ds.labels, g)
    return _adopt(views, labels, w, g)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def _load_matrix(path: Path) -> np.ndarray:
    if not path.exists():
        raise MissingFile(str(path))
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def load_dataset(manifest_path) -> MultiViewDataset:
    """Load and validate a dataset from a manifest file (or its directory)."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise MissingFile(str(path))
    manifest = json.loads(path.read_text())
    base = path.parent
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} is not a JSON object")

    view_paths = manifest.get("views")
    if not view_paths:
        raise ValueError(f"manifest {path} lists no views")
    if not isinstance(view_paths, list) or not all(isinstance(p, str) for p in view_paths):
        raise ValueError(f"manifest {path}: views must be a list of file names")
    if "labels" not in manifest:
        raise ValueError(f"manifest {path} lists no labels file")
    for key in ("labels", "view_mask", "label_mask"):
        if not isinstance(manifest.get(key, ""), str):
            raise ValueError(f"manifest {path}: {key} must be a file name")

    views = [_load_matrix(base / p) for p in view_paths]
    labels = _load_matrix(base / manifest["labels"])
    n = views[0].shape[0]
    if "view_mask" in manifest:
        view_mask = _load_matrix(base / manifest["view_mask"])
    else:
        view_mask = np.ones((n, len(views)))
    if "label_mask" in manifest:
        label_mask = _load_matrix(base / manifest["label_mask"])
    else:
        label_mask = np.ones_like(labels)

    # Enforce the zero-filling convention up front, loudly if it changes data.
    _check_binary(view_mask, "view_mask")
    _check_binary(label_mask, "label_mask")
    if view_mask.shape == (n, len(views)):
        for v in range(len(views)):
            masked = view_mask[:, v] == 0
            if views[v].shape[0] == n and np.any(views[v][masked] != 0.0):
                warnings.warn(f"view {v}: zero-filling features of masked rows")
                views[v] = _zero_fill(views[v], view_mask[:, v : v + 1])
    if label_mask.shape == labels.shape and np.any(labels[label_mask == 0.0] != 0.0):
        warnings.warn("zero-filling labels at masked entries")
        labels = _zero_fill(labels, label_mask)

    return _adopt(views, labels, view_mask, label_mask)


def save_dataset(ds: MultiViewDataset, out_dir) -> Path:
    """Write a dataset directory (CSVs + manifest); returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "views": [f"view_{v}.csv" for v in range(ds.m)],
        "labels": "labels.csv",
        "view_mask": "view_mask.csv",
        "label_mask": "label_mask.csv",
    }
    for v, x in enumerate(ds.views):
        np.savetxt(out / manifest["views"][v], x, delimiter=",", fmt="%.17g")
    np.savetxt(out / manifest["labels"], ds.labels, delimiter=",", fmt="%d")
    np.savetxt(out / manifest["view_mask"], ds.view_mask, delimiter=",", fmt="%d")
    np.savetxt(out / manifest["label_mask"], ds.label_mask, delimiter=",", fmt="%d")
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# corruption simulators
# ---------------------------------------------------------------------------


def simulate_missing_views(n: int, m: int, ratio: float, seed: int) -> np.ndarray:
    """Binary availability matrix with exactly round(ratio*n) zeros per view.

    Zeros are drawn uniformly per column; rows left with no view are repaired
    by re-enabling one uniformly chosen view and, to preserve that column's
    count, disabling it in a row that currently has the most views available
    (skipped when no such donor row exists).
    """
    if not 0.0 <= ratio < 1.0:
        raise InfeasibleRatio(f"ratio must be in [0, 1), got {ratio}")
    zeros_per_view = round(ratio * n)
    if zeros_per_view * m > n * (m - 1):
        raise InfeasibleRatio(
            f"ratio {ratio} needs {zeros_per_view * m} missing entries but only "
            f"{n * (m - 1)} are compatible with one view per sample"
        )
    rng = np.random.default_rng(seed)
    w = np.ones((n, m))
    for v in range(m):
        drop = rng.choice(n, size=zeros_per_view, replace=False)
        w[drop, v] = 0.0

    # a repair changes two rows, so their sums are updated, not recomputed
    row_sums = w.sum(axis=1)
    for i in np.flatnonzero(row_sums == 0):
        v = int(rng.integers(m))
        w[i, v] = 1.0
        row_sums[i] += 1.0
        available = w[:, v] == 1.0
        available[i] = False
        donors = np.flatnonzero(available & (row_sums >= 2))
        if donors.size:
            best = donors[row_sums[donors] == row_sums[donors].max()]
            donor = rng.choice(best)
            w[donor, v] = 0.0
            row_sums[donor] -= 1.0
    return w


def simulate_missing_labels(labels: np.ndarray, ratio: float, seed: int) -> np.ndarray:
    """Known-label mask hiding floor(ratio * count) positives and negatives per category."""
    if not 0.0 <= ratio < 1.0:
        raise InfeasibleRatio(f"ratio must be in [0, 1), got {ratio}")
    y = np.asarray(labels, dtype=np.float64)
    _check_binary(y, "labels")
    rng = np.random.default_rng(seed)
    g = np.ones_like(y)
    for j in range(y.shape[1]):
        for value in (1.0, 0.0):
            pool = np.flatnonzero(y[:, j] == value)
            hide = int(math.floor(ratio * pool.size))
            if hide:
                g[rng.choice(pool, size=hide, replace=False), j] = 0.0
    return g


# ---------------------------------------------------------------------------
# synthesis and splitting
# ---------------------------------------------------------------------------


def make_synthetic(
    n: int,
    m: int,
    c: int,
    d_latent: int,
    view_dims: list[int],
    noise: float = 0.1,
    seed: int = 0,
) -> MultiViewDataset:
    """Latent-factor synthetic dataset with correlated labels and full masks.

    Each view is a random linear map of shared latent factors plus isotropic
    noise. Label directions are drawn around a small set of shared latent
    axes so that categories co-occur, and thresholds are placed at a random
    per-category quantile so prevalences land in [0.2, 0.5].
    """
    if min(n, m, c, d_latent) < 1:
        raise ValueError("n, m, c, d_latent must all be >= 1")
    if len(view_dims) != m:
        raise DimensionMismatch(f"view_dims has {len(view_dims)} entries for m={m}")
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, d_latent))

    views = []
    scale = 1.0 / math.sqrt(d_latent)
    for d_v in view_dims:
        mixing = rng.standard_normal((d_latent, d_v)) * scale
        x = latent @ mixing
        if noise:
            x = x + noise * rng.standard_normal((n, d_v))
        views.append(x)

    n_directions = max(1, c // 3)
    directions = rng.standard_normal((d_latent, n_directions))
    directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    label_map = np.empty((d_latent, c))
    for j in range(c):
        label_map[:, j] = directions[:, j % n_directions] + 0.5 * rng.standard_normal(d_latent)
    scores = latent @ label_map
    prevalence = rng.uniform(0.2, 0.5, size=c)
    thresholds = np.array(
        [np.quantile(scores[:, j], 1.0 - prevalence[j]) for j in range(c)]
    )
    labels = (scores > thresholds[None, :]).astype(np.float64)

    return _adopt(views, labels, np.ones((n, m)), np.ones((n, c)))


def split(ds: MultiViewDataset, train_ratio: float, seed: int):
    """Seeded random row partition into (train, test); train side rounds down."""
    if not 0.0 < train_ratio < 1.0:
        raise DegenerateSplit(f"train_ratio must be in (0, 1), got {train_ratio}")
    # epsilon guards against 0.7 * 10 -> 6.999... style float artifacts
    n_train = int(math.floor(train_ratio * ds.n + 1e-9))
    if n_train < 1 or n_train >= ds.n:
        raise DegenerateSplit(f"split of {ds.n} rows at ratio {train_ratio} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])
