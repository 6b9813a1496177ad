"""Multi-label ranking metrics: average precision, 1 - ranking loss, macro AUC.

All three are invariant to strictly increasing transforms of the scores and
use an explicit tie convention: ties count half in pairwise comparisons, and
average-precision ranks break ties by ascending label index so results are
deterministic.

Each metric is a whole-matrix numpy pass: one sort along the rows (AP,
1 - RL) or the columns (AUC) of the score matrix, then cumulative sums, so
the cost is a few sorts per matrix and the temporaries are O(n * c).

Degenerate rows/columns (no positive label for AP; missing a positive or a
negative for the pairwise metrics) are skipped and counted rather than
scored. A NaN score has no place in a ranking and raises NonFiniteScores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, NoEvaluableLabels, NoEvaluableSamples, NonBinary,
                     NonFiniteScores)


def _validate(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 2:
        raise DimensionMismatch(f"scores {s.shape} and labels {y.shape} must be equal 2-D shapes")
    if not np.all((y == 0) | (y == 1)):
        raise NonBinary("labels contain values outside {0, 1}")
    if np.isnan(s).any():
        raise NonFiniteScores(f"{int(np.isnan(s).sum())} of {s.size} scores are NaN")
    return s, y


# The _*_with_counts helpers take the float64 (scores, labels) pair that
# _validate returns and give (total, evaluated, skipped).

def _ap_with_counts(s, y):
    n, c = s.shape
    # descending score, ties broken by ascending label index (stable sort)
    order = np.argsort(-s, axis=1, kind="stable")
    hits = np.take_along_axis(y, order, axis=1)
    precision = np.cumsum(hits, axis=1) / np.arange(1, c + 1)
    n_pos = hits.sum(axis=1)
    has_pos = n_pos > 0
    total = ((precision * hits).sum(axis=1)[has_pos] / n_pos[has_pos]).sum()
    evaluated = int(has_pos.sum())
    return float(total), evaluated, n - evaluated


def average_precision(scores, labels) -> float:
    """Mean over samples of the average precision of their label ranking."""
    total, evaluated, _ = _ap_with_counts(*_validate(scores, labels))
    if evaluated == 0:
        raise NoEvaluableSamples("no sample has a positive label")
    return total / evaluated


def _concordance(s, y):
    """Per row: the fraction of (positive, negative) pairs whose positive
    scores higher, a tie counting half, and whether the row has both kinds."""
    rows, k = s.shape
    order = np.argsort(s, axis=1)  # the order inside a tie group is irrelevant
    sorted_s = np.take_along_axis(s, order, axis=1)
    # 1-based ascending ranks; a tie group spans ranks start..end
    rank = np.broadcast_to(np.arange(1, k + 1), (rows, k))
    first = np.ones((rows, k), dtype=bool)
    first[:, 1:] = sorted_s[:, 1:] != sorted_s[:, :-1]
    last = np.ones((rows, k), dtype=bool)
    last[:, :-1] = first[:, 1:]
    start = np.maximum.accumulate(np.where(first, rank, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, rank, k + 1)[:, ::-1], axis=1)[:, ::-1]
    pos = np.take_along_axis(y, order, axis=1)
    n_pos = pos.sum(axis=1)
    n_neg = k - n_pos
    ok = (n_pos > 0) & (n_neg > 0)
    # Mann-Whitney count of concordant (pos above neg) pairs, ties at 0.5
    concordant = ((start + end) / 2.0 * pos).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
    return concordant[ok] / (n_pos[ok] * n_neg[ok]), ok


def _rl_with_counts(s, y):
    fraction, ok = _concordance(s, y)
    evaluated = int(ok.sum())
    return float((1.0 - fraction).sum()), evaluated, s.shape[0] - evaluated


def one_minus_ranking_loss(scores, labels) -> float:
    """1 minus the mean fraction of mis-ordered (positive, negative) label
    pairs per sample; a tie counts as half a violation."""
    total, evaluated, _ = _rl_with_counts(*_validate(scores, labels))
    if evaluated == 0:
        raise NoEvaluableSamples("no sample has both a positive and a negative label")
    return 1.0 - total / evaluated


def _auc_with_counts(s, y):
    fraction, ok = _concordance(s.T, y.T)
    evaluated = int(ok.sum())
    return float(fraction.sum()), evaluated, s.shape[1] - evaluated


def macro_auc(scores, labels) -> float:
    """Mean over labels of the Mann-Whitney ROC AUC (ties credited 0.5)."""
    total, evaluated, _ = _auc_with_counts(*_validate(scores, labels))
    if evaluated == 0:
        raise NoEvaluableLabels("no label has both a positive and a negative sample")
    return total / evaluated


@dataclass
class MetricsReport:
    """Evaluation summary plus degenerate-case bookkeeping and run metadata."""

    ap: float
    one_minus_rl: float
    auc: float
    n_eval: int
    skipped: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "one_minus_rl": self.one_minus_rl,
            "auc": self.auc,
            "n_eval": self.n_eval,
            "skipped": dict(self.skipped),
            "meta": dict(self.meta),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(ap=d["ap"], one_minus_rl=d["one_minus_rl"], auc=d["auc"],
                   n_eval=d["n_eval"], skipped=dict(d.get("skipped", {})),
                   meta=dict(d.get("meta", {})))


def compute_report(scores, labels, meta: dict | None = None) -> MetricsReport:
    """All three metrics over one score matrix, with skip counts."""
    s, y = _validate(scores, labels)
    ap_total, ap_eval, ap_skip = _ap_with_counts(s, y)
    rl_total, rl_eval, rl_skip = _rl_with_counts(s, y)
    auc_total, auc_eval, auc_skip = _auc_with_counts(s, y)
    if ap_eval == 0:
        raise NoEvaluableSamples("no sample has a positive label")
    if rl_eval == 0:
        raise NoEvaluableSamples("no sample has both a positive and a negative label")
    if auc_eval == 0:
        raise NoEvaluableLabels("no label has both a positive and a negative sample")
    return MetricsReport(
        ap=ap_total / ap_eval,
        one_minus_rl=1.0 - rl_total / rl_eval,
        auc=auc_total / auc_eval,
        n_eval=s.shape[0],
        skipped={"ap_samples": ap_skip, "rl_samples": rl_skip, "auc_labels": auc_skip},
        meta=meta or {},
    )
