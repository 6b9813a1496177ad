"""Multi-label ranking metrics: average precision, 1 - ranking loss, macro AUC.

All three are invariant to strictly increasing transforms of the scores and
use an explicit tie convention: ties count half in pairwise comparisons, and
average-precision ranks break ties by ascending label index so results are
deterministic.

Each metric is a whole-matrix numpy pass: one sort along the rows (AP,
1 - RL) or the columns (AUC) of the score matrix, then cumulative sums, so
the cost is a few sorts per matrix and the temporaries are O(n * c).

Each metric's helper (``_ap``, ``_rl``, or ``_concordance`` on the transposed
matrices for AUC) gives one value per unit (sample or label) it can score and
the mask ``ok`` of those units; a degenerate unit (no positive label for AP;
missing a positive or a negative for the pairwise metrics) is skipped and
counted. ``_mean`` averages the values, or raises the metric's typed error
when no unit counts. A NaN score has no place in a ranking and raises
NonFiniteScores.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (DimensionMismatch, NoEvaluableLabels, NoEvaluableSamples, NonBinary,
                     NonFiniteScores)

# Each metric's degenerate case: the error raised when no unit has a value.
_NO_AP = (NoEvaluableSamples, "no sample has a positive label")
_NO_RL = (NoEvaluableSamples, "no sample has both a positive and a negative label")
_NO_AUC = (NoEvaluableLabels, "no label has both a positive and a negative sample")


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


def _mean(values, ok, error) -> float:
    """Mean of ``values`` over the ``ok`` units, or the (type, message) ``error``."""
    evaluated = int(ok.sum())
    if evaluated == 0:
        raise error[0](error[1])
    return float(values.sum()) / evaluated


def _ap(s, y):
    """Per row: the AP of its label ranking, and whether it has a positive label."""
    c = s.shape[1]
    # descending score, ties broken by ascending label index (stable sort)
    order = np.argsort(-s, axis=1, kind="stable")
    hits = np.take_along_axis(y, order, axis=1)
    precision = np.cumsum(hits, axis=1) / np.arange(1, c + 1)
    n_pos = hits.sum(axis=1)
    ok = n_pos > 0
    return (precision * hits).sum(axis=1)[ok] / n_pos[ok], ok


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


def _rl(s, y):
    """Per row: the ranking loss, and whether it has both kinds of label."""
    fraction, ok = _concordance(s, y)
    return 1.0 - fraction, ok


def average_precision(scores, labels) -> float:
    """Mean over samples of the average precision of their label ranking."""
    return _mean(*_ap(*_validate(scores, labels)), _NO_AP)


def one_minus_ranking_loss(scores, labels) -> float:
    """1 minus the mean fraction of mis-ordered (positive, negative) label
    pairs per sample; a tie counts as half a violation."""
    return 1.0 - _mean(*_rl(*_validate(scores, labels)), _NO_RL)


def macro_auc(scores, labels) -> float:
    """Mean over labels of the Mann-Whitney ROC AUC (ties credited 0.5)."""
    s, y = _validate(scores, labels)
    return _mean(*_concordance(s.T, y.T), _NO_AUC)


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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(**d)


def compute_report(scores, labels, meta: dict | None = None) -> MetricsReport:
    """All three metrics over one score matrix, with skip counts."""
    s, y = _validate(scores, labels)
    ap, ap_ok = _ap(s, y)
    rl, rl_ok = _rl(s, y)
    auc, auc_ok = _concordance(s.T, y.T)
    return MetricsReport(
        ap=_mean(ap, ap_ok, _NO_AP),
        one_minus_rl=1.0 - _mean(rl, rl_ok, _NO_RL),
        auc=_mean(auc, auc_ok, _NO_AUC),
        n_eval=s.shape[0],
        skipped={"ap_samples": int((~ap_ok).sum()), "rl_samples": int((~rl_ok).sum()),
                 "auc_labels": int((~auc_ok).sum())},
        meta=meta or {},
    )
