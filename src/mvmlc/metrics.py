"""Multi-label ranking metrics: average precision, 1 - ranking loss, macro AUC.

All three are invariant to strictly increasing transforms of the scores and
use an explicit tie convention: ties count half in pairwise comparisons, and
average-precision ranks break ties by ascending label index so results are
deterministic.

Each metric is a whole-matrix numpy pass: one sort along the rows (AP,
1 - RL) or the columns (AUC) of the score matrix, then cumulative sums, so
the cost is a few sorts per matrix and the temporaries are O(n * c).
``compute_report`` sorts the rows once, for AP and 1 - RL together. The
pairwise metrics sum each positive's rank and correct only the tied
positions; those sums are exact, so no sort order changes a value.

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


def _reorder(order, s, y):
    """s and y with each row's entries put in that row of ``order``."""
    flat = order + np.arange(len(order))[:, None] * order.shape[1]
    return s.take(flat), y.take(flat)


def _rank_rows(s, y):
    """Each row's scores and labels in descending score order, ties broken by
    ascending column index (a stable sort)."""
    return _reorder(np.argsort(-s, axis=1, kind="stable"), s, y)


def _ap_ranked(hits):
    """Per row: the AP of its labels ``hits`` in rank order, and whether it
    has a positive label."""
    c = hits.shape[1]
    precision = np.cumsum(hits, axis=1) / np.arange(1, c + 1)
    n_pos = hits.sum(axis=1)
    ok = n_pos > 0
    return (precision * hits).sum(axis=1)[ok] / n_pos[ok], ok


def _tie_offsets(differs, hits):
    """Per row of scores in descending order, where position p of k ranks
    k - p: how much its positives' rank sum grows when each tie group takes
    the mean of its ranks. ``differs[:, p]`` tells whether positions p and
    p + 1 hold other scores. Only tied positions are visited."""
    row, at = np.nonzero(~differs)  # tied neighbours at positions at and at + 1
    # each run of tied neighbours at a, ..., b - 1 in a row is one tie group a..b
    opens = np.ones(row.size, dtype=bool)
    opens[1:] = (row[1:] != row[:-1]) | (at[1:] != at[:-1] + 1)
    first = np.flatnonzero(opens)
    last = np.append(first[1:], row.size) - 1
    a, b, group_row = at[first], at[last] + 1, row[first]
    mean = (a + b) / 2.0
    # a positive at p moves from rank k - p to k - mean, so by p - mean; the
    # neighbour pairs cover each group's positions a..b - 1, and b comes last
    rows = len(hits)
    return (np.bincount(row, hits[row, at] * (at - mean[np.cumsum(opens) - 1]), rows)
            + np.bincount(group_row, hits[group_row, b] * (b - mean), rows))


def _concordance_ranked(ranked_s, hits):
    """Per row of scores in descending order and its labels in that order:
    the fraction of (positive, negative) pairs whose positive scores higher,
    a tie counting half, and whether the row has both kinds."""
    k = hits.shape[1]
    n_pos = hits.sum(axis=1)
    n_neg = k - n_pos
    ok = (n_pos > 0) & (n_neg > 0)
    # the sum of the positives' ascending ranks, a tie group sharing the mean
    # of its ranks; every term is a multiple of a half, so the sum is exact
    # whatever order it is taken in
    rank_sum = hits @ np.arange(k, 0, -1.0)
    differs = ranked_s[:, 1:] != ranked_s[:, :-1]
    if not differs.all():
        rank_sum += _tie_offsets(differs, hits)
    # Mann-Whitney count of concordant (pos above neg) pairs, ties at 0.5
    concordant = rank_sum - n_pos * (n_pos + 1) / 2.0
    return concordant[ok] / (n_pos[ok] * n_neg[ok]), ok


def _ap(s, y):
    """Per row: the AP of its label ranking, and whether it has a positive label."""
    return _ap_ranked(_rank_rows(s, y)[1])


def _concordance(s, y):
    """``_concordance_ranked`` of each row of s, labelled by y. A transposed
    matrix is copied to contiguous rows first, which sort and gather faster."""
    s, y = np.ascontiguousarray(s), np.ascontiguousarray(y)
    # descending; the order inside a tie group is irrelevant
    return _concordance_ranked(*_reorder(np.argsort(s, axis=1)[:, ::-1], s, y))


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
    ranked_s, hits = _rank_rows(s, y)
    ap, ap_ok = _ap_ranked(hits)
    fraction, rl_ok = _concordance_ranked(ranked_s, hits)
    rl = 1.0 - fraction
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
