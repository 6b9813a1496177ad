"""Brute-force ranking metrics used to check ``mvmlc.metrics.compute_report``.

Each metric enumerates every pair it compares with numpy broadcasting. None
of it shares code or method (ranks, sorting) with the implementation under
test, which ranks scores. Conventions match ``compute_report``: ties count
half in pairwise comparisons, average-precision ranks break ties by ascending
label index, and degenerate rows or labels are skipped.
"""

from __future__ import annotations

import numpy as np


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    c = scores.shape[1]
    index = np.arange(c)
    # ahead[i, k, j]: label j is ranked above label k in row i
    ahead = (scores[:, None, :] > scores[:, :, None]) | (
        (scores[:, None, :] == scores[:, :, None]) & (index[None, :] < index[:, None])
    )
    pos = labels == 1
    rank = 1 + ahead.sum(axis=2)
    hits = 1 + (ahead & pos[:, None, :]).sum(axis=2)
    per_row = np.where(pos, hits / rank, 0.0).sum(axis=1)
    counts = pos.sum(axis=1)
    keep = counts > 0
    return float(np.mean(per_row[keep] / counts[keep]))


def _violation_share(pos_scores, neg_scores, pos, neg):
    """Mean over (pos, neg) pairs of 1 for pos < neg and 0.5 for a tie."""
    below = pos_scores[:, None] < neg_scores[None, :]
    tied = pos_scores[:, None] == neg_scores[None, :]
    pairs = pos[:, None] & neg[None, :]
    return ((below + 0.5 * tied) * pairs).sum() / pairs.sum()


def one_minus_ranking_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    values = []
    for s, y in zip(scores, labels):
        pos, neg = y == 1, y == 0
        if pos.any() and neg.any():
            values.append(_violation_share(s, s, pos, neg))
    return 1.0 - float(np.mean(values))


def macro_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    values = []
    for s, y in zip(scores.T, labels.T):
        pos, neg = y == 1, y == 0
        if pos.any() and neg.any():
            values.append(1.0 - _violation_share(s, s, pos, neg))
    return float(np.mean(values))
