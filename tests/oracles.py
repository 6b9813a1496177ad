"""Independent brute-force oracles for the ranking metrics, and a reference
missing-view simulator.

The metric oracles enumerate every pair explicitly and share no code with
the rank-based implementations under test. Each returns None when every
sample/label is degenerate for its metric.

``oracle_simulate_missing_views`` is the straightforward form of
``data.simulate_missing_views``: it re-sums the whole mask after every
repair, where the library updates the two row sums a repair changes.
"""

import numpy as np

from mvmlc.errors import InfeasibleRatio


def oracle_average_precision(scores, labels):
    n, c = scores.shape
    values = []
    for i in range(n):
        pos = np.flatnonzero(labels[i] == 1)
        if pos.size == 0:
            continue
        per_label = []
        for k in pos:
            rank = 1
            hits = 0
            for j in range(c):
                if scores[i, j] > scores[i, k] or (scores[i, j] == scores[i, k] and j < k):
                    rank += 1
                    if labels[i, j] == 1:
                        hits += 1
            hits += 1  # label k itself sits at its own rank
            per_label.append(hits / rank)
        values.append(np.mean(per_label))
    if not values:
        return None
    return float(np.mean(values))


def oracle_one_minus_ranking_loss(scores, labels):
    n, _ = scores.shape
    values = []
    for i in range(n):
        pos = np.flatnonzero(labels[i] == 1)
        neg = np.flatnonzero(labels[i] == 0)
        if pos.size == 0 or neg.size == 0:
            continue
        violations = 0.0
        for p in pos:
            for q in neg:
                if scores[i, p] < scores[i, q]:
                    violations += 1.0
                elif scores[i, p] == scores[i, q]:
                    violations += 0.5
        values.append(violations / (pos.size * neg.size))
    if not values:
        return None
    return 1.0 - float(np.mean(values))


def oracle_macro_auc(scores, labels):
    _, c = scores.shape
    values = []
    for j in range(c):
        pos = np.flatnonzero(labels[:, j] == 1)
        neg = np.flatnonzero(labels[:, j] == 0)
        if pos.size == 0 or neg.size == 0:
            continue
        wins = 0.0
        for p in pos:
            for q in neg:
                if scores[p, j] > scores[q, j]:
                    wins += 1.0
                elif scores[p, j] == scores[q, j]:
                    wins += 0.5
        values.append(wins / (pos.size * neg.size))
    if not values:
        return None
    return float(np.mean(values))


def oracle_simulate_missing_views(n, m, ratio, seed):
    if not 0.0 <= ratio < 1.0:
        raise InfeasibleRatio(f"ratio must be in [0, 1), got {ratio}")
    zeros_per_view = round(ratio * n)
    if zeros_per_view * m > n * (m - 1):
        raise InfeasibleRatio(f"ratio {ratio} is infeasible for m={m}")
    rng = np.random.default_rng(seed)
    w = np.ones((n, m))
    for v in range(m):
        drop = rng.choice(n, size=zeros_per_view, replace=False)
        w[drop, v] = 0.0

    for i in np.flatnonzero(w.sum(axis=1) == 0):
        v = int(rng.integers(m))
        w[i, v] = 1.0
        available = w[:, v] == 1.0
        available[i] = False
        row_sums = w.sum(axis=1)
        donors = np.flatnonzero(available & (row_sums >= 2))
        if donors.size:
            best = donors[row_sums[donors] == row_sums[donors].max()]
            w[rng.choice(best), v] = 0.0
    return w
