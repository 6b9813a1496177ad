"""Tests for the ranking metrics against independent brute-force oracles.

The oracles (tests/oracles.py) enumerate every pair explicitly and never
share code with the rank-based implementations they check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mvmlc import metrics as mx
from mvmlc.errors import (DimensionMismatch, NoEvaluableLabels, NoEvaluableSamples, NonBinary,
                          NonFiniteScores)
from oracles import (
    oracle_average_precision,
    oracle_macro_auc,
    oracle_one_minus_ranking_loss,
)


def random_instance(rng, force_ties=False):
    n = int(rng.integers(2, 51))
    c = int(rng.integers(2, 21))
    scores = rng.random((n, c))
    if force_ties:
        scores = np.round(scores * 4) / 4  # heavy ties
    labels = (rng.random((n, c)) < rng.uniform(0.2, 0.8)).astype(float)
    return scores, labels


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.1, 0.2]])
        labels = np.array([[1.0, 1.0, 0.0, 0.0]])
        assert mx.average_precision(scores, labels) == 1.0

    def test_single_positive_ranked_last(self):
        scores = np.array([[0.9, 0.5, 0.1]])
        labels = np.array([[0.0, 0.0, 1.0]])
        assert abs(mx.average_precision(scores, labels) - 1.0 / 3.0) < 1e-12

    def test_no_positive_sample_skipped(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[0.0, 0.0], [1.0, 0.0]])
        values, ok = mx._ap(scores, labels)
        assert ok.tolist() == [False, True] and values.shape == (1,)

    def test_all_degenerate_raises(self):
        with pytest.raises(NoEvaluableSamples):
            mx.average_precision(np.ones((2, 3)), np.zeros((2, 3)))

    def test_matches_oracle(self):
        rng = np.random.default_rng(100)
        for trial in range(60):
            scores, labels = random_instance(rng, force_ties=trial % 3 == 0)
            expected = oracle_average_precision(scores, labels)
            if expected is None:
                continue
            assert abs(mx.average_precision(scores, labels) - expected) < 1e-9


class TestOneMinusRankingLoss:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.8, 0.1]])
        labels = np.array([[1.0, 1.0, 0.0]])
        assert mx.one_minus_ranking_loss(scores, labels) == 1.0

    def test_tie_counts_half(self):
        scores = np.array([[0.5, 0.5]])
        labels = np.array([[1.0, 0.0]])
        assert mx.one_minus_ranking_loss(scores, labels) == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(101)
        for trial in range(60):
            scores, labels = random_instance(rng, force_ties=trial % 3 == 0)
            expected = oracle_one_minus_ranking_loss(scores, labels)
            if expected is None:
                continue
            assert abs(mx.one_minus_ranking_loss(scores, labels) - expected) < 1e-9

    def test_all_degenerate_raises(self):
        with pytest.raises(NoEvaluableSamples):
            mx.one_minus_ranking_loss(np.ones((2, 2)), np.ones((2, 2)))


class TestMacroAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9], [0.8], [0.2], [0.1]])
        labels = np.array([[1.0], [1.0], [0.0], [0.0]])
        assert mx.macro_auc(scores, labels) == 1.0

    def test_constant_scores_give_half(self):
        scores = np.ones((6, 3))
        labels = (np.random.default_rng(4).random((6, 3)) < 0.5).astype(float)
        labels[0] = 1  # ensure both classes per column
        labels[1] = 0
        assert mx.macro_auc(scores, labels) == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(102)
        for trial in range(60):
            scores, labels = random_instance(rng, force_ties=trial % 3 == 0)
            expected = oracle_macro_auc(scores, labels)
            if expected is None:
                continue
            assert abs(mx.macro_auc(scores, labels) - expected) < 1e-9

    def test_all_degenerate_raises(self):
        with pytest.raises(NoEvaluableLabels):
            mx.macro_auc(np.ones((2, 2)), np.ones((2, 2)))


class TestInvariances:
    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(103)
        scores, labels = random_instance(rng)
        transformed = np.exp(3.0 * scores) + 7.0
        for f in (mx.average_precision, mx.one_minus_ranking_loss, mx.macro_auc):
            assert abs(f(scores, labels) - f(transformed, labels)) < 1e-12

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(104)
        scores, labels = random_instance(rng)
        perm = rng.permutation(scores.shape[1])
        for f in (mx.average_precision, mx.one_minus_ranking_loss):
            assert abs(f(scores, labels) - f(scores[:, perm], labels[:, perm])) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mx.average_precision(np.ones((2, 3)), np.ones((3, 2)))

    def test_nan_scores_raise(self):
        scores = np.array([[0.9, np.nan, 0.1], [0.2, 0.8, np.nan], [0.5, 0.4, 0.3]])
        labels = np.eye(3)
        for f in (mx.compute_report, mx.average_precision, mx.one_minus_ranking_loss, mx.macro_auc):
            with pytest.raises(NonFiniteScores):
                f(scores, labels)

    def test_non_binary_labels_raise(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1.0, 0.0], [0.0, 0.5]])
        for f in (mx.compute_report, mx.average_precision, mx.one_minus_ranking_loss, mx.macro_auc):
            with pytest.raises(NonBinary):
                f(scores, labels)


class TestReport:
    def test_round_trip_and_ranges(self):
        rng = np.random.default_rng(105)
        scores, labels = random_instance(rng)
        report = mx.compute_report(scores, labels, meta={"seed": 1})
        for value in (report.ap, report.one_minus_rl, report.auc):
            assert 0.0 <= value <= 1.0
        back = mx.MetricsReport.from_dict(report.to_dict())
        assert back.to_json() == report.to_json()

    def test_report_matches_individual_metrics(self):
        rng = np.random.default_rng(106)
        scores, labels = random_instance(rng)
        report = mx.compute_report(scores, labels)
        assert report.ap == mx.average_precision(scores, labels)
        assert report.one_minus_rl == mx.one_minus_ranking_loss(scores, labels)
        assert report.auc == mx.macro_auc(scores, labels)

    def test_report_at_the_paper_label_scale(self):
        # 12 rows of c = 260 labels (Corel5k's count); float32 sigmoids of
        # wide logits saturate at 1, so the scores hold hundreds of ties
        rng = np.random.default_rng(260)
        z = (12.0 * rng.standard_normal((12, 260))).astype(np.float32)
        scores = np.float32(1) / (np.float32(1) + np.exp(-z))
        assert scores.size - np.unique(scores).size > 400
        drawn = (rng.random((12, 260)) < 0.3).astype(float)
        # an all-negative row and an all-positive column cannot share one
        # matrix, so each gets its own
        no_positive_row, all_positive_column = drawn.copy(), drawn.copy()
        no_positive_row[4] = 0.0
        all_positive_column[:, 17] = 1.0
        for labels in (no_positive_row, all_positive_column):
            report = mx.compute_report(scores, labels)
            assert abs(report.ap - oracle_average_precision(scores, labels)) < 1e-12
            assert abs(report.one_minus_rl - oracle_one_minus_ranking_loss(scores, labels)) < 1e-12
            assert abs(report.auc - oracle_macro_auc(scores, labels)) < 1e-12
            # the units each oracle leaves out
            row_pos, col_pos = labels.sum(axis=1), labels.sum(axis=0)
            assert report.skipped == {
                "ap_samples": int((row_pos == 0).sum()),
                "rl_samples": int(((row_pos == 0) | (row_pos == 260)).sum()),
                "auc_labels": int(((col_pos == 0) | (col_pos == 12)).sum())}


# A few values, signed zeros among them, so that most draws hold ties.
TIED_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]


@st.composite
def tied_instances(draw):
    """Scores from TIED_VALUES and labels in which some rows and columns are
    forced to all 0 or all 1 (fill code -1 leaves the drawn labels)."""
    n = draw(st.integers(1, 40))
    c = draw(st.integers(1, 12))
    scores = draw(hnp.arrays(np.float64, (n, c), elements=st.sampled_from(TIED_VALUES)))
    labels = draw(hnp.arrays(np.float64, (n, c), elements=st.sampled_from([0.0, 1.0])))
    row_fill = draw(hnp.arrays(np.int8, n, elements=st.sampled_from([-1, -1, 0, 1])))
    col_fill = draw(hnp.arrays(np.int8, c, elements=st.sampled_from([-1, -1, -1, 0, 1])))
    labels[row_fill >= 0] = row_fill[row_fill >= 0, None]
    labels[:, col_fill >= 0] = col_fill[col_fill >= 0]
    return scores, labels


class TestAgainstOraclesProperty:
    @settings(derandomize=True, deadline=None)
    @given(tied_instances())
    def test_metrics_and_skip_counts(self, instance):
        scores, labels = instance
        n_pos_row = labels.sum(axis=1)
        n_pos_col = labels.sum(axis=0)
        n, c = labels.shape
        cases = [
            (mx.average_precision, mx._ap(scores, labels), oracle_average_precision,
             NoEvaluableSamples, n, int((n_pos_row == 0).sum())),
            (mx.one_minus_ranking_loss, mx._rl(scores, labels), oracle_one_minus_ranking_loss,
             NoEvaluableSamples, n, int(((n_pos_row == 0) | (n_pos_row == c)).sum())),
            (mx.macro_auc, mx._concordance(scores.T, labels.T), oracle_macro_auc,
             NoEvaluableLabels, c, int(((n_pos_col == 0) | (n_pos_col == n)).sum())),
        ]
        for metric, (values, ok), oracle, error, units, skipped in cases:
            assert ok.shape == (units,) and values.shape == (units - skipped,)
            assert int((~ok).sum()) == skipped
            expected = oracle(scores, labels)
            if expected is None:
                with pytest.raises(error):
                    metric(scores, labels)
            else:
                assert abs(metric(scores, labels) - expected) < 1e-12

    @settings(derandomize=True, deadline=None)
    @given(tied_instances())
    def test_report_fields_equal_single_metrics(self, instance):
        scores, labels = instance
        try:
            report = mx.compute_report(scores, labels)
        except (NoEvaluableSamples, NoEvaluableLabels):
            assert None in (oracle_average_precision(scores, labels),
                            oracle_one_minus_ranking_loss(scores, labels),
                            oracle_macro_auc(scores, labels))
            return
        assert report.ap == mx.average_precision(scores, labels)
        assert report.one_minus_rl == mx.one_minus_ranking_loss(scores, labels)
        assert report.auc == mx.macro_auc(scores, labels)
        assert report.n_eval == scores.shape[0]
        assert report.skipped == {
            "ap_samples": int((~mx._ap(scores, labels)[1]).sum()),
            "rl_samples": int((~mx._rl(scores, labels)[1]).sum()),
            "auc_labels": int((~mx._concordance(scores.T, labels.T)[1]).sum())}
