"""Tests for classification/ROC/regression metrics."""

import numpy as np
import pytest

from repro.metrics import (
    ConfusionMatrix,
    accuracy,
    auc_score,
    balanced_accuracy,
    classification_conformity,
    mae,
    mse,
    pearson,
    r2,
    roc_curve,
    spearman,
)
from repro.utils.errors import ModelError


def test_accuracy():
    assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 0])) == (
        pytest.approx(2 / 3)
    )
    with pytest.raises(ModelError):
        accuracy(np.array([]), np.array([]))
    with pytest.raises(ModelError):
        accuracy(np.array([1]), np.array([1, 0]))


def test_confusion_matrix():
    y_true = np.array([1, 1, 0, 0, 1])
    y_pred = np.array([1, 0, 0, 1, 1])
    matrix = ConfusionMatrix.from_predictions(y_true, y_pred)
    assert (matrix.true_positive, matrix.false_negative) == (2, 1)
    assert (matrix.true_negative, matrix.false_positive) == (1, 1)
    assert matrix.tpr == pytest.approx(2 / 3)
    assert matrix.fpr == pytest.approx(1 / 2)
    assert matrix.precision == pytest.approx(2 / 3)
    assert matrix.f1 == pytest.approx(2 / 3)
    row = matrix.as_dict()
    assert row["TP"] == 2 and row["FPR"] == 0.5


def test_balanced_accuracy():
    y_true = np.array([1, 1, 1, 1, 0])
    always_one = np.ones(5, dtype=int)
    assert accuracy(y_true, always_one) == pytest.approx(0.8)
    assert balanced_accuracy(y_true, always_one) == pytest.approx(0.5)


class TestRoc:
    def test_perfect_classifier(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        curve = roc_curve(y, scores)
        assert curve.auc == pytest.approx(1.0)
        assert curve.tpr[-1] == 1.0 and curve.fpr[-1] == 1.0
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0

    def test_inverted_classifier(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(y, scores) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 4000)
        scores = rng.random(4000)
        assert auc_score(y, scores) == pytest.approx(0.5, abs=0.05)

    def test_auc_equals_rank_statistic(self):
        """AUC == P(score_pos > score_neg) (Mann-Whitney)."""
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 200)
        scores = rng.normal(size=200) + y  # informative
        curve = roc_curve(y, scores)
        positives = scores[y == 1]
        negatives = scores[y == 0]
        wins = (positives[:, None] > negatives[None, :]).mean()
        assert curve.auc == pytest.approx(wins, abs=1e-9)

    def test_monotone_curve(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 100)
        curve = roc_curve(y, rng.random(100))
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_at_fpr_interpolation(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        curve = roc_curve(y, scores)
        assert curve.at_fpr(0.0) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ModelError):
            roc_curve(np.ones(4), np.random.rand(4))


class TestRegressionMetrics:
    def test_mse_mae(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 5.0])
        assert mse(a, b) == pytest.approx(5 / 3)
        assert mae(a, b) == pytest.approx(1.0)

    def test_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y) == pytest.approx(1.0)
        assert r2(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_pearson_known(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(a, 2 * a + 1) == pytest.approx(1.0)
        assert pearson(a, -a) == pytest.approx(-1.0)
        assert pearson(a, np.ones(4)) == 0.0  # constant -> 0 by contract

    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=50), rng.normal(size=50)
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1])

    def test_spearman_rank_invariance(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.exp(a)  # monotone transform
        assert spearman(a, b) == pytest.approx(1.0)

    def test_spearman_with_ties(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([2.0, 2.0, 4.0, 9.0])
        assert spearman(a, b) == pytest.approx(1.0)

    def test_conformity(self):
        scores = np.array([0.7, 0.3, 0.55, 0.1])
        labels = np.array([1, 0, 0, 0])
        assert classification_conformity(scores, labels) == (
            pytest.approx(0.75)
        )

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            mse(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ModelError):
            classification_conformity(np.array([0.5]), np.array([1, 0]))


class TestMcNemar:
    def test_identical_predictions(self):
        from repro.metrics import mcnemar_test

        y = np.array([0, 1, 0, 1, 1])
        p = np.array([0, 1, 1, 1, 0])
        result = mcnemar_test(y, p, p)
        assert result.p_value == 1.0
        assert result.discordant == 0

    def test_one_sided_dominance_is_significant(self):
        from repro.metrics import mcnemar_test

        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 200)
        perfect = y.copy()
        noisy = y.copy()
        flips = rng.choice(200, 30, replace=False)
        noisy[flips] = 1 - noisy[flips]
        result = mcnemar_test(y, perfect, noisy)
        assert result.a_right_b_wrong == 30
        assert result.a_wrong_b_right == 0
        assert result.p_value < 1e-6

    def test_symmetric_disagreement_not_significant(self):
        from repro.metrics import mcnemar_test

        y = np.zeros(40, dtype=int)
        a = y.copy()
        b = y.copy()
        a[:10] = 1   # a wrong on 10
        b[10:20] = 1  # b wrong on a different 10
        result = mcnemar_test(y, a, b)
        assert result.a_right_b_wrong == 10
        assert result.a_wrong_b_right == 10
        assert result.p_value > 0.5

    def test_exact_small_sample_value(self):
        from repro.metrics import mcnemar_test

        # 5 discordant, 0/5 split: p = 2 * 0.5^5 = 0.0625
        y = np.zeros(5, dtype=int)
        a = np.zeros(5, dtype=int)        # always right
        b = np.ones(5, dtype=int)         # always wrong
        result = mcnemar_test(y, a, b)
        assert result.p_value == pytest.approx(2 * 0.5**5)

    def test_pooled_folds(self):
        from repro.metrics import pooled_mcnemar

        y_folds = [np.array([0, 1]), np.array([1, 0])]
        a_folds = [np.array([0, 1]), np.array([1, 0])]   # perfect
        b_folds = [np.array([1, 1]), np.array([1, 1])]   # half wrong
        result = pooled_mcnemar(y_folds, a_folds, b_folds)
        assert result.a_right_b_wrong == 2
        assert result.discordant == 2

    def test_validation(self):
        from repro.metrics import mcnemar_test
        from repro.utils.errors import ModelError

        with pytest.raises(ModelError):
            mcnemar_test(np.array([1]), np.array([1, 0]),
                         np.array([1, 0]))

    def test_matches_scipy_binomial_tail(self):
        """The exact integer tail agrees with scipy's binomial CDF over
        discordant counts up to 2000 and every split up to n // 2."""
        from scipy.stats import binom

        from repro.metrics import mcnemar_test

        sizes = list(range(1, 41)) + [
            64, 99, 128, 255, 500, 1023, 1024, 1501, 2000,
        ]
        worst = 0.0
        for n in sizes:
            splits = set(range(0, n // 2 + 1, max(1, n // 64)))
            splits.add(n // 2)
            for k in sorted(splits):
                y = np.zeros(n, dtype=int)
                a = (np.arange(n) >= k).astype(int)  # wrong on n - k
                b = 1 - a                            # wrong on k
                result = mcnemar_test(y, a, b)
                assert result.a_right_b_wrong == k
                assert result.a_wrong_b_right == n - k
                expected = min(1.0, 2.0 * float(binom.cdf(k, n, 0.5)))
                worst = max(worst, abs(result.p_value - expected))
        assert worst <= 1e-12
