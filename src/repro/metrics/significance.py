"""Statistical significance tests for classifier comparisons.

Accuracy differences on small validation folds can be noise; McNemar's
exact test is the standard paired comparison for two classifiers
evaluated on the same examples — it looks only at the *discordant*
cases (one right, the other wrong).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ModelError


@dataclass
class McNemarResult:
    """Outcome of a paired McNemar comparison."""

    a_right_b_wrong: int
    a_wrong_b_right: int
    p_value: float

    @property
    def discordant(self) -> int:
        return self.a_right_b_wrong + self.a_wrong_b_right

    def describe(self) -> str:
        return (
            f"discordant {self.a_right_b_wrong}/"
            f"{self.a_wrong_b_right}, exact p = {self.p_value:.4f}"
        )


def mcnemar_test(
    y_true: np.ndarray,
    predictions_a: np.ndarray,
    predictions_b: np.ndarray,
) -> McNemarResult:
    """Exact (binomial) McNemar test on paired predictions.

    Under the null hypothesis the two classifiers are equally accurate,
    so each discordant example is a fair coin; the p-value is the
    two-sided exact binomial tail.  With zero discordant examples the
    classifiers are indistinguishable (p = 1).
    """
    y_true = np.asarray(y_true)
    predictions_a = np.asarray(predictions_a)
    predictions_b = np.asarray(predictions_b)
    if not (y_true.shape == predictions_a.shape == predictions_b.shape):
        raise ModelError("prediction arrays are misaligned")
    if y_true.ndim != 1 or len(y_true) == 0:
        raise ModelError("need a non-empty 1-D evaluation set")

    correct_a = predictions_a == y_true
    correct_b = predictions_b == y_true
    a_right_b_wrong = int((correct_a & ~correct_b).sum())
    a_wrong_b_right = int((~correct_a & correct_b).sum())
    discordant = a_right_b_wrong + a_wrong_b_right
    if discordant == 0:
        return McNemarResult(0, 0, 1.0)

    k = min(a_right_b_wrong, a_wrong_b_right)
    p_value = min(1.0, _two_sided_tail(k, discordant))
    return McNemarResult(a_right_b_wrong, a_wrong_b_right, p_value)


def _two_sided_tail(k: int, n: int) -> float:
    """``2 * P(X <= k)`` for ``X ~ Binomial(n, 1/2)``, exactly.

    The tail is a sum of binomial coefficients over ``2**n``; each
    ``C(n, i + 1)`` follows from ``C(n, i)`` by one exact integer
    step, and the final integer division rounds correctly, so the
    only error is the one rounding to float.
    """
    term = total = 1
    for i in range(k):
        term = term * (n - i) // (i + 1)
        total += term
    return (2 * total) / (1 << n)


def pooled_mcnemar(
    y_true_folds,
    predictions_a_folds,
    predictions_b_folds,
) -> McNemarResult:
    """McNemar over concatenated folds (e.g. 5 validation splits):
    pooling discordant counts increases power while every example is
    still compared under identical conditions for both classifiers."""
    y_true = np.concatenate([np.asarray(f) for f in y_true_folds])
    predictions_a = np.concatenate(
        [np.asarray(f) for f in predictions_a_folds]
    )
    predictions_b = np.concatenate(
        [np.asarray(f) for f in predictions_b_folds]
    )
    return mcnemar_test(y_true, predictions_a, predictions_b)
