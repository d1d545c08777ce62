"""Support-vector-machine baseline (kernelized Pegasos).

Pegasos (Shalev-Shwartz et al., 2011) solves the SVM objective by
stochastic sub-gradient steps; the kernelized variant keeps per-sample
dual coefficients, supporting RBF and linear kernels without a QP
solver.  Probabilities come from Platt scaling (a 1-D logistic fit on
the decision values).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import BaseClassifier
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix between row sets ``a`` and ``b``."""
    squared = (
        (a ** 2).sum(axis=1)[:, None]
        + (b ** 2).sum(axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.exp(-gamma * np.maximum(squared, 0.0))


def linear_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Plain dot-product kernel (gamma unused)."""
    return a @ b.T


class SVMClassifier(BaseClassifier):
    """Binary SVM with RBF (default) or linear kernel."""

    def __init__(self, kernel: str = "rbf", gamma: float = 0.5,
                 regularization: float = 1e-3, epochs: int = 20,
                 seed: SeedLike = 0, balanced: bool = True):
        if kernel not in ("rbf", "linear"):
            raise ModelError(f"unknown kernel {kernel!r}")
        self.kernel_name = kernel
        self.gamma = gamma
        self.regularization = regularization
        self.epochs = epochs
        self.seed = seed
        self.balanced = balanced
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._y_signed: Optional[np.ndarray] = None
        self._steps = 0
        self._platt = (1.0, 0.0)  # (scale, offset)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        kernel = rbf_kernel if self.kernel_name == "rbf" else linear_kernel
        return kernel(a, b, self.gamma)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SVMClassifier":
        self._check_training_data(x, y)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        y_signed = 2.0 * y - 1.0
        rng = derive_rng(self.seed, "svm-pegasos")

        repeat = np.ones(len(y), dtype=np.int64)
        if self.balanced:
            # Oversample the minority class in the visit schedule.
            counts = np.bincount(y, minlength=2)
            minority = int(np.argmin(counts))
            ratio = max(1, int(round(counts[1 - minority]
                                     / max(counts[minority], 1))))
            repeat[y == minority] = ratio
        schedule = np.repeat(np.arange(len(y)), repeat)

        gram = self._kernel(x, x)
        alpha = np.zeros(len(y))
        step = 0
        for _ in range(self.epochs):
            rng.shuffle(schedule)
            for index in schedule:
                step += 1
                margin = y_signed[index] * (
                    (alpha * y_signed) @ gram[:, index]
                ) / (self.regularization * step)
                if margin < 1.0:
                    alpha[index] += 1.0

        self._x = x
        self._alpha = alpha
        self._y_signed = y_signed
        self._steps = step
        self._fit_platt(y)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self._alpha is None:
            raise ModelError("predict before fit")
        kernel = self._kernel(np.asarray(x, dtype=np.float64), self._x)
        return kernel @ (self._alpha * self._y_signed) / (
            self.regularization * self._steps
        )

    def _fit_platt(self, y: np.ndarray) -> None:
        """1-D logistic fit mapping decision values to probabilities."""
        decisions = self.decision_function(self._x)
        scale, offset = 1.0, 0.0
        lr = 0.1
        for _ in range(200):
            probability = 1.0 / (
                1.0 + np.exp(-np.clip(scale * decisions + offset, -60, 60))
            )
            residual = probability - y
            grad_scale = (residual * decisions).mean()
            grad_offset = residual.mean()
            scale -= lr * grad_scale
            offset -= lr * grad_offset
        self._platt = (scale, offset)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        scale, offset = self._platt
        decisions = self.decision_function(x)
        positive = 1.0 / (
            1.0 + np.exp(-np.clip(scale * decisions + offset, -60, 60))
        )
        return np.column_stack([1.0 - positive, positive])
