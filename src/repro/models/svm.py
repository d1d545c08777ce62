"""Support-vector-machine baseline (kernelized Pegasos).

Pegasos (Shalev-Shwartz et al., 2011) solves the SVM objective by
stochastic sub-gradient steps; the kernelized variant keeps per-sample
dual coefficients, supporting RBF and linear kernels without a QP
solver.  Probabilities come from Platt scaling (a 1-D logistic fit on
the decision values).

No n × n Gram matrix is ever held.  The fit keeps the score vector
``f = K (α ∘ y)`` current: a step whose margin test (which reads
``f[i]``) fails adds the visited sample's signed kernel column to
``f``.  Kernel columns are computed only for the next ``B`` visits of
the shuffled schedule, into two ``(B, n)`` buffers allocated once per
fit and refilled in place, with ``B`` set by :data:`BLOCK_BYTES`.  The
decision function sums over support vectors (``α > 0``) only, in row
blocks under the same budget.  Memory is therefore O(n·B).  The visit
order, margin rule and step count are those of the textbook loop over
a precomputed Gram; only the rounding of the scores differs, which
leaves ``α`` unchanged on every input tested.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import BaseClassifier, register_classifier
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng

#: Bytes of kernel scratch per block: two ``(rows, columns)`` float64
#: buffers share it.  Blocks are refilled in place, never reallocated:
#: a fresh allocation per block this size page-faults on every block.
BLOCK_BYTES = 1 << 20


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix between row sets ``a`` and ``b``."""
    out = np.empty((len(a), len(b)))
    return _rbf_into(a, (a ** 2).sum(axis=1), b, (b ** 2).sum(axis=1),
                     gamma, out, np.empty_like(out))


def linear_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Plain dot-product kernel (gamma unused)."""
    return a @ b.T


def _rbf_into(a: np.ndarray, a_squared: np.ndarray, b: np.ndarray,
              b_squared: np.ndarray, gamma: float, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """``rbf_kernel(a, b, gamma)`` written into ``out``, with ``scratch``
    of the same shape, allocating nothing of that shape.  The squared
    row norms are passed in so callers compute them once."""
    np.matmul(a, b.T, out=out)
    out *= 2.0
    np.add(a_squared[:, None], b_squared[None, :], out=scratch)
    np.subtract(scratch, out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= -gamma
    return np.exp(out, out=out)


def _block_rows(width: int) -> int:
    """Rows per block such that two ``(rows, width)`` float64 buffers
    fit :data:`BLOCK_BYTES` (at least one row)."""
    return max(1, BLOCK_BYTES // (2 * 8 * max(width, 1)))


@register_classifier("SVM")
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
        self._alpha: Optional[np.ndarray] = None
        self._support: Optional[np.ndarray] = None
        self._support_squared: Optional[np.ndarray] = None
        self._support_coef: Optional[np.ndarray] = None
        self._steps = 0
        self._platt = (1.0, 0.0)  # (scale, offset)

    def _kernel_into(self, a: np.ndarray, a_squared: np.ndarray,
                     b: np.ndarray, b_squared: np.ndarray,
                     out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """This model's kernel between rows ``a`` and ``b``, written
        into ``out`` (``scratch`` is the RBF's second buffer)."""
        if self.kernel_name == "rbf":
            return _rbf_into(a, a_squared, b, b_squared, self.gamma,
                             out, scratch)
        return np.matmul(a, b.T, out=out)

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

        squared = (x ** 2).sum(axis=1)
        block = min(_block_rows(len(y)), len(schedule))
        columns = np.empty((block, len(y)))
        scratch = np.empty_like(columns)
        signs = y_signed.tolist()
        scores = np.zeros(len(y))  # f = K (alpha * y_signed)
        alpha = np.zeros(len(y))
        step = 0
        for _ in range(self.epochs):
            rng.shuffle(schedule)
            for start in range(0, len(schedule), block):
                visits = schedule[start:start + block]
                kernel = self._kernel_into(
                    x[visits], squared[visits], x, squared,
                    columns[:len(visits)], scratch[:len(visits)],
                )
                for row, index in enumerate(visits.tolist()):
                    step += 1
                    margin = signs[index] * scores[index] / (
                        self.regularization * step
                    )
                    if margin < 1.0:
                        alpha[index] += 1.0
                        if signs[index] > 0.0:
                            scores += kernel[row]
                        else:
                            scores -= kernel[row]

        support = alpha > 0.0
        self._alpha = alpha
        self._support = x[support]
        self._support_squared = squared[support]
        self._support_coef = (alpha * y_signed)[support]
        self._steps = step
        self._fit_platt(x, y)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self._alpha is None:
            raise ModelError("predict before fit")
        x = np.asarray(x, dtype=np.float64)
        squared = (x ** 2).sum(axis=1)
        support = self._support
        block = min(_block_rows(len(support)), max(len(x), 1))
        rows = np.empty((block, len(support)))
        scratch = np.empty_like(rows)
        decisions = np.empty(len(x))
        for start in range(0, len(x), block):
            stop = min(start + block, len(x))
            kernel = self._kernel_into(
                x[start:stop], squared[start:stop],
                support, self._support_squared,
                rows[:stop - start], scratch[:stop - start],
            )
            np.matmul(kernel, self._support_coef,
                      out=decisions[start:stop])
        decisions /= self.regularization * self._steps
        return decisions

    def _fit_platt(self, x: np.ndarray, y: np.ndarray) -> None:
        """1-D logistic fit mapping decision values to probabilities."""
        decisions = self.decision_function(x)
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
