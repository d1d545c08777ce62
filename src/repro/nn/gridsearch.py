"""Hyperparameter grid search (§3.3.2 of the paper).

Sweeps layer counts, hidden widths, dropout and learning rate for a
model-builder callback, training each candidate and ranking by
validation accuracy.  Used by the Table 1 benchmark to confirm the
published architecture is the grid's winner.

Candidates are independent deterministic trainings, so ``jobs > 1``
fans them out over the supervised fork worker pool
(:func:`~repro.utils.workerpool.map_supervised`); results are
reassembled in grid-product order before the (stable)
ranking sort, so the pooled ranking is bitwise identical to serial.
Each candidate's validation accuracy comes from the training history's
recorded best-epoch accuracy — the restored best weights would
reproduce it exactly, so the old extra post-training forward per
candidate is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.modules import GCNConv, Module, Sequential
from repro.nn.training import TrainingConfig, train_classifier
from repro.utils.errors import ModelError
from repro.utils.workerpool import map_supervised

if TYPE_CHECKING:
    from repro.nn.engine import PropagationCache

#: builder(hidden_dims, dropout, seed) -> Module
ModelBuilder = Callable[[Sequence[int], float, int], Module]


@dataclass
class GridPoint:
    """One evaluated hyperparameter combination."""

    hidden_dims: tuple
    dropout: float
    lr: float
    val_accuracy: float
    best_epoch: int

    def describe(self) -> str:
        dims = "-".join(str(d) for d in self.hidden_dims)
        return (
            f"layers={len(self.hidden_dims) + 1} dims={dims} "
            f"dropout={self.dropout} lr={self.lr}"
        )


@dataclass
class GridSearchResult:
    """All evaluated points, best first."""

    points: List[GridPoint] = field(default_factory=list)

    @property
    def best(self) -> GridPoint:
        if not self.points:
            raise ModelError("empty grid search")
        return self.points[0]

    def table(self) -> List[Dict[str, object]]:
        """Rows for report rendering."""
        return [
            {
                "hidden dims": "-".join(str(d) for d in p.hidden_dims),
                "dropout": p.dropout,
                "lr": p.lr,
                "val accuracy": round(p.val_accuracy, 4),
            }
            for p in self.points
        ]


def _warm_propagation(model: Module, x: np.ndarray,
                      cache: PropagationCache) -> None:
    """Precompute the first convolution's ``A* @ X`` into ``cache``.

    Called before any candidate trains, so pool workers inherit the
    shared product copy-on-write instead of each recomputing it."""
    if not isinstance(model, Sequential):
        return
    for module in model.modules:
        if isinstance(module, GCNConv):
            cache.get(module.a_norm, x)
        break


def grid_search(
    builder: ModelBuilder,
    x: np.ndarray,
    targets: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    hidden_dim_options: Sequence[Sequence[int]] = (
        (16,), (16, 32), (16, 32, 64), (32, 64),
    ),
    dropout_options: Sequence[float] = (0.0, 0.3, 0.5),
    lr_options: Sequence[float] = (0.01,),
    epochs: int = 200,
    seed: int = 0,
    jobs: int = 1,
    fast_math: bool = False,
    cache: Optional[PropagationCache] = None,
) -> GridSearchResult:
    """Evaluate every combination and rank by validation accuracy.

    ``jobs`` trains candidates in parallel pool workers (``0`` = all
    cores, ``1`` = serial; the ranking is identical either way).
    ``fast_math`` opts candidate trainings into the engine's reordered
    kernels and shared first-layer propagation ``cache`` — one product
    amortized across the whole grid.
    """
    # Imported here, before any pool forks, so workers share its code.
    from repro.nn.engine import PropagationCache

    combos = list(product(hidden_dim_options, dropout_options, lr_options))
    if cache is None:
        cache = PropagationCache()

    def evaluate(combo) -> GridPoint:
        hidden_dims, dropout, lr = combo
        model = builder(tuple(hidden_dims), dropout, seed)
        config = TrainingConfig(epochs=epochs, lr=lr, patience=40,
                                fast_math=fast_math)
        history = train_classifier(
            model, x, targets, train_mask, val_mask, config,
            cache=cache,
        )
        if history.best_epoch >= 0:
            accuracy = history.best_val_accuracy
        else:  # zero-epoch run: score the untrained weights
            model.eval()
            predictions = model.forward(x).argmax(axis=1)
            accuracy = float(
                (predictions[val_mask] == targets[val_mask]).mean()
            )
        return GridPoint(
            hidden_dims=tuple(hidden_dims),
            dropout=dropout,
            lr=lr,
            val_accuracy=accuracy,
            best_epoch=history.best_epoch,
        )

    if fast_math and combos:
        _warm_propagation(
            builder(tuple(combos[0][0]), combos[0][1], seed), x, cache,
        )
    points = map_supervised(
        evaluate, combos, jobs,
        lambda combo: (f"grid candidate dims={tuple(combo[0])} "
                       f"dropout={combo[1]} lr={combo[2]}"),
    )

    points.sort(key=lambda p: p.val_accuracy, reverse=True)
    return GridSearchResult(points=points)
