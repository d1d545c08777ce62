"""Train/validation node splits.

The paper trains on a subset of a design's nodes and validates on the
rest (80/20, §4.1).  The split is stratified on the binary label so
small designs keep both classes in the validation fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.arrays import sorted_unique
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng


@dataclass
class Split:
    """Boolean train/validation node masks."""

    train_mask: np.ndarray
    val_mask: np.ndarray

    @property
    def n_train(self) -> int:
        return int(self.train_mask.sum())

    @property
    def n_val(self) -> int:
        return int(self.val_mask.sum())


def stratified_split(
    labels: np.ndarray,
    val_fraction: float = 0.2,
    seed: SeedLike = 0,
) -> Split:
    """Stratified random split of node indices.

    Each label class contributes ``val_fraction`` of its members to the
    validation fold (at least one when the class has two or more
    members).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) == 0:
        raise ModelError("labels must be a non-empty 1-D array")
    if not 0.0 < val_fraction < 1.0:
        raise ModelError(f"val_fraction {val_fraction} outside (0, 1)")

    rng = derive_rng(seed, "stratified_split")
    val_mask = np.zeros(len(labels), dtype=bool)
    for value in sorted_unique(labels):
        members = np.flatnonzero(labels == value)
        rng.shuffle(members)
        count = int(round(val_fraction * len(members)))
        if len(members) >= 2:
            count = max(count, 1)
        count = min(count, len(members) - 1) if len(members) >= 2 else count
        val_mask[members[:count]] = True
    return Split(train_mask=~val_mask, val_mask=val_mask)


def kfold_splits(
    labels: np.ndarray,
    k: int = 5,
    seed: SeedLike = 0,
):
    """Stratified k-fold cross-validation splits.

    Yields ``k`` :class:`Split` objects whose validation folds
    partition the node set; each class's members are spread evenly
    across folds.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) == 0:
        raise ModelError("labels must be a non-empty 1-D array")
    if not 2 <= k <= len(labels):
        raise ModelError(f"k={k} infeasible for {len(labels)} nodes")

    rng = derive_rng(seed, "kfold")
    fold_of = np.zeros(len(labels), dtype=np.int64)
    for value in sorted_unique(labels):
        members = np.flatnonzero(labels == value)
        rng.shuffle(members)
        fold_of[members] = np.arange(len(members)) % k
    for fold in range(k):
        val_mask = fold_of == fold
        if not val_mask.any() or val_mask.all():
            raise ModelError(
                f"fold {fold} degenerate; reduce k or add nodes"
            )
        yield Split(train_mask=~val_mask, val_mask=val_mask)
