"""Training loops for transductive node models.

Full-batch training (the whole graph per step, masked loss), Adam by
default, early stopping on the validation metric with best-weights
restore — the standard recipe for small-graph GCN training.

Both loops run on the zero-allocation :mod:`repro.nn.engine` workspace
(preallocated buffers, direct sparse kernels, monitor-forward prefix
reuse), which compiles every :class:`~repro.nn.modules.Sequential`
stack the models build and raises :class:`ModelError` for anything
else.  With the default exact semantics the histories and weights are
bitwise those of the module classes' own ``forward``/``backward``
(``tests/test_training_bitwise.py`` locks this against frozen copies
of the pre-engine training code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from repro.nn.modules import Module, Parameter
from repro.nn.optim import Adam, Optimizer, SGD
from repro.utils.errors import ModelError

if TYPE_CHECKING:
    from repro.nn.engine import (
        ClassifierObjective,
        PropagationCache,
        RegressorObjective,
        TrainingWorkspace,
    )


@dataclass
class TrainingConfig:
    """Hyperparameters for one training run."""

    epochs: int = 300
    lr: float = 0.01
    weight_decay: float = 5e-4
    optimizer: str = "adam"
    patience: int = 60          # early-stopping patience (0 disables)
    class_weights: bool = True  # balance NLL by inverse class frequency
    #: Opt in to operand-order selection and first-layer propagation
    #: caching in GCN layers.  Algebraically exact but *not* bitwise
    #: identical to the default (float addition is not associative).
    fast_math: bool = False

    def build_optimizer(self, parameters: List[Parameter]) -> Optimizer:
        if self.optimizer == "adam":
            return Adam(parameters, lr=self.lr,
                        weight_decay=self.weight_decay)
        if self.optimizer == "sgd":
            return SGD(parameters, lr=self.lr, momentum=0.9,
                       weight_decay=self.weight_decay)
        raise ModelError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainingHistory:
    """Per-epoch metrics from one run."""

    train_loss: List[float] = field(default_factory=list)
    val_metric: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_metric: float = -np.inf
    #: Raw monitor accuracy at ``best_epoch`` (classifier runs only).
    #: Because the best-epoch weights are restored on completion and
    #: the eval forward is deterministic, this equals — bitwise — the
    #: accuracy a fresh post-training forward would recompute, which is
    #: how ``grid_search`` avoids a third forward per candidate.
    best_val_accuracy: float = float("nan")


class _BestWeights:
    """Lazy best-epoch weight snapshot for early stopping.

    Copying every improving epoch is wasted work: the weights only
    need preserving if a *later* step is about to overwrite them while
    they are still the restore candidate.  So an improvement merely
    flags the live weights as best, and the actual copy happens at the
    start of the next optimizer step — into a reused buffer, so a long
    improvement streak costs ``copyto`` traffic but zero allocation.
    If training ends while the flag is set, the live weights already
    ARE the best and the restore is a no-op.

    ``weights`` is the packed value buffer every parameter views.
    """

    def __init__(self, weights: np.ndarray):
        self._weights = weights
        self._snapshot: Optional[np.ndarray] = None
        self._pending = False

    def mark_improved(self) -> None:
        """The weights currently in the model are the new best."""
        self._pending = True

    def before_step(self) -> None:
        """Capture the pending best before the optimizer mutates it."""
        if self._pending:
            if self._snapshot is None:
                self._snapshot = self._weights.copy()
            else:
                np.copyto(self._snapshot, self._weights)
            self._pending = False

    def restore(self) -> None:
        """Put the best-epoch weights back into the model."""
        if self._pending or self._snapshot is None:
            return  # live weights are already the best (or no epochs ran)
        self._weights[:] = self._snapshot


def _fit(
    model: Module,
    workspace: TrainingWorkspace,
    objective: Union[ClassifierObjective, RegressorObjective],
    config: TrainingConfig,
) -> TrainingHistory:
    """The epoch loop: step, monitor, early-stop, restore.

    The optimizer steps all parameters as one packed flat pair
    (elementwise updates: bitwise identical to a per-parameter loop,
    one fused pass instead).
    """
    from repro.nn.engine import pack_parameters

    packed = pack_parameters(model)
    optimizer = config.build_optimizer([packed])
    history = TrainingHistory()
    best = _BestWeights(packed.value)
    stale = 0
    for epoch in range(config.epochs):
        optimizer.zero_grad()
        workspace.forward_train()
        loss = objective.train_loss()
        workspace.backward(objective.grad)
        best.before_step()
        optimizer.step()

        workspace.forward_eval()
        metric, accuracy = objective.monitor()
        history.train_loss.append(loss)
        history.val_metric.append(metric)

        if metric > history.best_val_metric:
            history.best_val_metric = metric
            history.best_epoch = epoch
            history.best_val_accuracy = accuracy
            best.mark_improved()
            stale = 0
        else:
            stale += 1
            if config.patience and stale >= config.patience:
                break

    best.restore()
    model.eval()
    return history


def train_classifier(
    model: Module,
    x: np.ndarray,
    targets: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    config: Optional[TrainingConfig] = None,
    cache: Optional[PropagationCache] = None,
) -> TrainingHistory:
    """Train a log-softmax classifier on masked nodes.

    The validation metric is accuracy on ``val_mask`` (training-fold
    accuracy when no validation mask is given) with an NLL
    tie-breaker.  On completion the model holds the best-validation
    weights.  ``cache`` is an optional shared
    :class:`~repro.nn.engine.PropagationCache` (used by the engine's
    fast-math first layer).
    """
    from repro.nn.engine import ClassifierObjective, compile_workspace

    config = config or TrainingConfig()
    workspace = compile_workspace(model, x, fast_math=config.fast_math,
                                  cache=cache)
    objective = ClassifierObjective(
        workspace.output, targets, train_mask,
        val_mask if val_mask is not None else train_mask,
        balance=config.class_weights, fast=config.fast_math,
    )
    return _fit(model, workspace, objective, config)


def train_regressor(
    model: Module,
    x: np.ndarray,
    targets: np.ndarray,
    train_mask: np.ndarray,
    val_mask: Optional[np.ndarray] = None,
    config: Optional[TrainingConfig] = None,
    cache: Optional[PropagationCache] = None,
) -> TrainingHistory:
    """Train a scalar-output regressor on masked nodes.

    The validation metric is negative MSE (higher is better, so early
    stopping shares the classifier's logic).
    """
    from repro.nn.engine import RegressorObjective, compile_workspace

    config = config or TrainingConfig()
    workspace = compile_workspace(model, x, fast_math=config.fast_math,
                                  cache=cache)
    objective = RegressorObjective(
        workspace.output, targets, train_mask,
        val_mask if val_mask is not None else train_mask,
    )
    return _fit(model, workspace, objective, config)
