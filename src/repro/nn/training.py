"""Training loops for transductive node models.

Full-batch training (the whole graph per step, masked loss), Adam by
default, early stopping on the validation metric with best-weights
restore — the standard recipe for small-graph GCN training.

Compilable :class:`~repro.nn.modules.Sequential` stacks run on the
zero-allocation :mod:`repro.nn.engine` workspace (preallocated
buffers, direct sparse kernels, monitor-forward prefix reuse); the
results are bitwise identical to the generic module path, which
remains the fallback for everything the workspace can't compile
(e.g. ``SAGEConv`` stacks) and can be forced with
``TrainingConfig(engine="module")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.nn.losses import mse_loss, nll_loss
from repro.nn.modules import Module
from repro.nn.optim import Adam, Optimizer, SGD
from repro.utils.errors import ModelError

if TYPE_CHECKING:
    from repro.nn.engine import PropagationCache


@dataclass
class TrainingConfig:
    """Hyperparameters for one training run."""

    epochs: int = 300
    lr: float = 0.01
    weight_decay: float = 5e-4
    optimizer: str = "adam"
    patience: int = 60          # early-stopping patience (0 disables)
    class_weights: bool = True  # balance NLL by inverse class frequency
    verbose: bool = False
    #: "auto" compiles supported stacks onto the zero-allocation
    #: engine workspace; "module" forces the generic module path.
    #: Both produce bitwise-identical histories and weights.
    engine: str = "auto"
    #: Opt in to operand-order selection and first-layer propagation
    #: caching in GCN layers.  Algebraically exact but *not* bitwise
    #: identical to the default (float addition is not associative).
    fast_math: bool = False

    def build_optimizer(self, model: Module) -> Optimizer:
        if self.optimizer == "adam":
            return Adam(model.parameters(), lr=self.lr,
                        weight_decay=self.weight_decay)
        if self.optimizer == "sgd":
            return SGD(model.parameters(), lr=self.lr, momentum=0.9,
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
    start of the next optimizer step — into reused buffers, so a long
    improvement streak costs ``copyto`` traffic but zero allocation.
    If training ends while the flag is set, the live weights already
    ARE the best and the restore is a no-op.
    """

    def __init__(self, model: Module):
        self._model = model
        self._snapshot: Optional[List[np.ndarray]] = None
        self._pending = False

    def mark_improved(self) -> None:
        """The weights currently in the model are the new best."""
        self._pending = True

    def before_step(self) -> None:
        """Capture the pending best before the optimizer mutates it."""
        if self._pending:
            if self._snapshot is None:
                self._snapshot = [
                    parameter.value.copy()
                    for parameter in self._model.parameters()
                ]
            else:
                for buffer, parameter in zip(
                    self._snapshot, self._model.parameters()
                ):
                    np.copyto(buffer, parameter.value)
            self._pending = False

    def restore(self) -> None:
        """Put the best-epoch weights back into the model."""
        if self._pending or self._snapshot is None:
            return  # live weights are already the best (or no epochs ran)
        for parameter, value in zip(
            self._model.parameters(), self._snapshot
        ):
            parameter.value[:] = value


def _run_epochs(
    model: Module,
    optimizer: Optimizer,
    config: TrainingConfig,
    history: TrainingHistory,
    train_step: Callable[[], float],
    monitor_step: Callable[[], tuple],
    verbose_line: Callable[[int, float, float], str],
) -> TrainingHistory:
    """The shared epoch skeleton: step, monitor, early-stop, restore.

    ``train_step`` runs one forward/backward and returns the training
    loss; ``monitor_step`` returns ``(metric, accuracy_or_nan)``.  The
    engine and module paths differ only in those two callables.
    """
    best = _BestWeights(model)
    stale = 0
    for epoch in range(config.epochs):
        loss = train_step()
        best.before_step()
        optimizer.step()

        metric, accuracy = monitor_step()
        history.train_loss.append(loss)
        history.val_metric.append(metric)
        if config.verbose and epoch % 20 == 0:
            print(verbose_line(epoch, loss, metric))

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


def _compile(model: Module, x: np.ndarray, config: TrainingConfig,
             cache: Optional[PropagationCache]):
    if config.engine == "module":
        return None
    if config.engine != "auto":
        raise ModelError(f"unknown engine {config.engine!r}")
    from repro.nn.engine import compile_workspace

    return compile_workspace(model, x, fast_math=config.fast_math,
                             cache=cache)


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
    accuracy when no validation mask is given).  On completion the
    model holds the best-validation weights.  ``cache`` is an optional
    shared :class:`~repro.nn.engine.PropagationCache` (used by the
    engine's fast-math first layer).
    """
    from repro.nn.engine import ClassifierObjective, pack_parameters

    config = config or TrainingConfig()
    history = TrainingHistory()
    monitor_mask = val_mask if val_mask is not None else train_mask

    class_weights = None
    if config.class_weights:
        counts = np.bincount(targets[train_mask], minlength=2).astype(float)
        counts[counts == 0.0] = 1.0
        class_weights = counts.sum() / (len(counts) * counts)

    workspace = _compile(model, x, config, cache)
    # On the engine path the optimizer steps all parameters as one
    # packed flat pair (elementwise updates: bitwise identical, one
    # fused pass instead of a per-parameter loop).
    optimizer = config.build_optimizer(
        pack_parameters(model) if workspace is not None else model
    )
    if workspace is not None:
        objective = ClassifierObjective(
            workspace.output, targets, train_mask, monitor_mask,
            class_weights, fast=config.fast_math,
        )

        def train_step() -> float:
            optimizer.zero_grad()
            workspace.forward_train()
            loss = objective.train_loss()
            workspace.backward(objective.grad)
            return loss

        def monitor_step():
            workspace.forward_eval()
            accuracy = objective.monitor_accuracy()
            # Early-stopping metric: accuracy with an NLL tie-breaker,
            # so among equally-accurate epochs the best-calibrated one
            # wins (this keeps probability rankings — and hence
            # ROC/AUC — faithful, not just the argmax).
            return accuracy - 0.1 * objective.monitor_loss(), accuracy

    else:
        def train_step() -> float:
            model.train()
            optimizer.zero_grad()
            log_probs = model.forward(x)
            loss, grad = nll_loss(log_probs, targets, mask=train_mask,
                                  class_weights=class_weights)
            model.backward(grad)
            return loss

        def monitor_step():
            model.eval()
            monitored = model.forward(x)
            predictions = monitored.argmax(axis=1)
            accuracy = float(
                (predictions[monitor_mask] == targets[monitor_mask]).mean()
            )
            monitor_loss, _ = nll_loss(monitored, targets,
                                       mask=monitor_mask)
            return accuracy - 0.1 * monitor_loss, accuracy

    return _run_epochs(
        model, optimizer, config, history, train_step, monitor_step,
        lambda epoch, loss, metric:
            f"epoch {epoch:4d}  loss {loss:.4f}  val {metric:.4f}",
    )


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
    from repro.nn.engine import RegressorObjective, pack_parameters

    config = config or TrainingConfig()
    history = TrainingHistory()
    monitor_mask = val_mask if val_mask is not None else train_mask

    workspace = _compile(model, x, config, cache)
    optimizer = config.build_optimizer(
        pack_parameters(model) if workspace is not None else model
    )
    if workspace is not None:
        objective = RegressorObjective(
            workspace.output, targets, train_mask, monitor_mask
        )

        def train_step() -> float:
            optimizer.zero_grad()
            workspace.forward_train()
            loss = objective.train_loss()
            workspace.backward(objective.grad)
            return loss

        def monitor_step():
            workspace.forward_eval()
            return -objective.monitor_loss(), float("nan")

    else:
        def train_step() -> float:
            model.train()
            optimizer.zero_grad()
            predictions = model.forward(x)
            loss, grad = mse_loss(predictions, targets, mask=train_mask)
            model.backward(grad)
            return loss

        def monitor_step():
            model.eval()
            predictions = model.forward(x).reshape(-1)
            val_loss, _ = mse_loss(predictions, targets,
                                   mask=monitor_mask)
            return -val_loss, float("nan")

    return _run_epochs(
        model, optimizer, config, history, train_step, monitor_step,
        lambda epoch, loss, metric:
            f"epoch {epoch:4d}  loss {loss:.5f}  val-mse {-metric:.5f}",
    )
