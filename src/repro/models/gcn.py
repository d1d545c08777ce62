"""The paper's GCN models.

:class:`GCNClassifier` is the exact Table 1 network::

    Layer 1  Graph convolutional layer   In -> 16
    Layer 2  ReLU
    Layer 3  Graph convolutional layer   16 -> 32
    Layer 4  ReLU
    Layer 5  Dropout                     p = 0.3
    Layer 6  Graph convolutional layer   32 -> 64
    Layer 7  ReLU
    Layer 8  Graph convolutional layer   64 -> 2
    Layer 9  LogSoftmax

:class:`GCNRegressor` (§3.4) is the same stack with the log-softmax
removed and the output dimensionality changed from 2 to 1, producing
continuous criticality scores.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.adjacency import CSRMatrix
from repro.graph.data import GraphData
from repro.graph.split import Split
from repro.nn.modules import (
    Dropout,
    GCNConv,
    LogSoftmax,
    Module,
    ReLU,
    SAGEConv,
    Sequential,
)
from repro.nn.training import (
    TrainingConfig,
    TrainingHistory,
    train_classifier,
    train_regressor,
)
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng

#: Table 1 hidden widths.
DEFAULT_HIDDEN_DIMS: Tuple[int, ...] = (16, 32, 64)
#: Table 1 dropout probability (layer 5).
DEFAULT_DROPOUT = 0.3
#: Dropout sits after the second convolution, as in Table 1.
DROPOUT_AFTER_LAYER = 2


def build_gcn_stack(
    in_features: int,
    out_features: int,
    a_norm: CSRMatrix,
    hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
    dropout: float = DEFAULT_DROPOUT,
    log_softmax: bool = True,
    seed: SeedLike = 0,
    conv: str = "gcn",
) -> Sequential:
    """Assemble a Table 1-style stack with configurable widths.

    ``conv`` selects the convolution: ``"gcn"`` (Eq. 2, the paper) or
    ``"sage"`` (GraphSAGE mean aggregation, for the architecture
    ablation — pass the row-normalized, no-self-loop adjacency then).
    """
    if conv not in ("gcn", "sage"):
        raise ModelError(f"unknown convolution {conv!r}")
    layer = GCNConv if conv == "gcn" else SAGEConv
    rng = derive_rng(seed, "gcn-init")
    modules: List[Module] = []
    previous = in_features
    for position, width in enumerate(hidden_dims):
        modules.append(layer(previous, width, a_norm, seed=rng))
        modules.append(ReLU())
        if dropout > 0.0 and position + 1 == DROPOUT_AFTER_LAYER:
            modules.append(Dropout(dropout, seed=rng))
        previous = width
    modules.append(layer(previous, out_features, a_norm, seed=rng))
    if log_softmax:
        modules.append(LogSoftmax())
    return Sequential(*modules)


class _GCNHead:
    """What both heads share: the stack they build, prediction on a
    bound graph, and binding trained weights to a graph."""

    out_features: int
    log_softmax: bool
    #: The eval-mode output on the bound graph, computed on first use;
    #: ``fit``, ``restore`` and ``transfer_to`` bind anew and drop it.
    _bound_output: Optional[np.ndarray] = None

    def _build(self, data: GraphData) -> Sequential:
        return build_gcn_stack(
            data.n_features, self.out_features,
            data.a_norm(self.adjacency_mode, self.self_loops),
            hidden_dims=self.hidden_dims, dropout=self.dropout,
            log_softmax=self.log_softmax, seed=self.seed, conv=self.conv,
        )

    def _require_fitted(self) -> Sequential:
        if self.model is None:
            raise ModelError("predict before fit")
        return self.model

    def _forward(self, data: Optional[GraphData]) -> np.ndarray:
        """The eval-mode output on ``data`` (default: the bound
        graph, whose output is computed once).  Callers derive new
        arrays from it and never hand it out."""
        model = self._require_fitted()
        if data is not None and data is not self._data:
            model.eval()
            return model.forward(data.x)
        if self._bound_output is None:
            model.eval()
            self._bound_output = model.forward(self._data.x)
        return self._bound_output

    def restore(self, data: GraphData,
                weights: Sequence[np.ndarray]) -> "_GCNHead":
        """Bind trained ``weights`` (one array per parameter, in
        order) to ``data``'s graph, ready to predict without training.

        A head read from an archive, trained in a pool worker, or
        transferred to another design comes back this way; its
        predictions equal those of the model the weights came from.
        """
        model = self._build(data)
        parameters = model.parameters()
        if len(parameters) != len(weights):
            raise ModelError(
                "stored weights do not match the reconstructed "
                "architecture"
            )
        for parameter, value in zip(parameters, weights):
            if parameter.value.shape != value.shape:
                raise ModelError(
                    f"weight shape mismatch: {parameter.value.shape} "
                    f"vs {value.shape} (was the model trained on "
                    "different features?)"
                )
            parameter.value[:] = value
        model.eval()
        self.model = model
        self._data = data
        self._bound_output = None
        return self

    def transfer_to(self, data: GraphData) -> "_GCNHead":
        """Bind the trained weights to a *different* design's graph.

        GCN weights are graph-independent (they act on features; the
        propagation matrix is data), so a model trained on one design
        can classify another — the cross-design transfer experiment.
        The target must share the feature set.
        """
        parameters = self._require_fitted().parameters()
        source_in = parameters[0].shape[0]
        if data.n_features != source_in:
            raise ModelError(
                f"transfer target has {data.n_features} features, "
                f"model was trained on {source_in}"
            )
        clone = copy.copy(self)
        clone.history = None
        return clone.restore(
            data, [parameter.value for parameter in parameters]
        )


class GCNClassifier(_GCNHead):
    """Critical-node classifier (§3.3, Table 1 architecture)."""

    name = "GCN"
    out_features = 2
    log_softmax = True

    def __init__(
        self,
        hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
        dropout: float = DEFAULT_DROPOUT,
        adjacency_mode: str = "symmetric",
        self_loops: bool = True,
        seed: SeedLike = 0,
        config: Optional[TrainingConfig] = None,
        conv: str = "gcn",
    ):
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout
        self.conv = conv
        if conv == "sage":
            # Mean aggregation: row-normalized, no self-loops (the
            # node's own features flow through the separate self path).
            adjacency_mode, self_loops = "row", False
        self.adjacency_mode = adjacency_mode
        self.self_loops = self_loops
        self.seed = seed
        self.config = config or TrainingConfig()
        self.model: Optional[Sequential] = None
        self.history: Optional[TrainingHistory] = None
        self._data: Optional[GraphData] = None

    def fit(self, data: GraphData, split: Split) -> "GCNClassifier":
        """Train transductively on the design graph's training fold."""
        self.model = self._build(data)
        self.history = train_classifier(
            self.model, data.x, data.y_class,
            split.train_mask, split.val_mask, self.config,
            cache=data.propagation_cache(),
        )
        self._data = data
        self._bound_output = None
        return self

    def log_probs(self, data: Optional[GraphData] = None) -> np.ndarray:
        """``(N, 2)`` log class probabilities for all nodes."""
        return self._forward(data).copy()

    def predict_proba(self, data: Optional[GraphData] = None) -> np.ndarray:
        """``(N, 2)`` class probabilities for all nodes."""
        return np.exp(self._forward(data))

    def predict(self, data: Optional[GraphData] = None) -> np.ndarray:
        """``argmax(GCN(x))`` hard labels for all nodes (§3.3.1)."""
        return self._forward(data).argmax(axis=1)

    def accuracy(self, mask: np.ndarray,
                 data: Optional[GraphData] = None) -> float:
        """Accuracy over a node mask."""
        data = data if data is not None else self._data
        predictions = self.predict(data)
        return float(
            (predictions[mask] == data.y_class[mask]).mean()
        )


class GCNRegressor(_GCNHead):
    """Criticality-score regressor (§3.4).

    Identical to the classifier except the log-softmax is removed and
    the head outputs one continuous score per node.
    """

    name = "GCN-regressor"
    out_features = 1
    log_softmax = False
    conv = "gcn"

    def __init__(
        self,
        hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
        dropout: float = DEFAULT_DROPOUT,
        adjacency_mode: str = "symmetric",
        self_loops: bool = True,
        seed: SeedLike = 0,
        config: Optional[TrainingConfig] = None,
    ):
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout
        self.adjacency_mode = adjacency_mode
        self.self_loops = self_loops
        self.seed = seed
        self.config = config or TrainingConfig(lr=0.005, epochs=400)
        self.model: Optional[Sequential] = None
        self.history: Optional[TrainingHistory] = None
        self._data: Optional[GraphData] = None

    def fit(self, data: GraphData, split: Split) -> "GCNRegressor":
        """Train on the training fold's continuous criticality scores."""
        self.model = self._build(data)
        self.history = train_regressor(
            self.model, data.x, data.y_score,
            split.train_mask, split.val_mask, self.config,
            cache=data.propagation_cache(),
        )
        self._data = data
        self._bound_output = None
        return self

    def predict(self, data: Optional[GraphData] = None) -> np.ndarray:
        """Continuous criticality scores, clipped to [0, 1]."""
        return np.clip(self._forward(data).reshape(-1), 0.0, 1.0)
