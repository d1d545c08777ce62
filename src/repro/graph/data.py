"""Graph dataset container binding features, structure and labels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.features.extract import NodeFeatures
from repro.fi.dataset import CriticalityDataset
from repro.graph.adjacency import CSRMatrix, normalized_adjacency
from repro.graph.build import netlist_edges
from repro.netlist.netlist import Netlist
from repro.utils.errors import ModelError


@dataclass
class GraphData:
    """Everything a graph model needs for one design.

    Attributes:
        design: Netlist name.
        node_names: Gate node names, aligned with matrix rows.
        x: Feature matrix ``(N, F)`` (standardized copy of the raw
            features; ``x_raw`` keeps the unscaled values for
            reporting).
        edge_index: ``(2, E)`` directed gate-to-gate edges.
        y_class: Binary Critical labels ``(N,)``.
        y_score: Continuous criticality scores ``(N,)``.
        feature_names: Column names of ``x``.
    """

    design: str
    node_names: List[str]
    x: np.ndarray
    x_raw: np.ndarray
    edge_index: np.ndarray
    y_class: np.ndarray
    y_score: np.ndarray
    feature_names: List[str]
    _a_norm_cache: dict = field(default_factory=dict, repr=False)
    _propagation_cache: Optional[object] = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def a_norm(self, mode: str = "symmetric",
               self_loops: bool = True) -> CSRMatrix:
        """The normalized propagation matrix (cached per mode)."""
        key = (mode, self_loops)
        if key not in self._a_norm_cache:
            self._a_norm_cache[key] = normalized_adjacency(
                self.edge_index, self.n_nodes, mode=mode,
                self_loops=self_loops,
            )
        return self._a_norm_cache[key]

    def propagation_cache(self):
        """This design's shared constant-propagation cache.

        One :class:`repro.nn.engine.PropagationCache` per dataset:
        the training engine's fast-math first layer and SGC's
        ``A*^K X`` smoothing both draw their ``A* @ X`` products from
        it, so the work is done once per design no matter how many
        models, grid candidates, or seeds train on it.
        """
        if self._propagation_cache is None:
            from repro.nn.engine import PropagationCache

            self._propagation_cache = PropagationCache()
        return self._propagation_cache

    def node_index(self, node_name: str) -> int:
        """Row index of a named node."""
        try:
            return self.node_names.index(node_name)
        except ValueError:
            raise ModelError(f"unknown node {node_name!r}") from None

    def subset_features(self, feature_names: List[str]) -> "GraphData":
        """A copy restricted to the named feature columns (ablations)."""
        indices = []
        for name in feature_names:
            if name not in self.feature_names:
                raise ModelError(f"unknown feature {name!r}")
            indices.append(self.feature_names.index(name))
        return GraphData(
            design=self.design,
            node_names=list(self.node_names),
            x=self.x[:, indices],
            x_raw=self.x_raw[:, indices],
            edge_index=self.edge_index,
            y_class=self.y_class,
            y_score=self.y_score,
            feature_names=list(feature_names),
        )


def build_graph_data(
    netlist: Netlist,
    features: NodeFeatures,
    dataset: CriticalityDataset,
) -> GraphData:
    """Assemble a :class:`GraphData` from its three ingredients.

    Features and labels are re-aligned by node name, so campaign node
    order need not match gate order.
    """
    node_names = netlist.node_names()
    if features.node_names != node_names:
        raise ModelError(
            "feature rows are not aligned with the netlist's gates"
        )
    label_position = {name: i for i, name in enumerate(dataset.node_names)}
    try:
        align = np.array([label_position[name] for name in node_names])
    except KeyError as missing:
        raise ModelError(
            f"dataset has no label for node {missing}"
        ) from None

    standardized = features.standardized()
    return GraphData(
        design=netlist.name,
        node_names=node_names,
        x=standardized.matrix,
        x_raw=features.matrix,
        edge_index=netlist_edges(netlist),
        y_class=dataset.labels[align],
        y_score=dataset.scores[align],
        feature_names=list(features.feature_names),
    )
