"""What GNNExplainer produces and how it is configured.

:class:`Explanation` (one node's feature scores and edge mask) and
:class:`ExplainerConfig` (the optimization settings, whose fields key
stored explanations) load without the explainer engine in
:mod:`repro.explain.gnn_explainer`, so reading stored explanations
imports neither it nor scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class ExplainerConfig:
    """GNNExplainer optimization settings."""

    epochs: int = 200
    lr: float = 0.05
    edge_size_weight: float = 0.005   # lambda: edge mask L1
    edge_entropy_weight: float = 0.1
    # The feature-size penalty dominates the feature-entropy term so
    # features the prediction does not rely on decay toward 0 instead
    # of being pushed to whichever pole they drift near.
    feature_size_weight: float = 0.2
    feature_entropy_weight: float = 0.02


@dataclass
class Explanation:
    """Explanation of one node's prediction.

    ``feature_scores`` are normalized to mean 1 over the features, so a
    score of ~3 reads "three times the average importance" (matching
    the scale of the paper's Table 2 / Figure 5a).
    """

    node_name: str
    node_index: int
    predicted_class: int
    feature_names: List[str]
    feature_scores: np.ndarray
    subgraph_nodes: List[int]
    #: (source, target, mask weight) over the computation subgraph
    edge_importance: List[Tuple[int, int, float]]

    def feature_ranking(self) -> List[int]:
        """Feature indices sorted most-important first."""
        return list(np.argsort(-self.feature_scores))

    def top_edges(self, count: int = 10) -> List[Tuple[int, int, float]]:
        """Highest-weight subgraph edges."""
        return sorted(self.edge_importance, key=lambda e: -e[2])[:count]
