"""Global feature-importance aggregation (§3.5, Eq. 3).

Per-node explanations are combined two ways, exactly as the paper
describes: mean feature scores over all explained nodes, and the
average of per-node feature *rankings* (Eq. 3, rank 1 = most
important), which drives Figure 5(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.explain.explanation import Explanation
from repro.utils.errors import ModelError


@dataclass
class GlobalImportance:
    """Aggregated feature-importance map for one design (or several)."""

    feature_names: List[str]
    mean_scores: np.ndarray
    average_ranks: np.ndarray  # Eq. 3; lower = more important
    n_explanations: int

    def ranked_features(self) -> List[str]:
        """Feature names sorted by average rank (best first)."""
        order = np.argsort(self.average_ranks)
        return [self.feature_names[i] for i in order]

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows for report rendering."""
        order = np.argsort(self.average_ranks)
        return [
            {
                "feature": self.feature_names[i],
                "mean score": round(float(self.mean_scores[i]), 3),
                "average rank": round(float(self.average_ranks[i]), 3),
            }
            for i in order
        ]


def aggregate_importance(
    explanations: Sequence[Explanation],
) -> GlobalImportance:
    """Combine per-node explanations into the global importance map."""
    if not explanations:
        raise ModelError("no explanations to aggregate")
    feature_names = explanations[0].feature_names
    for explanation in explanations:
        if explanation.feature_names != feature_names:
            raise ModelError("explanations have inconsistent features")

    scores = np.array(
        [explanation.feature_scores for explanation in explanations]
    )
    # Rank 1 = highest score, per node; Eq. 3 averages over nodes.
    ranks = np.argsort(np.argsort(-scores, axis=1), axis=1) + 1
    return GlobalImportance(
        feature_names=list(feature_names),
        mean_scores=scores.mean(axis=0),
        average_ranks=ranks.mean(axis=0).astype(np.float64),
        n_explanations=len(explanations),
    )


def combine_importance(
    maps: Sequence[GlobalImportance],
) -> GlobalImportance:
    """Merge per-design maps into the all-designs view of Figure 5(b),
    weighting each design by its number of explanations."""
    if not maps:
        raise ModelError("no importance maps to combine")
    feature_names = maps[0].feature_names
    for importance_map in maps:
        if importance_map.feature_names != feature_names:
            raise ModelError("maps have inconsistent features")
    total = sum(importance_map.n_explanations for importance_map in maps)
    mean_scores = sum(
        importance_map.mean_scores * importance_map.n_explanations
        for importance_map in maps
    ) / total
    average_ranks = sum(
        importance_map.average_ranks * importance_map.n_explanations
        for importance_map in maps
    ) / total
    return GlobalImportance(
        feature_names=list(feature_names),
        mean_scores=mean_scores,
        average_ranks=average_ranks,
        n_explanations=total,
    )
