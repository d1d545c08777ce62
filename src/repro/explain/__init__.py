"""Explainability: GNNExplainer and global feature-importance
aggregation (Eq. 3)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregate": ("GlobalImportance", "aggregate_importance",
                   "combine_importance"),
    ".explanation": ("ExplainerConfig", "Explanation"),
    ".gnn_explainer": ("GNNExplainer",),
})
