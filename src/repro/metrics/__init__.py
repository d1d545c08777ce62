"""Evaluation metrics: accuracy/confusion/TPR/FPR, ROC + AUC, and
regression/agreement scores."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".classification": ("ConfusionMatrix", "accuracy", "balanced_accuracy"),
    ".regression": ("classification_conformity", "mae", "mse", "pearson",
                    "r2", "spearman"),
    ".roc": ("RocCurve", "auc_score", "average_curves", "roc_curve"),
    ".significance": ("McNemarResult", "mcnemar_test", "pooled_mcnemar"),
})
