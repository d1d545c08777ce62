"""Models: the paper's GCN classifier/regressor plus the five
feature-vector baselines (MLP, LoR, RFC, SVM, EBM)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("BaseClassifier", "make_classifier", "register_classifier",
              "registered_classifiers", "BASELINE_NAMES"),
    ".ebm": ("ExplainableBoostingMachine",),
    ".gcn": ("DEFAULT_DROPOUT", "DEFAULT_HIDDEN_DIMS", "GCNClassifier",
             "GCNRegressor", "build_gcn_stack"),
    ".logistic": ("LogisticRegression",),
    ".mlp": ("MLPClassifier",),
    ".random_forest": ("DecisionTree", "RandomForestClassifier"),
    ".sgc": ("SGCClassifier",),
    ".svm": ("SVMClassifier", "linear_kernel", "rbf_kernel"),
})
