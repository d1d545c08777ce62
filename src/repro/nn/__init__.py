"""From-scratch neural-network engine (numpy): modules with explicit
backward passes, losses, optimizers, training loops, and grid search."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("PropagationCache", "TrainingWorkspace",
                "compile_workspace"),
    ".gridsearch": ("GridPoint", "GridSearchResult", "grid_search"),
    ".init": ("glorot_uniform",),
    ".losses": ("bce_with_logits", "mse_loss", "nll_loss"),
    ".modules": ("Dropout", "GCNConv", "Linear", "LogSoftmax", "Module",
                 "Parameter", "ReLU", "SAGEConv", "Sequential", "Sigmoid",
                 "Tanh", "functional_plan"),
    ".optim": ("SGD", "Adam", "Optimizer"),
    ".training": ("TrainingConfig", "TrainingHistory", "train_classifier",
                  "train_regressor"),
})
