"""Common interface for feature-vector classifiers (the baselines).

The paper compares the GCN against MLP, logistic regression (LoR),
random forest (RFC), SVM and EBM.  Those baselines see only each node's
own feature vector — precisely the contrast the paper draws: they
"focus solely on node attributes ... disregarding structural
information".
"""

from __future__ import annotations

import importlib
from typing import Dict, Type

import numpy as np

from repro.utils.arrays import sorted_unique
from repro.utils.errors import ModelError


class BaseClassifier:
    """Binary classifier over per-node feature vectors."""

    name: str = "base"

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """``(N, 2)`` class probabilities."""
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``(N,)`` hard class labels."""
        return self.predict_proba(x).argmax(axis=1)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on ``(x, y)``."""
        return float((self.predict(x) == np.asarray(y)).mean())

    @staticmethod
    def _check_training_data(x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x)
        y = np.asarray(y)
        if x.ndim != 2 or len(x) != len(y):
            raise ModelError("x must be (N, F) aligned with y")
        labels = sorted_unique(y)
        if not np.isin(labels, (0, 1)).all():
            raise ModelError(
                f"labels must be 0 and 1; found {labels.tolist()}"
            )
        if len(labels) < 2:
            raise ModelError("training data has a single class")


_REGISTRY: Dict[str, Type[BaseClassifier]] = {}

#: Each baseline's module, whose import registers it.
_BASELINE_MODULES = {
    "MLP": "repro.models.mlp",
    "LoR": "repro.models.logistic",
    "RFC": "repro.models.random_forest",
    "SVM": "repro.models.svm",
    "EBM": "repro.models.ebm",
}

#: Baseline names in the order Figure 3 plots them.
BASELINE_NAMES = tuple(_BASELINE_MODULES)


def register_classifier(name: str):
    """Class decorator adding a baseline to the registry used by the
    Figure 3/4 comparison benchmarks."""

    def wrap(cls: Type[BaseClassifier]) -> Type[BaseClassifier]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def make_classifier(name: str, **kwargs) -> BaseClassifier:
    """Instantiate a registered baseline by short name (importing only
    that baseline's module)."""
    if name in _BASELINE_MODULES:
        importlib.import_module(_BASELINE_MODULES[name])
    if name not in _REGISTRY:
        raise ModelError(
            f"unknown classifier {name!r}; known: "
            f"{sorted(registered_classifiers())}"
        )
    return _REGISTRY[name](**kwargs)


def registered_classifiers() -> Dict[str, Type[BaseClassifier]]:
    """The registry (name -> class), the five baselines included."""
    for module in _BASELINE_MODULES.values():
        importlib.import_module(module)
    return dict(_REGISTRY)
