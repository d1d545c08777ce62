"""The gridsearch and baselines JSON artifacts as ``repro.store.memo``
wrote and read them before the archive codec: its ``_write_json`` and
``_read_json`` helpers, unchanged, and the reader and writer closures
of ``AnalysisMemo.gridsearch``/``baselines`` as module functions."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.nn.gridsearch import GridPoint, GridSearchResult
from repro.utils.errors import SerializationError


def _write_json(payload: dict) -> Callable:
    import json

    def writer(path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)

    return writer


def _read_json(path) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise SerializationError(
            f"store JSON artifact {path}: top level must be an object"
        )
    return payload


def gridsearch_reader(path) -> GridSearchResult:
    payload = _read_json(path)
    return GridSearchResult(points=[
        GridPoint(
            hidden_dims=tuple(
                int(d) for d in point["hidden_dims"]
            ),
            dropout=float(point["dropout"]),
            lr=float(point["lr"]),
            val_accuracy=float(point["val_accuracy"]),
            best_epoch=int(point["best_epoch"]),
        )
        for point in payload["points"]
    ])


def gridsearch_writer(value: GridSearchResult):
    return _write_json({"points": [
        {"hidden_dims": list(point.hidden_dims),
         "dropout": point.dropout, "lr": point.lr,
         "val_accuracy": point.val_accuracy,
         "best_epoch": point.best_epoch}
        for point in value.points
    ]})


def baselines_reader(path, names: Sequence[str]) -> dict:
    payload = _read_json(path)
    accuracies = payload["accuracies"]
    if set(accuracies) != set(names):
        raise SerializationError(
            "baseline artifact names drifted from request"
        )
    # Rebuild in request order (canonical JSON sorts keys).
    return {name: float(accuracies[name]) for name in names}


def baselines_writer(value: dict):
    return _write_json({"accuracies": dict(value)})
