"""Persistence for campaign results, datasets, and trained models.

Fault-injection campaigns are the expensive stage of the flow, so a
real deployment runs them once and reuses the results across modelling
sessions.  Everything serializes to numpy ``.npz`` archives (arrays)
with JSON-encoded metadata — no pickle, so archives are portable and
inspectable.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.fi.campaign import CampaignResult, WorkloadFailure
from repro.fi.dataset import CriticalityDataset
from repro.fi.faults import Fault
from repro.fi.transient import TransientFault
from repro.graph.data import GraphData
from repro.graph.split import Split
from repro.models.gcn import GCNClassifier, GCNRegressor
from repro.utils.errors import (
    CorruptArtifactError,
    ReproError,
    SerializationError,
)

PathLike = Union[str, Path]

#: Format version for workload checkpoints (bump on layout changes).
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# durable atomic writes
# ----------------------------------------------------------------------
def fsync_directory(directory: PathLike) -> None:
    """Flush a directory's entry table to stable storage.

    An ``os.replace`` is atomic against crashes of the *process*, but
    the new directory entry itself lives in the page cache until the
    directory inode is synced — a power cut after a "successful" rename
    can resurrect the old state.  Platforms whose directories cannot be
    opened for fsync (Windows) are skipped.
    """
    try:
        descriptor = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def durable_replace(temporary: PathLike, path: PathLike) -> None:
    """Atomically publish ``temporary`` at ``path``, surviving power loss.

    ``temporary`` must already be synced (its *contents* are the
    caller's responsibility — sync the open handle before closing).
    This performs the rename and then fsyncs the parent directory so
    the publication itself is durable.
    """
    path = Path(path)
    os.replace(str(temporary), str(path))
    fsync_directory(path.parent)


@contextmanager
def _signals_held():
    """Hold SIGINT and SIGTERM until the block ends, then deliver the
    first one that arrived.

    numpy's zip writer is not interrupt-safe: a ``KeyboardInterrupt``
    that lands while it has an archive entry open surfaces from its
    cleanup as a ``ValueError``, which would end an interrupted
    campaign as a crash instead of a resumable shutdown.  Only the main
    thread runs signal handlers, so elsewhere this holds nothing.
    """
    names = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.getsignal(signum) for signum in names]
    if (threading.current_thread() is not threading.main_thread()
            or None in previous):  # a handler installed outside Python
        yield
        return
    held: List[int] = []
    for signum in names:
        signal.signal(signum, lambda signum, _frame: held.append(signum))
    try:
        yield
    finally:
        for signum, handler in zip(names, previous):
            signal.signal(signum, handler)
        if held:
            signal.raise_signal(held[0])


def atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    """Durably write ``payload`` to ``path`` via a synced temp file."""
    path = Path(path)
    temporary = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(temporary, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    durable_replace(temporary, path)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Durably write ``text`` (UTF-8) to ``path`` via a synced temp file."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _open_npz(path: PathLike, kind: str):
    """``np.load`` with corrupt/truncated files mapped to a typed error."""
    try:
        return np.load(path)
    except FileNotFoundError:
        raise
    except Exception as error:
        raise CorruptArtifactError(
            f"{kind} archive {path} is corrupt or not an .npz file: "
            f"{error}"
        ) from error


def _archive_array(archive, key: str, path: PathLike, kind: str,
                   dtype_kind: str) -> np.ndarray:
    """Fetch a required array, checking presence and dtype family."""
    if key not in archive.files:
        raise CorruptArtifactError(
            f"{kind} archive {path} is missing array {key!r} "
            "(truncated or written by an incompatible version?)"
        )
    array = archive[key]
    if array.dtype.kind not in dtype_kind:
        raise CorruptArtifactError(
            f"{kind} archive {path}: array {key!r} has dtype "
            f"{array.dtype}, expected kind {dtype_kind!r}"
        )
    return array


def _archive_metadata(archive, path: PathLike, kind: str,
                      required: tuple) -> dict:
    """Decode and sanity-check the JSON metadata blob."""
    if "metadata" not in archive.files:
        raise CorruptArtifactError(
            f"{kind} archive {path} has no metadata block"
        )
    try:
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptArtifactError(
            f"{kind} archive {path}: metadata is not valid JSON "
            f"({error})"
        ) from error
    missing = [key for key in required if key not in metadata]
    if missing:
        raise CorruptArtifactError(
            f"{kind} archive {path}: metadata is missing "
            f"{', '.join(missing)}"
        )
    return metadata


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def save_campaign(campaign: CampaignResult, path: PathLike) -> None:
    """Write a campaign result to an ``.npz`` archive."""
    first = campaign.faults[0]
    kind = "transient" if isinstance(first, TransientFault) else "stuck-at"
    metadata = {
        "netlist_name": campaign.netlist_name,
        "workload_names": campaign.workload_names,
        "severity": campaign.severity,
        "simulation_seconds": campaign.simulation_seconds,
        "fault_kind": kind,
        "fault_node_names": [fault.node_name for fault in campaign.faults],
        "failures": [
            {"workload": failure.workload, "status": failure.status,
             "attempts": failure.attempts,
             "elapsed_seconds": failure.elapsed_seconds,
             "error": failure.error}
            for failure in campaign.failures
        ],
    }
    extra = {}
    if kind == "stuck-at":
        extra["fault_values"] = np.array(
            [fault.stuck_at for fault in campaign.faults], dtype=np.int64
        )
    else:
        extra["fault_injection_cycles"] = np.array(
            [fault.cycle for fault in campaign.faults], dtype=np.int64
        )
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        fault_gate_index=np.array(
            [fault.gate_index for fault in campaign.faults],
            dtype=np.int64,
        ),
        fault_net_index=np.array(
            [fault.net_index for fault in campaign.faults],
            dtype=np.int64,
        ),
        workload_cycles=campaign.workload_cycles,
        error_cycles=campaign.error_cycles,
        detection_cycle=campaign.detection_cycle,
        latent=campaign.latent,
        **extra,
    )


def load_campaign(path: PathLike) -> CampaignResult:
    """Read a campaign result written by :func:`save_campaign`.

    The archive is validated before a :class:`CampaignResult` is built:
    required arrays and metadata keys must be present, matrices must
    agree with the fault list and workload list on shape, and dtypes
    must be of the expected families — a corrupt, truncated, or
    hand-edited archive raises :class:`SerializationError` instead of
    leaking a numpy/zipfile internal error.
    """
    with _open_npz(path, "campaign") as archive:
        metadata = _archive_metadata(
            archive, path, "campaign",
            required=("netlist_name", "workload_names", "severity",
                      "simulation_seconds", "fault_kind",
                      "fault_node_names"),
        )
        gate_index = _archive_array(archive, "fault_gate_index", path,
                                    "campaign", "iu")
        net_index = _archive_array(archive, "fault_net_index", path,
                                   "campaign", "iu")
        node_names = metadata["fault_node_names"]
        n_faults = len(node_names)
        if len(gate_index) != n_faults or len(net_index) != n_faults:
            raise SerializationError(
                f"campaign archive {path}: fault index arrays "
                f"({len(gate_index)}, {len(net_index)}) disagree with "
                f"{n_faults} fault node names"
            )
        if metadata["fault_kind"] == "stuck-at":
            values = _archive_array(archive, "fault_values", path,
                                    "campaign", "iu")
            if len(values) != n_faults:
                raise SerializationError(
                    f"campaign archive {path}: {len(values)} stuck-at "
                    f"values vs {n_faults} faults"
                )
            faults = [
                Fault(gate_index=int(g), net_index=int(n),
                      node_name=name, stuck_at=int(v))
                for g, n, name, v in zip(gate_index, net_index,
                                         node_names, values)
            ]
        elif metadata["fault_kind"] == "transient":
            cycles = _archive_array(archive, "fault_injection_cycles",
                                    path, "campaign", "iu")
            if len(cycles) != n_faults:
                raise SerializationError(
                    f"campaign archive {path}: {len(cycles)} injection "
                    f"cycles vs {n_faults} faults"
                )
            faults = [
                TransientFault(gate_index=int(g), net_index=int(n),
                               node_name=name, cycle=int(c))
                for g, n, name, c in zip(gate_index, net_index,
                                         node_names, cycles)
            ]
        else:
            raise SerializationError(
                f"campaign archive {path}: unknown fault kind "
                f"{metadata['fault_kind']!r}"
            )
        workload_names = list(metadata["workload_names"])
        workload_cycles = _archive_array(archive, "workload_cycles",
                                         path, "campaign", "iu")
        error_cycles = _archive_array(archive, "error_cycles", path,
                                      "campaign", "iu")
        detection_cycle = _archive_array(archive, "detection_cycle",
                                         path, "campaign", "iu")
        latent = _archive_array(archive, "latent", path, "campaign",
                                "b")
        expected = (len(workload_names), n_faults)
        for key, array in (("error_cycles", error_cycles),
                           ("detection_cycle", detection_cycle),
                           ("latent", latent)):
            if array.shape != expected:
                raise SerializationError(
                    f"campaign archive {path}: {key} has shape "
                    f"{array.shape}, expected {expected}"
                )
        if workload_cycles.shape != (len(workload_names),):
            raise SerializationError(
                f"campaign archive {path}: workload_cycles has shape "
                f"{workload_cycles.shape} for {len(workload_names)} "
                "workloads"
            )
        return CampaignResult(
            netlist_name=metadata["netlist_name"],
            faults=faults,
            workload_names=workload_names,
            workload_cycles=workload_cycles,
            error_cycles=error_cycles,
            detection_cycle=detection_cycle,
            latent=latent,
            severity=float(metadata["severity"]),
            simulation_seconds=float(metadata["simulation_seconds"]),
            failures=[
                WorkloadFailure(
                    workload=entry["workload"],
                    status=entry["status"],
                    attempts=int(entry["attempts"]),
                    elapsed_seconds=float(entry["elapsed_seconds"]),
                    error=entry["error"],
                )
                for entry in metadata.get("failures", ())
            ],
        )


# ----------------------------------------------------------------------
# workload checkpoints (resilient campaign runner)
# ----------------------------------------------------------------------
def save_workload_checkpoint(
    path: PathLike,
    *,
    fingerprint: str,
    workload_index: int,
    error_cycles: np.ndarray,
    detection_cycle: np.ndarray,
    latent: np.ndarray,
    elapsed_seconds: float,
) -> None:
    """Write one workload's completed fault pass to an ``.npz``.

    The write is atomic *and durable*: the temp file is fsynced before
    the rename and the parent directory after it, so a kill or power
    cut at any instant never leaves a half-checkpoint — or a vanished
    "successful" one — that a later ``--resume`` would trust.  An
    interrupt (SIGINT, SIGTERM) arriving mid-write is held until the
    checkpoint is published (:func:`_signals_held`).
    """
    path = Path(path)
    metadata = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "workload_index": workload_index,
        "elapsed_seconds": float(elapsed_seconds),
    }
    temporary = path.with_name(path.name + ".tmp")
    with _signals_held():
        with open(temporary, "wb") as handle:
            np.savez_compressed(
                handle,
                metadata=np.frombuffer(
                    json.dumps(metadata).encode("utf-8"), dtype=np.uint8
                ),
                error_cycles=np.asarray(error_cycles, dtype=np.int64),
                detection_cycle=np.asarray(detection_cycle,
                                           dtype=np.int64),
                latent=np.asarray(latent, dtype=bool),
            )
            handle.flush()
            os.fsync(handle.fileno())
        durable_replace(temporary, path)


def load_workload_checkpoint(
    path: PathLike,
    *,
    fingerprint: str,
    workload_index: int,
    n_faults: int,
) -> dict:
    """Read and validate one workload checkpoint.

    Raises :class:`SerializationError` when the file is corrupt, from
    an incompatible checkpoint format version, written for a different
    campaign (fingerprint mismatch), or carries arrays of the wrong
    shape — resuming silently from any of those would corrupt the
    campaign result.
    """
    with _open_npz(path, "checkpoint") as archive:
        metadata = _archive_metadata(
            archive, path, "checkpoint",
            required=("version", "fingerprint", "workload_index",
                      "elapsed_seconds"),
        )
        if metadata["version"] != CHECKPOINT_VERSION:
            raise SerializationError(
                f"checkpoint {path}: format version "
                f"{metadata['version']} (this build reads "
                f"{CHECKPOINT_VERSION})"
            )
        if metadata["fingerprint"] != fingerprint:
            raise SerializationError(
                f"checkpoint {path} was written for a different "
                "campaign configuration (fingerprint mismatch) — "
                "pass a fresh --checkpoint-dir or drop --resume"
            )
        if int(metadata["workload_index"]) != workload_index:
            raise SerializationError(
                f"checkpoint {path}: stored workload index "
                f"{metadata['workload_index']}, expected "
                f"{workload_index}"
            )
        arrays = {}
        for key, dtype_kind in (("error_cycles", "iu"),
                                ("detection_cycle", "iu"),
                                ("latent", "b")):
            array = _archive_array(archive, key, path, "checkpoint",
                                   dtype_kind)
            if array.shape != (n_faults,):
                raise CorruptArtifactError(
                    f"checkpoint {path}: {key} has shape "
                    f"{array.shape}, expected ({n_faults},)"
                )
            arrays[key] = array
        arrays["elapsed_seconds"] = float(metadata["elapsed_seconds"])
        return arrays


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def save_dataset(dataset: CriticalityDataset, path: PathLike) -> None:
    """Write an Algorithm 1 dataset to JSON."""
    trials = (
        dataset.trials.tolist() if dataset.trials is not None
        else [None] * dataset.n_nodes
    )
    payload = {
        "design": dataset.design,
        "threshold": dataset.threshold,
        "n_workloads": dataset.n_workloads,
        "nodes": [
            {"name": name, "score": float(score), "label": int(label),
             "trials": trial}
            for name, score, label, trial in zip(
                dataset.node_names, dataset.scores, dataset.labels,
                trials,
            )
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1),
                          encoding="utf-8")


def load_dataset(path: PathLike) -> CriticalityDataset:
    """Read a dataset written by :func:`save_dataset`.

    Corrupt JSON, missing keys, or malformed node rows raise
    :class:`SerializationError` with the offending detail rather than a
    bare ``KeyError``/``JSONDecodeError``.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(
            f"dataset file {path} is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise SerializationError(
            f"dataset file {path}: top level must be an object, got "
            f"{type(payload).__name__}"
        )
    missing = [key for key in ("design", "threshold", "n_workloads",
                               "nodes") if key not in payload]
    if missing:
        raise SerializationError(
            f"dataset file {path} is missing {', '.join(missing)}"
        )
    nodes = payload["nodes"]
    if not isinstance(nodes, list):
        raise SerializationError(
            f"dataset file {path}: 'nodes' must be a list"
        )
    for index, node in enumerate(nodes):
        if not isinstance(node, dict) or not {
            "name", "score", "label"
        } <= node.keys():
            raise SerializationError(
                f"dataset file {path}: node row {index} must carry "
                "name/score/label"
            )
    trial_values = [node.get("trials") for node in nodes]
    trials = (
        np.array(trial_values)
        if all(value is not None for value in trial_values)
        else None
    )
    return CriticalityDataset(
        design=payload["design"],
        node_names=[node["name"] for node in nodes],
        scores=np.array([node["score"] for node in nodes]),
        labels=np.array([node["label"] for node in nodes]),
        threshold=float(payload["threshold"]),
        n_workloads=int(payload["n_workloads"]),
        trials=trials,
    )


# ----------------------------------------------------------------------
# trained GCN weights
# ----------------------------------------------------------------------
def save_gcn(model, path: PathLike) -> None:
    """Write a fitted GCN classifier/regressor's weights and
    architecture to an ``.npz`` archive."""
    if model.model is None:
        raise ReproError("cannot save an unfitted model")
    metadata = {
        "kind": "regressor" if isinstance(model, GCNRegressor)
        else "classifier",
        "hidden_dims": list(model.hidden_dims),
        "dropout": model.dropout,
        "adjacency_mode": model.adjacency_mode,
        "self_loops": model.self_loops,
        "conv": getattr(model, "conv", "gcn"),
    }
    arrays = {
        f"parameter_{index}": parameter.value
        for index, parameter in enumerate(model.model.parameters())
    }
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


def load_gcn(path: PathLike, data: GraphData):
    """Rebuild a fitted GCN against ``data``'s graph and features.

    The model is reconstructed with the stored architecture, bound to
    the design's propagation matrix, and its weights restored — ready
    for :meth:`predict` without retraining.
    """
    from repro.models.gcn import build_gcn_stack

    with _open_npz(path, "GCN") as archive:
        metadata = _archive_metadata(
            archive, path, "GCN",
            required=("kind", "hidden_dims", "dropout",
                      "adjacency_mode", "self_loops"),
        )
        weights = [
            _archive_array(archive, f"parameter_{index}", path, "GCN",
                           "f")
            for index in range(
                sum(1 for key in archive.files
                    if key.startswith("parameter_"))
            )
        ]

    conv = metadata.get("conv", "gcn")
    if metadata["kind"] == "regressor":
        model = GCNRegressor(
            hidden_dims=tuple(metadata["hidden_dims"]),
            dropout=float(metadata["dropout"]),
            adjacency_mode=metadata["adjacency_mode"],
            self_loops=bool(metadata["self_loops"]),
        )
    else:
        model = GCNClassifier(
            hidden_dims=tuple(metadata["hidden_dims"]),
            dropout=float(metadata["dropout"]),
            adjacency_mode=metadata["adjacency_mode"],
            self_loops=bool(metadata["self_loops"]),
            conv=conv,
        )
    a_norm = data.a_norm(model.adjacency_mode, model.self_loops)
    model.model = build_gcn_stack(
        data.n_features,
        1 if metadata["kind"] == "regressor" else 2,
        a_norm,
        hidden_dims=model.hidden_dims,
        dropout=model.dropout,
        log_softmax=metadata["kind"] != "regressor",
        conv=conv,
    )
    parameters = model.model.parameters()
    if len(parameters) != len(weights):
        raise ReproError(
            "stored weights do not match the reconstructed architecture"
        )
    for parameter, value in zip(parameters, weights):
        if parameter.value.shape != value.shape:
            raise ReproError(
                f"weight shape mismatch: {parameter.value.shape} vs "
                f"{value.shape} (was the model trained on different "
                "features?)"
            )
        parameter.value[:] = value
    model._data = data  # noqa: SLF001 — bind for parameterless predict
    model.model.eval()
    return model


# ----------------------------------------------------------------------
# splits
# ----------------------------------------------------------------------
def save_split(split: Split, path: PathLike) -> None:
    """Write a train/validation split to ``.npz``."""
    np.savez_compressed(path, train_mask=split.train_mask,
                        val_mask=split.val_mask)


def load_split(path: PathLike) -> Split:
    """Read a split written by :func:`save_split`."""
    with _open_npz(path, "split") as archive:
        return Split(
            train_mask=_archive_array(archive, "train_mask", path,
                                      "split", "b"),
            val_mask=_archive_array(archive, "val_mask", path, "split",
                                    "b"),
        )


# ----------------------------------------------------------------------
# node features
# ----------------------------------------------------------------------
def save_features(features, path: PathLike) -> None:
    """Write a :class:`~repro.features.extract.NodeFeatures` to ``.npz``."""
    metadata = {
        "design": features.design,
        "node_names": list(features.node_names),
        "feature_names": list(features.feature_names),
    }
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        matrix=np.asarray(features.matrix, dtype=np.float64),
    )


def load_features(path: PathLike):
    """Read features written by :func:`save_features` (validated)."""
    from repro.features.extract import NodeFeatures

    with _open_npz(path, "features") as archive:
        metadata = _archive_metadata(
            archive, path, "features",
            required=("design", "node_names", "feature_names"),
        )
        matrix = _archive_array(archive, "matrix", path, "features", "f")
        expected = (len(metadata["node_names"]),
                    len(metadata["feature_names"]))
        if matrix.shape != expected:
            raise SerializationError(
                f"features archive {path}: matrix has shape "
                f"{matrix.shape}, expected {expected}"
            )
        return NodeFeatures(
            design=metadata["design"],
            node_names=list(metadata["node_names"]),
            feature_names=list(metadata["feature_names"]),
            matrix=matrix,
        )


# ----------------------------------------------------------------------
# workload suites
# ----------------------------------------------------------------------
def save_workloads(workloads, path: PathLike) -> None:
    """Write a workload suite (replayable stimulus vectors) to ``.npz``."""
    metadata = {
        "workloads": [
            {"name": workload.name,
             "input_names": list(workload.input_names)}
            for workload in workloads
        ],
    }
    arrays = {
        f"vectors_{index}": np.asarray(workload.vectors,
                                       dtype=np.uint8)
        for index, workload in enumerate(workloads)
    }
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


def load_workloads(path: PathLike):
    """Read a suite written by :func:`save_workloads` (validated)."""
    from repro.sim.waveform import Workload

    with _open_npz(path, "workloads") as archive:
        metadata = _archive_metadata(
            archive, path, "workloads", required=("workloads",)
        )
        suite = []
        for index, entry in enumerate(metadata["workloads"]):
            vectors = _archive_array(
                archive, f"vectors_{index}", path, "workloads", "u"
            )
            if vectors.ndim != 2 or \
                    vectors.shape[1] != len(entry["input_names"]):
                raise SerializationError(
                    f"workloads archive {path}: vectors_{index} has "
                    f"shape {vectors.shape}, expected (*, "
                    f"{len(entry['input_names'])})"
                )
            suite.append(Workload(
                name=entry["name"],
                input_names=list(entry["input_names"]),
                vectors=vectors,
            ))
        return suite


# ----------------------------------------------------------------------
# graph data
# ----------------------------------------------------------------------
def save_graph_data(data: GraphData, path: PathLike) -> None:
    """Write a :class:`~repro.graph.data.GraphData` to ``.npz``."""
    metadata = {
        "design": data.design,
        "node_names": list(data.node_names),
        "feature_names": list(data.feature_names),
    }
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        x=data.x,
        x_raw=data.x_raw,
        edge_index=np.asarray(data.edge_index, dtype=np.int64),
        y_class=data.y_class,
        y_score=data.y_score,
    )


def load_graph_data(path: PathLike) -> GraphData:
    """Read graph data written by :func:`save_graph_data` (validated)."""
    with _open_npz(path, "graph-data") as archive:
        metadata = _archive_metadata(
            archive, path, "graph-data",
            required=("design", "node_names", "feature_names"),
        )
        x = _archive_array(archive, "x", path, "graph-data", "f")
        x_raw = _archive_array(archive, "x_raw", path, "graph-data", "f")
        edge_index = _archive_array(archive, "edge_index", path,
                                    "graph-data", "iu")
        y_class = _archive_array(archive, "y_class", path, "graph-data",
                                 "iu")
        y_score = _archive_array(archive, "y_score", path, "graph-data",
                                 "f")
        n_nodes = len(metadata["node_names"])
        expected = (n_nodes, len(metadata["feature_names"]))
        if x.shape != expected or x_raw.shape != expected:
            raise SerializationError(
                f"graph-data archive {path}: feature matrices "
                f"{x.shape}/{x_raw.shape} disagree with {expected}"
            )
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise SerializationError(
                f"graph-data archive {path}: edge_index has shape "
                f"{edge_index.shape}, expected (2, E)"
            )
        if y_class.shape != (n_nodes,) or y_score.shape != (n_nodes,):
            raise SerializationError(
                f"graph-data archive {path}: label vectors "
                f"{y_class.shape}/{y_score.shape} disagree with "
                f"({n_nodes},)"
            )
        return GraphData(
            design=metadata["design"],
            node_names=list(metadata["node_names"]),
            x=x,
            x_raw=x_raw,
            edge_index=edge_index,
            y_class=y_class,
            y_score=y_score,
            feature_names=list(metadata["feature_names"]),
        )


# ----------------------------------------------------------------------
# explanation reports
# ----------------------------------------------------------------------
def save_explanations(explanations: List, path: PathLike) -> None:
    """Write GNNExplainer reports to one ``.npz``.

    Ragged per-node payloads (subgraph node lists, edge-importance
    triples) are stored concatenated with an ``indptr`` offset table —
    the CSR trick — so the archive stays a flat set of typed arrays.
    """
    metadata = {
        "node_names": [e.node_name for e in explanations],
        "node_indices": [int(e.node_index) for e in explanations],
        "predicted_classes": [
            int(e.predicted_class) for e in explanations
        ],
        "feature_names": (
            list(explanations[0].feature_names) if explanations else []
        ),
    }
    n = len(explanations)
    feature_scores = (
        np.stack([e.feature_scores for e in explanations])
        if explanations else np.zeros((0, 0))
    )
    node_indptr = np.zeros(n + 1, dtype=np.int64)
    edge_indptr = np.zeros(n + 1, dtype=np.int64)
    for i, e in enumerate(explanations):
        node_indptr[i + 1] = node_indptr[i] + len(e.subgraph_nodes)
        edge_indptr[i + 1] = edge_indptr[i] + len(e.edge_importance)
    subgraph_nodes = np.concatenate(
        [np.asarray(e.subgraph_nodes, dtype=np.int64)
         for e in explanations]
    ) if n and node_indptr[-1] else np.zeros(0, dtype=np.int64)
    edge_ends = np.zeros((int(edge_indptr[-1]), 2), dtype=np.int64)
    edge_weights = np.zeros(int(edge_indptr[-1]), dtype=np.float64)
    for i, e in enumerate(explanations):
        lo, hi = int(edge_indptr[i]), int(edge_indptr[i + 1])
        for j, (source, target, weight) in enumerate(e.edge_importance):
            edge_ends[lo + j] = (source, target)
            edge_weights[lo + j] = weight
    np.savez_compressed(
        path,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
        feature_scores=np.asarray(feature_scores, dtype=np.float64),
        node_indptr=node_indptr,
        subgraph_nodes=subgraph_nodes,
        edge_indptr=edge_indptr,
        edge_ends=edge_ends,
        edge_weights=edge_weights,
    )


def load_explanations(path: PathLike) -> List:
    """Read reports written by :func:`save_explanations` (validated)."""
    from repro.explain.gnn_explainer import Explanation

    with _open_npz(path, "explanations") as archive:
        metadata = _archive_metadata(
            archive, path, "explanations",
            required=("node_names", "node_indices",
                      "predicted_classes", "feature_names"),
        )
        names = metadata["node_names"]
        n = len(names)
        scores = _archive_array(archive, "feature_scores", path,
                                "explanations", "f")
        node_indptr = _archive_array(archive, "node_indptr", path,
                                     "explanations", "iu")
        subgraph_nodes = _archive_array(archive, "subgraph_nodes", path,
                                        "explanations", "iu")
        edge_indptr = _archive_array(archive, "edge_indptr", path,
                                     "explanations", "iu")
        edge_ends = _archive_array(archive, "edge_ends", path,
                                   "explanations", "iu")
        edge_weights = _archive_array(archive, "edge_weights", path,
                                      "explanations", "f")
        if (len(node_indptr) != n + 1 or len(edge_indptr) != n + 1
                or (n and scores.shape[0] != n)):
            raise SerializationError(
                f"explanations archive {path}: offset tables disagree "
                f"with {n} explanations"
            )
        if (int(node_indptr[-1]) != len(subgraph_nodes)
                or int(edge_indptr[-1]) != len(edge_weights)
                or edge_ends.shape != (len(edge_weights), 2)):
            raise SerializationError(
                f"explanations archive {path}: ragged payloads are "
                "truncated"
            )
        explanations = []
        for i in range(n):
            node_lo, node_hi = int(node_indptr[i]), int(node_indptr[i + 1])
            edge_lo, edge_hi = int(edge_indptr[i]), int(edge_indptr[i + 1])
            explanations.append(Explanation(
                node_name=names[i],
                node_index=int(metadata["node_indices"][i]),
                predicted_class=int(metadata["predicted_classes"][i]),
                feature_names=list(metadata["feature_names"]),
                feature_scores=scores[i],
                subgraph_nodes=[
                    int(v) for v in subgraph_nodes[node_lo:node_hi]
                ],
                edge_importance=[
                    (int(edge_ends[j, 0]), int(edge_ends[j, 1]),
                     float(edge_weights[j]))
                    for j in range(edge_lo, edge_hi)
                ],
            ))
        return explanations
