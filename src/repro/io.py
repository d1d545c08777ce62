"""Persistence for campaign results, datasets, and trained models.

Fault-injection campaigns are the expensive stage of the flow, so a
real deployment runs them once and reuses the results across modelling
sessions.  Everything serializes to numpy ``.npz`` archives (arrays)
with JSON-encoded metadata, or to plain JSON — no pickle, so archives
are portable and inspectable.

Every artifact the package persists — campaign archives, checkpoint
units and manifests, artifact-store entries — goes through the one
codec in this module: :func:`write_archive` and :func:`write_json`
produce the bytes, :func:`open_archive` and :func:`read_json`
validate them on the way back in (raising
:class:`~repro.utils.errors.CorruptArtifactError` for damaged bytes
and :class:`~repro.utils.errors.SerializationError` for inconsistent
contents, naming the path), and :func:`publish` makes a write atomic
and durable where a torn file would otherwise be trusted later.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Union,
)

import numpy as np

from repro.fi.campaign import CampaignResult, WorkloadFailure
from repro.fi.dataset import CriticalityDataset
from repro.fi.faults import Fault
from repro.fi.transient import TransientFault
from repro.utils.errors import (
    CorruptArtifactError,
    ModelError,
    ReproError,
    SerializationError,
)

if TYPE_CHECKING:
    from repro.graph.data import GraphData
    from repro.graph.split import Split

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


def fsync_file(path: PathLike) -> None:
    """Flush a written file's contents to stable storage."""
    descriptor = os.open(str(path), os.O_RDONLY)
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
    try:
        # Installed inside the ``try`` so that a signal landing between
        # the two installs still gets both handlers restored.
        for signum in names:
            signal.signal(signum,
                          lambda signum, _frame: held.append(signum))
        yield
    finally:
        for signum, handler in zip(names, previous):
            signal.signal(signum, handler)
        if held:
            signal.raise_signal(held[0])


def publish(path: PathLike, write: Callable[[BinaryIO], None]) -> Path:
    """Atomically and durably put what ``write(handle)`` writes at
    ``path``; returns ``path``.

    The bytes go to a temp file in the target directory, which is
    fsynced and renamed over ``path`` (:func:`durable_replace`), and
    removed if ``write`` fails: ``path`` holds the old bytes or all of
    the new ones, never a torn file that a later run would trust.
    SIGINT and SIGTERM are held until the publish is done
    (:func:`_signals_held`).
    """
    path = Path(path)
    temporary = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    with _signals_held():
        try:
            with open(temporary, "wb") as handle:
                write(handle)
                handle.flush()
                os.fsync(handle.fileno())
            durable_replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
    return path


def atomic_write_text(path: PathLike, text: str) -> None:
    """Durably write ``text`` (UTF-8) to ``path`` via :func:`publish`."""
    publish(path, lambda handle: handle.write(text.encode("utf-8")))


def npz_path(path: PathLike) -> Path:
    """``path`` as numpy's writers resolve a file name: ``.npz`` is
    appended when missing."""
    name = os.fspath(path)
    return Path(name if name.endswith(".npz") else name + ".npz")


# ----------------------------------------------------------------------
# the codec: one writer and one validating reader per container
# ----------------------------------------------------------------------
def write_archive(file, arrays: Dict[str, np.ndarray],
                  metadata: Optional[dict] = None) -> None:
    """Write one deflated ``.npz``: the JSON ``metadata`` blob (when
    given) first, then ``arrays`` in the order given.  ``file`` is a
    path (``.npz`` is appended when missing, as numpy does) or an open
    binary handle."""
    members: Dict[str, np.ndarray] = {}
    if metadata is not None:
        members["metadata"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        )
    members.update(arrays)
    np.savez_compressed(file, **members)


#: What reading one member of an intact zip directory raises when the
#: member's own bytes are damaged (CRC, deflate stream, array header).
_MEMBER_DAMAGE = (zipfile.BadZipFile, zlib.error, ValueError, EOFError,
                  OSError)


class Archive:
    """An open ``.npz`` whose every read is validated
    (see :func:`open_archive`)."""

    def __init__(self, npz, where: str, shape_error: type) -> None:
        self._npz = npz
        self._where = where  # "<kind> archive <path>", for messages
        self._shape_error = shape_error
        self.files: List[str] = npz.files
        #: The decoded JSON metadata blob (empty when not requested).
        self.metadata: dict = {}

    def array(self, key: str, dtype_kinds: str,
              shape: Optional[tuple] = None) -> np.ndarray:
        """A required array, checked for presence and dtype family
        (``dtype_kinds`` lists the accepted ``dtype.kind`` letters)
        and, when ``shape`` is given, for shape (``None`` entries match
        any length)."""
        where = self._where
        if key not in self.files:
            raise CorruptArtifactError(
                f"{where} is missing array {key!r} (truncated or "
                "written by an incompatible version?)"
            )
        try:
            array = self._npz[key]
        except _MEMBER_DAMAGE as error:
            raise CorruptArtifactError(
                f"{where}: array {key!r} is unreadable ({error})"
            ) from error
        if array.dtype.kind not in dtype_kinds:
            raise CorruptArtifactError(
                f"{where}: array {key!r} has dtype {array.dtype}, "
                f"expected kind {dtype_kinds!r}"
            )
        if shape is not None and (
            array.ndim != len(shape)
            or any(want is not None and got != want
                   for got, want in zip(array.shape, shape))
        ):
            expected = str(tuple(shape)).replace("None", "*")
            raise self._shape_error(
                f"{where}: {key} has shape {array.shape}, expected "
                f"{expected}"
            )
        return array

    def _read_metadata(self, required) -> dict:
        where = self._where
        try:
            metadata = json.loads(
                bytes(self.array("metadata", "u")).decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CorruptArtifactError(
                f"{where}: metadata is not valid JSON ({error})"
            ) from error
        if not isinstance(metadata, dict):
            raise CorruptArtifactError(
                f"{where}: metadata is not a JSON object"
            )
        missing = [key for key in required if key not in metadata]
        if missing:
            raise CorruptArtifactError(
                f"{where}: metadata is missing {', '.join(missing)}"
            )
        return metadata


@contextmanager
def open_archive(path: PathLike, kind: str, *,
                 required: Optional[tuple] = None,
                 shape_error: type = SerializationError,
                 ) -> Iterator[Archive]:
    """Open an ``.npz`` written by :func:`write_archive` for validated
    reads; ``kind`` names the format in every error message.

    Damaged bytes — a truncated or non-zip file, an unreadable member, a
    missing array or metadata blob, a wrong dtype family — raise
    :class:`CorruptArtifactError`, which a resume re-simulates and the
    artifact store treats as a miss.  With ``required`` the metadata
    blob is decoded into :attr:`Archive.metadata` and must carry every
    listed key.  An array whose shape disagrees with the archive's own
    metadata raises ``shape_error``: a plain
    :class:`SerializationError` by default, because the writer was
    inconsistent, not interrupted.  A missing file raises
    :class:`FileNotFoundError`.
    """
    where = f"{kind} archive {path}"
    try:
        npz = np.load(path)
    except FileNotFoundError:
        raise
    except Exception as error:
        raise CorruptArtifactError(
            f"{where} is corrupt or not an .npz file: {error}"
        ) from error
    if not isinstance(npz, np.lib.npyio.NpzFile):  # one bare .npy array
        raise CorruptArtifactError(f"{where} is an .npy, not an .npz file")
    with npz:
        archive = Archive(npz, where, shape_error)
        if required is not None:
            archive.metadata = archive._read_metadata(required)
        yield archive


def write_json(file, payload: dict, *, sort_keys: bool = False) -> None:
    """Write ``payload`` as one-space-indented JSON to a path or an open
    binary handle."""
    data = json.dumps(payload, indent=1, sort_keys=sort_keys)
    if hasattr(file, "write"):
        file.write(data.encode("utf-8"))
    else:
        Path(file).write_text(data, encoding="utf-8")


def read_json(path: PathLike, kind: str, required: tuple = (), *,
              error: type = SerializationError) -> dict:
    """Read a JSON object written by :func:`write_json`.

    Raises ``error``, naming ``kind`` and the path, when the file is not
    valid UTF-8 JSON, its top level is not an object, or it lacks a
    ``required`` key.  A missing file raises :class:`FileNotFoundError`.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as cause:
        raise error(
            f"{kind} {path} is corrupt (not valid JSON: {cause})"
        ) from cause
    if not isinstance(payload, dict):
        raise error(
            f"{kind} {path}: top level must be an object, got "
            f"{type(payload).__name__}"
        )
    missing = [key for key in required if key not in payload]
    if missing:
        raise error(f"{kind} {path} is missing {', '.join(missing)}")
    return payload


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
#: Per fault kind: the array holding each fault's own parameter, the
#: fault class, and the attribute that array stores.
_FAULT_FIELDS = {
    "stuck-at": ("fault_values", Fault, "stuck_at"),
    "transient": ("fault_injection_cycles", TransientFault, "cycle"),
}


def save_campaign(campaign: CampaignResult, path: PathLike) -> None:
    """Write a campaign result to an ``.npz`` archive."""
    kind = (
        "transient" if isinstance(campaign.faults[0], TransientFault)
        else "stuck-at"
    )
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
    key, _, field = _FAULT_FIELDS[kind]
    write_archive(path, {
        "fault_gate_index": np.array(
            [fault.gate_index for fault in campaign.faults],
            dtype=np.int64,
        ),
        "fault_net_index": np.array(
            [fault.net_index for fault in campaign.faults],
            dtype=np.int64,
        ),
        "workload_cycles": campaign.workload_cycles,
        "error_cycles": campaign.error_cycles,
        "detection_cycle": campaign.detection_cycle,
        "latent": campaign.latent,
        key: np.array([getattr(fault, field) for fault in campaign.faults],
                      dtype=np.int64),
    }, metadata)


def load_campaign(path: PathLike) -> CampaignResult:
    """Read a campaign result written by :func:`save_campaign`.

    The archive is validated before a :class:`CampaignResult` is built:
    required arrays and metadata keys must be present, matrices must
    agree with the fault list and workload list on shape, and dtypes
    must be of the expected families — a corrupt, truncated, or
    hand-edited archive raises :class:`SerializationError` instead of
    leaking a numpy/zipfile internal error.
    """
    with open_archive(
        path, "campaign",
        required=("netlist_name", "workload_names", "severity",
                  "simulation_seconds", "fault_kind",
                  "fault_node_names"),
    ) as archive:
        metadata = archive.metadata
        node_names = metadata["fault_node_names"]
        n_faults = len(node_names)
        gate_index = archive.array("fault_gate_index", "iu", (n_faults,))
        net_index = archive.array("fault_net_index", "iu", (n_faults,))
        if metadata["fault_kind"] not in _FAULT_FIELDS:
            raise SerializationError(
                f"campaign archive {path}: unknown fault kind "
                f"{metadata['fault_kind']!r}"
            )
        key, fault_class, field = _FAULT_FIELDS[metadata["fault_kind"]]
        values = archive.array(key, "iu", (n_faults,))
        faults = [
            fault_class(gate_index=int(g), net_index=int(n),
                        node_name=name, **{field: int(v)})
            for g, n, name, v in zip(gate_index, net_index, node_names,
                                     values)
        ]
        workload_names = list(metadata["workload_names"])
        expected = (len(workload_names), n_faults)
        return CampaignResult(
            netlist_name=metadata["netlist_name"],
            faults=faults,
            workload_names=workload_names,
            workload_cycles=archive.array(
                "workload_cycles", "iu", (len(workload_names),)
            ),
            error_cycles=archive.array("error_cycles", "iu", expected),
            detection_cycle=archive.array("detection_cycle", "iu",
                                          expected),
            latent=archive.array("latent", "b", expected),
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

    The write is atomic *and durable* (:func:`publish`): a kill or
    power cut at any instant never leaves a half-checkpoint — or a
    vanished "successful" one — that a later ``--resume`` would trust,
    and an interrupt (SIGINT, SIGTERM) arriving mid-write is held until
    the checkpoint is published.
    """
    metadata = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "workload_index": workload_index,
        "elapsed_seconds": float(elapsed_seconds),
    }
    arrays = {
        "error_cycles": np.asarray(error_cycles, dtype=np.int64),
        "detection_cycle": np.asarray(detection_cycle, dtype=np.int64),
        "latent": np.asarray(latent, dtype=bool),
    }
    publish(path, lambda handle: write_archive(handle, arrays, metadata))


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
    campaign result.  Damaged bytes, wrong-shape arrays included, are
    the :class:`CorruptArtifactError` subclass: a torn unit that resume
    re-simulates.
    """
    with open_archive(
        path, "checkpoint",
        required=("version", "fingerprint", "workload_index",
                  "elapsed_seconds"),
        shape_error=CorruptArtifactError,
    ) as archive:
        metadata = archive.metadata
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
        arrays = {
            key: archive.array(key, dtype_kinds, (n_faults,))
            for key, dtype_kinds in (("error_cycles", "iu"),
                                     ("detection_cycle", "iu"),
                                     ("latent", "b"))
        }
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
    write_json(path, {
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
    })


def load_dataset(path: PathLike) -> CriticalityDataset:
    """Read a dataset written by :func:`save_dataset`.

    Corrupt JSON, missing keys, or malformed node rows raise
    :class:`SerializationError` with the offending detail rather than a
    bare ``KeyError``/``JSONDecodeError``.
    """
    payload = read_json(path, "dataset file",
                        ("design", "threshold", "n_workloads", "nodes"))
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
    from repro.models.gcn import GCNRegressor

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
    write_archive(path, {
        f"parameter_{index}": parameter.value
        for index, parameter in enumerate(model.model.parameters())
    }, metadata)


def load_gcn(path: PathLike, data: GraphData):
    """Rebuild a fitted GCN against ``data``'s graph and features.

    The model is reconstructed with the stored architecture, bound to
    the design's propagation matrix, and its weights restored — ready
    for :meth:`predict` without retraining.
    """
    from repro.models.gcn import GCNClassifier, GCNRegressor

    with open_archive(
        path, "GCN",
        required=("kind", "hidden_dims", "dropout", "adjacency_mode",
                  "self_loops"),
    ) as archive:
        metadata = archive.metadata
        weights = [
            archive.array(f"parameter_{index}", "f")
            for index in range(
                sum(1 for key in archive.files
                    if key.startswith("parameter_"))
            )
        ]

    architecture = dict(
        hidden_dims=tuple(metadata["hidden_dims"]),
        dropout=float(metadata["dropout"]),
        adjacency_mode=metadata["adjacency_mode"],
        self_loops=bool(metadata["self_loops"]),
    )
    if metadata["kind"] == "regressor":
        model = GCNRegressor(**architecture)
    else:
        model = GCNClassifier(**architecture,
                              conv=metadata.get("conv", "gcn"))
    try:
        return model.restore(data, weights)
    except ModelError as error:
        raise ReproError(f"GCN archive {path}: {error}") from None


# ----------------------------------------------------------------------
# splits
# ----------------------------------------------------------------------
def save_split(split: Split, path: PathLike) -> None:
    """Write a train/validation split to ``.npz``."""
    write_archive(path, {"train_mask": split.train_mask,
                         "val_mask": split.val_mask})


def load_split(path: PathLike) -> Split:
    """Read a split written by :func:`save_split`."""
    from repro.graph.split import Split

    with open_archive(path, "split") as archive:
        return Split(train_mask=archive.array("train_mask", "b"),
                     val_mask=archive.array("val_mask", "b"))


# ----------------------------------------------------------------------
# node features
# ----------------------------------------------------------------------
def save_features(features, path: PathLike) -> None:
    """Write a :class:`~repro.features.extract.NodeFeatures` to ``.npz``."""
    write_archive(path, {
        "matrix": np.asarray(features.matrix, dtype=np.float64),
    }, {
        "design": features.design,
        "node_names": list(features.node_names),
        "feature_names": list(features.feature_names),
    })


def load_features(path: PathLike):
    """Read features written by :func:`save_features` (validated)."""
    from repro.features.extract import NodeFeatures

    with open_archive(path, "features",
                      required=("design", "node_names",
                                "feature_names")) as archive:
        metadata = archive.metadata
        return NodeFeatures(
            design=metadata["design"],
            node_names=list(metadata["node_names"]),
            feature_names=list(metadata["feature_names"]),
            matrix=archive.array("matrix", "f", (
                len(metadata["node_names"]),
                len(metadata["feature_names"]),
            )),
        )


# ----------------------------------------------------------------------
# workload suites
# ----------------------------------------------------------------------
def save_workloads(workloads, path: PathLike) -> None:
    """Write a workload suite (replayable stimulus vectors) to ``.npz``."""
    write_archive(path, {
        f"vectors_{index}": np.asarray(workload.vectors, dtype=np.uint8)
        for index, workload in enumerate(workloads)
    }, {
        "workloads": [
            {"name": workload.name,
             "input_names": list(workload.input_names)}
            for workload in workloads
        ],
    })


def load_workloads(path: PathLike):
    """Read a suite written by :func:`save_workloads` (validated)."""
    from repro.sim.waveform import Workload

    with open_archive(path, "workloads",
                      required=("workloads",)) as archive:
        return [
            Workload(
                name=entry["name"],
                input_names=list(entry["input_names"]),
                vectors=archive.array(
                    f"vectors_{index}", "u",
                    (None, len(entry["input_names"])),
                ),
            )
            for index, entry in enumerate(archive.metadata["workloads"])
        ]


# ----------------------------------------------------------------------
# graph data
# ----------------------------------------------------------------------
def save_graph_data(data: GraphData, path: PathLike) -> None:
    """Write a :class:`~repro.graph.data.GraphData` to ``.npz``."""
    write_archive(path, {
        "x": data.x,
        "x_raw": data.x_raw,
        "edge_index": np.asarray(data.edge_index, dtype=np.int64),
        "y_class": data.y_class,
        "y_score": data.y_score,
    }, {
        "design": data.design,
        "node_names": list(data.node_names),
        "feature_names": list(data.feature_names),
    })


def load_graph_data(path: PathLike) -> GraphData:
    """Read graph data written by :func:`save_graph_data` (validated)."""
    from repro.graph.data import GraphData

    with open_archive(path, "graph-data",
                      required=("design", "node_names",
                                "feature_names")) as archive:
        metadata = archive.metadata
        n_nodes = len(metadata["node_names"])
        features = (n_nodes, len(metadata["feature_names"]))
        return GraphData(
            design=metadata["design"],
            node_names=list(metadata["node_names"]),
            x=archive.array("x", "f", features),
            x_raw=archive.array("x_raw", "f", features),
            edge_index=archive.array("edge_index", "iu", (2, None)),
            y_class=archive.array("y_class", "iu", (n_nodes,)),
            y_score=archive.array("y_score", "f", (n_nodes,)),
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
        lo = int(edge_indptr[i])
        for j, (source, target, weight) in enumerate(e.edge_importance):
            edge_ends[lo + j] = (source, target)
            edge_weights[lo + j] = weight
    write_archive(path, {
        "feature_scores": np.asarray(feature_scores, dtype=np.float64),
        "node_indptr": node_indptr,
        "subgraph_nodes": subgraph_nodes,
        "edge_indptr": edge_indptr,
        "edge_ends": edge_ends,
        "edge_weights": edge_weights,
    }, metadata)


def load_explanations(path: PathLike) -> List:
    """Read reports written by :func:`save_explanations` (validated)."""
    from repro.explain.explanation import Explanation

    with open_archive(path, "explanations",
                      required=("node_names", "node_indices",
                                "predicted_classes",
                                "feature_names")) as archive:
        metadata = archive.metadata
        names = metadata["node_names"]
        n = len(names)
        scores = archive.array("feature_scores", "f", (n, None))
        node_indptr = archive.array("node_indptr", "iu", (n + 1,))
        subgraph_nodes = archive.array("subgraph_nodes", "iu")
        edge_indptr = archive.array("edge_indptr", "iu", (n + 1,))
        edge_weights = archive.array("edge_weights", "f")
        edge_ends = archive.array("edge_ends", "iu",
                                  (len(edge_weights), 2))
        if (int(node_indptr[-1]) != len(subgraph_nodes)
                or int(edge_indptr[-1]) != len(edge_weights)):
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
