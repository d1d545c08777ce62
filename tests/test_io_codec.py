"""The archive codec against the writers and readers it replaced.

Ground truth is ``tests/_reference_io`` (see its docstring).  For every
persisted format the codec must

* write byte-identical files, so old checkpoints, ``--out`` files and
  store entries stay valid;
* read reference-written files to objects equal to what the reference
  reader returns;
* raise the reference's exception class for each kind of damage, with
  the damaged file's path in the message.

One deliberate difference is pinned down as such: the store's
gridsearch/baselines JSON readers raise ``SerializationError`` naming
the path where the reference leaked a bare ``JSONDecodeError``,
``UnicodeDecodeError`` or ``KeyError``; the store treats both as a miss.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable

import numpy as np
import pytest

from repro import io
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.explain.gnn_explainer import ExplainerConfig, GNNExplainer
from repro.fi import WorkloadFailure, run_campaign, run_transient_campaign
from repro.models import GCNClassifier
from repro.nn import TrainingConfig
from repro.nn.gridsearch import GridPoint, GridSearchResult
from repro.sim import design_workloads
from repro.store import AnalysisMemo, ArtifactStore
from repro.utils.errors import CorruptArtifactError, SerializationError
from tests._reference_io import ref_io, ref_memo


def assert_same(left, right):
    """Deep equality: arrays by dtype, shape and bytes, dataclasses
    field by field (private caches excepted)."""
    if isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray)
        assert (left.dtype, left.shape) == (right.dtype, right.shape)
        assert left.tobytes() == right.tobytes()
    elif dataclasses.is_dataclass(left):
        assert type(left).__name__ == type(right).__name__
        for field in dataclasses.fields(left):
            if not field.name.startswith("_"):
                assert_same(getattr(left, field.name),
                            getattr(right, field.name))
    elif isinstance(left, (list, tuple)):
        assert type(left) is type(right) and len(left) == len(right)
        for mine, theirs in zip(left, right):
            assert_same(mine, theirs)
    elif isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            assert_same(left[key], right[key])
    else:
        assert type(left) is type(right) and left == right


def _model_state(model) -> dict:
    return {
        "type": type(model).__name__,
        "architecture": (model.hidden_dims, model.dropout,
                         model.adjacency_mode, model.self_loops,
                         getattr(model, "conv", "gcn")),
        "weights": [parameter.value
                    for parameter in model.model.parameters()],
    }


@dataclasses.dataclass
class Format:
    suffix: str
    write_new: Callable
    write_ref: Callable
    read_new: Callable
    read_ref: Callable
    #: ``(damage label, reference error) -> class`` where the codec is
    #: deliberately stricter than the reference, else ``None``.
    stricter: Callable = lambda label, reference_error: None


class _Capture:
    """Store stand-in that keeps the reader and writer a memo stage
    hands it (every ``get`` misses, so the stage computes and puts)."""

    def get(self, key, kind, reader):
        self.reader = reader

    def put(self, key, kind, writer, *, meta=None):
        self.writer = writer


def _untyped_json_error(label, reference_error):
    untyped = (json.JSONDecodeError, UnicodeDecodeError, KeyError)
    return (SerializationError if isinstance(reference_error, untyped)
            else None)


CHECKPOINT_FINGERPRINT = "f" * 64


@pytest.fixture(scope="module")
def formats(icfsm, icfsm_analyzer):
    analyzer = icfsm_analyzer
    data = analyzer.data
    workloads = design_workloads(icfsm.name, icfsm, count=3, cycles=40,
                                 seed=0)
    stuck_at = dataclasses.replace(
        run_campaign(icfsm, workloads),
        failures=[WorkloadFailure(
            workload=workloads[1].name, status="timeout", attempts=2,
            elapsed_seconds=1.5, error="synthetic",
        )],
    )
    transient = run_transient_campaign(icfsm, workloads,
                                       injections_per_flop=1, seed=0)
    unit = dict(
        fingerprint=CHECKPOINT_FINGERPRINT, workload_index=2,
        error_cycles=stuck_at.error_cycles[2],
        detection_cycle=stuck_at.detection_cycle[2],
        latent=stuck_at.latent[2], elapsed_seconds=0.25,
    )
    unit_identity = dict(fingerprint=CHECKPOINT_FINGERPRINT,
                         workload_index=2,
                         n_faults=len(stuck_at.faults))
    sage = GCNClassifier(
        hidden_dims=(8,), conv="sage",
        config=TrainingConfig(epochs=3, patience=0),
    ).fit(data, analyzer.split)
    explanations = GNNExplainer(
        analyzer.classifier, data, config=ExplainerConfig(epochs=5),
    ).explain_many([0, 5, 11])

    grid = GridSearchResult(points=[
        GridPoint(hidden_dims=(16, 8), dropout=0.1, lr=0.01,
                  val_accuracy=0.8125, best_epoch=40),
        GridPoint(hidden_dims=(32,), dropout=0.5, lr=0.003,
                  val_accuracy=2 / 3, best_epoch=7),
    ])
    grid_capture = _Capture()
    AnalysisMemo(grid_capture, analyzer).gridsearch(
        hidden_dim_options=[(16, 8), (32,)], dropout_options=[0.1, 0.5],
        lr_options=[0.01, 0.003], epochs=5, fast_math=False,
        compute=lambda: grid,
    )
    accuracies = {"MLP": 0.8, "LoR": 2 / 3, "EBM": 0.71875}
    names = list(accuracies)
    baselines_capture = _Capture()
    AnalysisMemo(baselines_capture, analyzer).baselines(
        names, compute=lambda: accuracies,
    )

    def via_io(save, load, value, suffix=".npz"):
        """A format written by ``io.<save>`` and read by ``io.<load>``,
        against the same names in the reference module."""
        return Format(
            suffix,
            lambda path: getattr(io, save)(value, path),
            lambda path: getattr(ref_io, save)(value, path),
            getattr(io, load), getattr(ref_io, load),
        )

    def gcn(model):
        return Format(
            ".npz",
            lambda path: io.save_gcn(model, path),
            lambda path: ref_io.save_gcn(model, path),
            lambda path: _model_state(io.load_gcn(path, data)),
            lambda path: _model_state(ref_io.load_gcn(path, data)),
        )

    return {
        "campaign-stuck-at": via_io("save_campaign", "load_campaign",
                                    stuck_at),
        "campaign-transient": via_io("save_campaign", "load_campaign",
                                     transient),
        "checkpoint": Format(
            ".npz",
            lambda path: io.save_workload_checkpoint(path, **unit),
            lambda path: ref_io.save_workload_checkpoint(path, **unit),
            lambda path: io.load_workload_checkpoint(path,
                                                     **unit_identity),
            lambda path: ref_io.load_workload_checkpoint(
                path, **unit_identity),
        ),
        "dataset": via_io("save_dataset", "load_dataset",
                          analyzer.dataset, ".json"),
        "dataset-no-trials": via_io(
            "save_dataset", "load_dataset",
            dataclasses.replace(analyzer.dataset, trials=None), ".json",
        ),
        "gcn-classifier": gcn(analyzer.classifier),
        "gcn-regressor": gcn(analyzer.regressor),
        "gcn-sage": gcn(sage),
        "split": via_io("save_split", "load_split", analyzer.split),
        "features": via_io("save_features", "load_features",
                           analyzer.features),
        "workloads": via_io("save_workloads", "load_workloads",
                            analyzer.workloads),
        "graph-data": via_io("save_graph_data", "load_graph_data", data),
        "explanations": via_io("save_explanations", "load_explanations",
                               explanations),
        "explanations-empty": via_io("save_explanations",
                                     "load_explanations", []),
        "gridsearch": Format(
            ".json", grid_capture.writer, ref_memo.gridsearch_writer(grid),
            grid_capture.reader, ref_memo.gridsearch_reader,
            stricter=_untyped_json_error,
        ),
        "baselines": Format(
            ".json", baselines_capture.writer,
            ref_memo.baselines_writer(accuracies),
            baselines_capture.reader,
            lambda path: ref_memo.baselines_reader(path, names),
            stricter=_untyped_json_error,
        ),
    }


FORMATS = [
    "campaign-stuck-at", "campaign-transient", "checkpoint", "dataset",
    "dataset-no-trials", "gcn-classifier", "gcn-regressor", "gcn-sage",
    "split", "features", "workloads", "graph-data", "explanations",
    "explanations-empty", "gridsearch", "baselines",
]


@pytest.mark.parametrize("name", FORMATS)
def test_writer_matches_reference_bytes(formats, name, tmp_path):
    fmt = formats[name]
    new, ref = tmp_path / f"new{fmt.suffix}", tmp_path / f"ref{fmt.suffix}"
    fmt.write_new(new)
    fmt.write_ref(ref)
    assert new.read_bytes() == ref.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        new.name, ref.name,
    ]  # no temp litter from an atomic publish


@pytest.mark.parametrize("name", FORMATS)
def test_reads_reference_files(formats, name, tmp_path):
    fmt = formats[name]
    path = tmp_path / f"ref{fmt.suffix}"
    fmt.write_ref(path)
    assert_same(fmt.read_new(path), fmt.read_ref(path))


# ----------------------------------------------------------------------
# damage
# ----------------------------------------------------------------------
def _write(path, payload: bytes):
    path.write_bytes(payload)
    return path


def _npz_damage(source, directory):
    """``(label, path)`` of damaged copies of one archive: torn and
    foreign bytes, then every member dropped, retyped, and cut short
    along each axis, then every way its metadata blob can be wrong."""
    data = source.read_bytes()
    yield "truncated", _write(directory / "truncated.npz",
                              data[: len(data) // 2])
    yield "not-zip", _write(directory / "not-zip.npz",
                            b"definitely not a zip archive\n" * 8)
    with np.load(source) as archive:
        members = {name: archive[name] for name in archive.files}

    def variant(label, changes):
        edited = {name: changes.get(name, array)
                  for name, array in members.items()}
        path = directory / f"{label.replace(' ', '-')}.npz"
        np.savez(path, **{name: array for name, array in edited.items()
                          if array is not None})
        return label, path

    for name, array in members.items():
        yield variant(f"missing {name}", {name: None})
        other = np.int64 if array.dtype.kind == "f" else np.float64
        yield variant(f"dtype {name}", {name: np.zeros(array.shape, other)})
        if array.ndim and array.shape[0]:
            yield variant(f"rows {name}", {name: array[:-1]})
        if array.ndim > 1 and array.shape[-1]:
            yield variant(f"columns {name}", {name: array[..., :-1]})
    if "metadata" not in members:
        return
    metadata = json.loads(bytes(members["metadata"]))
    blobs = {
        "metadata not JSON": b"{not json",
        "metadata not UTF-8": b"\xff\xfe{}",
        "metadata not an object": b"[1, 2]",
    }
    for key in metadata:
        blobs[f"metadata without {key}"] = json.dumps(
            {k: v for k, v in metadata.items() if k != key}
        ).encode("utf-8")
    for label, blob in blobs.items():
        yield variant(label, {"metadata": np.frombuffer(blob, np.uint8)})


def _json_damage(source, directory):
    """``(label, path)`` of damaged copies of one JSON artifact."""
    data = source.read_bytes()
    payload = json.loads(data)
    blobs = {
        "truncated": data[: len(data) // 2],
        "not JSON": b"{not json",
        "not UTF-8": b"\xff\xfe{}",
        "not an object": b"[1, 2]",
    }
    for key in payload:
        blobs[f"without {key}"] = json.dumps(
            {k: v for k, v in payload.items() if k != key}).encode()
    if "nodes" in payload:  # the dataset's per-node rows
        blobs["nodes not a list"] = json.dumps(
            {**payload, "nodes": {}}).encode()
        rows = [dict(row) for row in payload["nodes"]]
        del rows[0]["score"]
        blobs["node row without score"] = json.dumps(
            {**payload, "nodes": rows}).encode()
    for label, blob in blobs.items():
        yield label, _write(directory / f"{label.replace(' ', '-')}.json",
                            blob)


def _outcome(read, path):
    try:
        return None, read(path)
    except Exception as error:  # noqa: BLE001 — the class is compared
        return error, None


@pytest.mark.parametrize("name", FORMATS)
def test_damage_raises_reference_class(formats, name, tmp_path):
    fmt = formats[name]
    source = tmp_path / f"source{fmt.suffix}"
    fmt.write_ref(source)
    damaged = tmp_path / "damaged"
    damaged.mkdir()
    cases = (_npz_damage if fmt.suffix == ".npz" else _json_damage)(
        source, damaged)
    checked = 0
    for label, path in cases:
        ref_error, ref_value = _outcome(fmt.read_ref, path)
        new_error, new_value = _outcome(fmt.read_new, path)
        expected = fmt.stricter(label, ref_error) or (
            type(ref_error) if ref_error is not None else None)
        assert (type(new_error) if new_error is not None else None) \
            is expected, (label, ref_error, new_error)
        if new_error is None:
            assert_same(new_value, ref_value)
        else:
            assert str(path) in str(new_error), (label, new_error)
        checked += 1
    assert checked >= 5


def test_checkpoint_mismatches_stay_refusals(formats, tmp_path):
    """Version, fingerprint and index mismatches are plain
    ``SerializationError`` (resume refuses them); torn bytes are the
    ``CorruptArtifactError`` subclass (resume re-simulates the unit)."""
    fmt = formats["checkpoint"]
    unit = tmp_path / "workload_0002.npz"
    fmt.write_new(unit)
    with np.load(unit) as archive:
        members = {name: archive[name] for name in archive.files}
    identity = dict(fingerprint=CHECKPOINT_FINGERPRINT, workload_index=2,
                    n_faults=len(members["latent"]))
    metadata = json.loads(bytes(members["metadata"]))
    future = tmp_path / "future.npz"
    np.savez(future, **{**members, "metadata": np.frombuffer(
        json.dumps({**metadata, "version": 2}).encode(), np.uint8)})
    cases = [
        (future, identity),
        (unit, {**identity, "fingerprint": "0" * 64}),
        (unit, {**identity, "workload_index": 1}),
    ]
    for path, arguments in cases:
        for module in (io, ref_io):
            with pytest.raises(SerializationError) as raised:
                module.load_workload_checkpoint(path, **arguments)
            assert type(raised.value) is SerializationError
            assert str(path) in str(raised.value)
    torn = _write(tmp_path / "torn.npz", unit.read_bytes()[:40])
    with pytest.raises(CorruptArtifactError, match=str(torn)):
        io.load_workload_checkpoint(torn, **identity)


def test_bare_npy_is_corrupt_not_a_crash(tmp_path):
    """``np.load`` returns a bare array for ``.npy`` bytes; the reference
    then failed untyped, the codec calls the file corrupt."""
    path = tmp_path / "campaign.npz"
    with open(path, "wb") as handle:
        np.save(handle, np.arange(3))
    with pytest.raises(TypeError):
        ref_io.load_campaign(path)
    with pytest.raises(CorruptArtifactError, match=str(path)):
        io.load_campaign(path)


def test_ragged_explanation_tables_refused(formats, tmp_path):
    fmt = formats["explanations"]
    source = tmp_path / "source.npz"
    fmt.write_ref(source)
    with np.load(source) as archive:
        members = {name: archive[name] for name in archive.files}
    for key in ("node_indptr", "edge_indptr"):
        offsets = members[key].copy()
        offsets[-1] += 1
        path = tmp_path / f"ragged-{key}.npz"
        np.savez(path, **{**members, key: offsets})
        for read in (fmt.read_new, fmt.read_ref):
            with pytest.raises(SerializationError, match="ragged"):
                read(path)


# ----------------------------------------------------------------------
# a store the reference writers filled
# ----------------------------------------------------------------------
def test_store_filled_by_reference_writers_reads_back_all_hits(
    icfsm, tmp_path, monkeypatch,
):
    """Entries the pre-codec writers published are read by the codec
    with every lookup a hit: nothing is recomputed."""
    for name in ("save_campaign", "save_workloads", "save_features",
                 "save_dataset", "save_graph_data", "save_gcn",
                 "save_explanations"):
        monkeypatch.setattr(io, name, getattr(ref_io, name))
    monkeypatch.setattr(io, "write_json", lambda path, payload, **_: (
        ref_memo._write_json(payload)(path)))
    config = AnalyzerConfig(n_workloads=3, workload_cycles=40, seed=0)
    directory = tmp_path / "store"

    def run(analyzer):
        nodes = analyzer.sample_explain_nodes(1)
        return (analyzer.summary(), analyzer.baseline_accuracies(),
                analyzer.grid_search(hidden_dim_options=[(8,)],
                                     dropout_options=[0.0],
                                     lr_options=[0.01], epochs=5),
                analyzer.explain_nodes(nodes))

    cold = run(FaultCriticalityAnalyzer(
        icfsm, config, store=ArtifactStore(directory)))
    monkeypatch.undo()

    filled = ArtifactStore(directory).stats()
    assert filled["entries"] >= 10
    import repro.core.analyzer as analyzer_module

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a store hit was recomputed")

    monkeypatch.setattr(analyzer_module, "run_campaign", forbidden)
    monkeypatch.setattr(analyzer_module, "extract_features", forbidden)
    monkeypatch.setattr(analyzer_module.GCNClassifier, "fit", forbidden)
    monkeypatch.setattr(analyzer_module.GCNRegressor, "fit", forbidden)
    warm = run(FaultCriticalityAnalyzer(
        icfsm, config, store=ArtifactStore(directory)))
    after = ArtifactStore(directory).stats()
    assert after["misses"] == filled["misses"]
    assert after["hits"] > filled["hits"]
    assert repr(warm[:3]) == repr(cold[:3])
    assert_same(warm[3], cold[3])
