"""Artifact store: content addressing, durability, eviction, races,
corruption handling, and warm-vs-cold bitwise identity."""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.fi import run_campaign
from repro.io import (
    load_campaign,
    load_explanations,
    load_features,
    load_graph_data,
    save_campaign,
    save_explanations,
    save_features,
    save_graph_data,
)
from repro.netlist import from_verilog, to_verilog
from repro.sim import design_workloads
from repro.store import (
    KIND_EXTENSIONS,
    AnalysisMemo,
    ArtifactStore,
    memoized_campaign,
)
from repro.store import keys as K
from repro.utils.fingerprint import (
    campaign_fingerprint,
    canonical_hash,
    netlist_fingerprint,
    workloads_fingerprint,
)

SMALL = dict(n_workloads=3, workload_cycles=40)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def sdram_analysis(sdram):
    """One cold sdram analysis shared by the equality tests."""
    analyzer = FaultCriticalityAnalyzer(
        sdram, AnalyzerConfig(**SMALL)
    )
    analyzer.summary()
    return analyzer


def _text_writer(text):
    def writer(path):
        Path(path).write_text(text, encoding="utf-8")

    return writer


# ----------------------------------------------------------------------
# identity scheme
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_canonical_hash_key_order_independent(self):
        assert canonical_hash({"a": 1, "b": 2}) == canonical_hash(
            {"b": 2, "a": 1}
        )

    def test_canonical_hash_arrays_participate(self):
        header = {"x": 1}
        a = np.arange(4)
        assert canonical_hash(header, (a,)) != canonical_hash(header)
        assert canonical_hash(header, (a,)) == canonical_hash(
            header, (np.asfortranarray(a.reshape(2, 2)).ravel(),)
        )

    def test_netlist_fingerprint_tracks_structure(self, sdram):
        # Deterministic for identical sources ...
        text = to_verilog(sdram)
        fingerprint = netlist_fingerprint(from_verilog(text))
        assert netlist_fingerprint(from_verilog(text)) == fingerprint
        # ... and moved by any structural edit.
        edited = from_verilog(text)
        extra = edited.add_gate("IV", [edited.gates[3].output])
        edited.add_output(extra, "probe_extra")
        assert netlist_fingerprint(edited) != fingerprint

    def test_workloads_fingerprint_hashes_vector_bytes(self, sdram):
        suite_a = design_workloads("sdram", sdram, count=2, cycles=30,
                                   seed=0)
        suite_b = design_workloads("sdram", sdram, count=2, cycles=30,
                                   seed=1)
        assert [w.name for w in suite_a] == [w.name for w in suite_b]
        assert workloads_fingerprint(suite_a) != workloads_fingerprint(
            suite_b
        )

    def test_campaign_fingerprint_reexported_from_checkpoint(self):
        from repro.fi.checkpoint import (
            campaign_fingerprint as legacy,
        )

        assert legacy is campaign_fingerprint

    def test_stage_keys_chain_parents(self):
        a = K.stage_key("netlist", {"fingerprint": "x"})
        campaign_one = K.campaign_key(a, "w", severity=0.2,
                                      collapse=False,
                                      observation="all-outputs")
        campaign_two = K.campaign_key("other", "w", severity=0.2,
                                      collapse=False,
                                      observation="all-outputs")
        assert campaign_one != campaign_two
        assert K.dataset_key(campaign_one, threshold=0.5) != \
            K.dataset_key(campaign_two, threshold=0.5)


# ----------------------------------------------------------------------
# store mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get_roundtrip(self, store):
        key = K.stage_key("netlist", {"fingerprint": "t"})
        store.put(key, "netlist", _text_writer("module m; endmodule"))
        assert store.contains(key, "netlist")
        text = store.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        )
        assert text == "module m; endmodule"

    def test_miss_returns_none_and_counts(self, store):
        assert store.get("0" * 64, "netlist",
                         lambda p: Path(p).read_text()) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_entry_is_logged_miss_then_rewritten(
        self, store, caplog, sdram
    ):
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        campaign = run_campaign(sdram, workloads)
        key = "c" * 64
        store.put(key, "campaign",
                  lambda p: save_campaign(campaign, p))
        path = store.object_path(key, "campaign")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get(key, "campaign", load_campaign) is None
        assert any("failed validation" in record.message
                   for record in caplog.records)
        assert not path.exists()
        # Transparent rewrite: the slot accepts the artifact again.
        store.put(key, "campaign",
                  lambda p: save_campaign(campaign, p))
        restored = store.get(key, "campaign", load_campaign)
        assert np.array_equal(restored.error_cycles,
                              campaign.error_cycles)

    def test_garbage_bytes_every_kind_is_a_miss(self, store):
        for kind in KIND_EXTENSIONS:
            key = canonical_hash({"kind": kind})
            store.put(key, kind, _text_writer("not a valid artifact"))
        readers = {
            "campaign": load_campaign,
            "features": load_features,
            "graph": load_graph_data,
            "explanations": load_explanations,
            "dataset": lambda p: json.loads(
                Path(p).read_text()
            )["nodes"],
            "gridsearch": lambda p: json.loads(
                Path(p).read_text()
            )["points"],
        }
        for kind, reader in readers.items():
            key = canonical_hash({"kind": kind})
            # Wipe the recorded hash so the reader sees the bytes.
            assert store.get(key, kind, reader) is None

    def test_sha256_drift_is_a_miss(self, store):
        key = "d" * 64
        store.put(key, "netlist", _text_writer("original"))
        # Flip bytes behind the store's back, keeping the size.
        store.object_path(key, "netlist").write_text("ORIGINAL")
        assert store.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        ) is None

    def test_lru_gc_under_byte_budget(self, store):
        keys = [canonical_hash({"i": i}) for i in range(6)]
        for key in keys:
            store.put(key, "netlist", _text_writer("x" * 1000))
        # Touch the two oldest so they become the most recent.
        for key in keys[:2]:
            store.get(key, "netlist", lambda p: Path(p).read_text())
        evicted, freed = store.gc(byte_budget=3000)
        assert evicted == 3 and freed == 3000
        survivors = {row["key"] for row in store.entries()}
        assert survivors == {keys[0], keys[1], keys[5]}
        assert store.stats()["bytes"] <= 3000
        # put() enforces the persisted budget from now on.
        store.put(canonical_hash({"i": 99}), "netlist",
                  _text_writer("y" * 1000))
        assert store.stats()["bytes"] <= 3000

    def test_clear_empties_store(self, store):
        store.put("e" * 64, "netlist", _text_writer("x"))
        assert store.clear() == 1
        assert store.stats()["entries"] == 0
        assert not store.contains("e" * 64, "netlist")

    def test_corrupt_index_rebuilt_from_scan(self, store):
        key = "f" * 64
        store.put(key, "netlist", _text_writer("survives"))
        store.index_path.write_text("{ not json !", encoding="utf-8")
        reopened = ArtifactStore(store.directory)
        assert reopened.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        ) == "survives"

    def test_ghost_index_entry_dropped(self, store):
        key = "a" * 64
        store.put(key, "netlist", _text_writer("x"))
        store.object_path(key, "netlist").unlink()
        assert store.get(key, "netlist",
                         lambda p: Path(p).read_text()) is None
        assert store.stats()["entries"] == 0

    def test_find_matches_meta_most_recent_first(self, store):
        store.put("1" * 64, "netlist", _text_writer("x"),
                  meta={"design": "a"})
        store.put("2" * 64, "netlist", _text_writer("y"),
                  meta={"design": "b"})
        store.put("3" * 64, "netlist", _text_writer("z"),
                  meta={"design": "a"})
        found = store.find("netlist", design="a")
        assert [key for key, _ in found] == ["3" * 64, "1" * 64]


# ----------------------------------------------------------------------
# durability + races
# ----------------------------------------------------------------------
def _writer_process(directory: str, key: str, tag: int) -> None:
    store = ArtifactStore(directory)
    payload = f"// writer {tag}\n" + ("x" * 5000)
    store.put(key, "netlist", _text_writer(payload))


class TestDurability:
    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        """The temp file must be durable before it is published."""
        import repro.io as io_module

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            io_module.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            io_module.os, "replace",
            lambda a, b: (events.append("replace"),
                          real_replace(a, b))[1],
        )
        io_module.save_workload_checkpoint(
            tmp_path / "unit.npz", fingerprint="fp", workload_index=0,
            error_cycles=np.zeros(3, dtype=np.int64),
            detection_cycle=np.zeros(3, dtype=np.int64),
            latent=np.zeros(3, dtype=bool), elapsed_seconds=0.0,
        )
        assert "fsync" in events and "replace" in events
        # file fsync strictly precedes the rename; the parent
        # directory is synced after it.
        assert events.index("fsync") < events.index("replace")
        assert events[events.index("replace") + 1:].count("fsync") >= 1

    def test_atomic_write_text_durable(self, tmp_path):
        from repro.io import atomic_write_text

        target = tmp_path / "manifest.json"
        atomic_write_text(target, '{"ok": true}')
        assert json.loads(target.read_text()) == {"ok": True}
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_concurrent_writers_leave_one_valid_artifact(
        self, tmp_path
    ):
        directory = str(tmp_path / "shared")
        key = "b" * 64
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_writer_process,
                            args=(directory, key, tag))
            for tag in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        store = ArtifactStore(directory)
        text = store.get(
            key, "netlist",
            lambda p: Path(p).read_text(encoding="utf-8"),
        )
        assert text is not None and text.startswith("// writer ")
        objects = [
            path
            for path in (Path(directory) / "objects").glob("*/*")
            if not path.name.startswith(".tmp-")
        ]
        assert len(objects) == 1

    def test_put_merges_into_index_another_store_wrote(self, tmp_path):
        """Two stores open on one directory, as two processes would be:
        a put from the one whose snapshot is stale must keep the other's
        newer entry instead of writing back its own old hash."""
        def read(path):
            return Path(path).read_text(encoding="utf-8")

        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        key, other = "b" * 64, "c" * 64
        first.put(key, "netlist", _text_writer("// first writer"))
        second.put(key, "netlist", _text_writer("// second writer"))
        first.put(other, "netlist", _text_writer("// other key"))
        reopened = ArtifactStore(tmp_path)
        assert reopened.get(key, "netlist", read) == "// second writer"
        assert reopened.get(other, "netlist", read) == "// other key"
        assert reopened.stats()["entries"] == 2


# ----------------------------------------------------------------------
# memoized pipeline: warm == cold, bitwise
# ----------------------------------------------------------------------
class TestMemoizedAnalysis:
    def test_warm_rerun_is_bitwise_identical_without_recompute(
        self, sdram, sdram_analysis, tmp_path, monkeypatch
    ):
        config = AnalyzerConfig(**SMALL)
        directory = tmp_path / "store"
        cold = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        cold_rows = (cold.summary(), cold.baseline_accuracies(),
                     cold.regression_quality())
        # The store-less reference run must agree with the cold
        # store-backed run (the store changes nothing on a miss) —
        # modulo wall-clock fields, which vary run to run.
        def steady(summary):
            return {key: value for key, value in summary.items()
                    if "seconds" not in key}

        assert repr(steady(cold.summary())) == \
            repr(steady(sdram_analysis.summary()))

        # Poison every expensive stage: a warm run must touch none.
        import repro.core.analyzer as analyzer_module

        def forbidden(*_args, **_kwargs):
            raise AssertionError("warm run recomputed a cached stage")

        monkeypatch.setattr(analyzer_module, "run_campaign", forbidden)
        monkeypatch.setattr(analyzer_module, "extract_features",
                            forbidden)
        monkeypatch.setattr(analyzer_module.GCNClassifier, "fit",
                            forbidden)
        monkeypatch.setattr(analyzer_module.GCNRegressor, "fit",
                            forbidden)
        warm = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        warm_rows = (warm.summary(), warm.baseline_accuracies(),
                     warm.regression_quality())
        assert repr(warm_rows) == repr(cold_rows)
        assert np.array_equal(warm.data.x, cold.data.x)
        assert np.array_equal(warm.data.y_score, cold.data.y_score)
        assert np.array_equal(warm.classifier.predict(),
                              cold.classifier.predict())
        assert np.array_equal(warm.regressor.predict(),
                              cold.regressor.predict())

    def test_explanations_memoized_identically(self, sdram, tmp_path):
        config = AnalyzerConfig(**SMALL)
        directory = tmp_path / "store"
        cold = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        nodes = cold.sample_explain_nodes(1)
        first = cold.explain_nodes(nodes)
        warm = FaultCriticalityAnalyzer(
            sdram, config, store=ArtifactStore(directory)
        )
        second = warm.explain_nodes(nodes)
        assert len(first) == len(second) > 0
        for mine, theirs in zip(first, second):
            assert mine.node_name == theirs.node_name
            assert mine.predicted_class == theirs.predicted_class
            assert np.array_equal(mine.feature_scores,
                                  theirs.feature_scores)
            assert mine.subgraph_nodes == theirs.subgraph_nodes
            assert mine.edge_importance == theirs.edge_importance

    def test_partial_campaign_never_cached(self, sdram, tmp_path):
        from repro.fi.campaign import CampaignResult, WorkloadFailure

        store = ArtifactStore(tmp_path / "store")
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        real = run_campaign(sdram, workloads)
        partial = CampaignResult(
            netlist_name=real.netlist_name, faults=real.faults,
            workload_names=real.workload_names,
            workload_cycles=real.workload_cycles,
            error_cycles=real.error_cycles,
            detection_cycle=real.detection_cycle, latent=real.latent,
            severity=real.severity,
            simulation_seconds=real.simulation_seconds,
            failures=[WorkloadFailure(
                workload="w0", status="timeout", attempts=1,
                elapsed_seconds=1.0, error="boom",
            )],
        )
        result = memoized_campaign(
            store, sdram, workloads, compute=lambda: partial
        )
        assert result is partial
        assert store.stats()["by_kind"].get("campaign") is None

    # The near-miss path reads the cached base netlist back from the
    # store.  A file it leaves open raises ResourceWarning when it is
    # collected; that error is unraisable, and the second filter turns
    # pytest's report of it into a failure.
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_near_miss_recovers_via_eco_bitwise(self, sdram, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        workloads = design_workloads("sdram", sdram, count=2,
                                     cycles=30, seed=0)
        memoized_campaign(
            store, sdram, workloads,
            compute=lambda: run_campaign(sdram, workloads),
        )
        # Edit the design: re-drive one output through an extra
        # buffer pair (structure changes, fault universe grows).
        edited = from_verilog(to_verilog(sdram))
        tap = edited.gates[10].output
        first = edited.add_gate("IV", [tap])
        second = edited.add_gate("IV", [first])
        edited.add_output(second, "probe_tap")
        edited_workloads = design_workloads("sdram", edited, count=2,
                                            cycles=30, seed=0)

        calls = {"cold": 0}

        def cold_compute():
            calls["cold"] += 1
            return run_campaign(edited, edited_workloads)

        recovered = memoized_campaign(
            store, edited, edited_workloads, compute=cold_compute
        )
        assert calls["cold"] == 0, "near-miss path did not engage"
        reference = run_campaign(edited, edited_workloads)
        assert recovered.netlist_name == reference.netlist_name
        assert np.array_equal(recovered.error_cycles,
                              reference.error_cycles)
        assert np.array_equal(recovered.detection_cycle,
                              reference.detection_cycle)
        assert np.array_equal(recovered.latent, reference.latent)
        # The recovered result is now cached under its exact key:
        # a third run is a plain hit.
        hit = memoized_campaign(
            store, edited, edited_workloads, compute=cold_compute
        )
        assert calls["cold"] == 0
        assert np.array_equal(hit.error_cycles, reference.error_cycles)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestStoreCli:
    def test_analyze_warm_stdout_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = ["analyze", "sdram", "--workloads", "3", "--cycles",
                "40", "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        cold_output = capsys.readouterr().out
        assert main(argv) == 0
        warm_output = capsys.readouterr().out
        assert warm_output == cold_output
        # A store-less run still works (fresh simulation timing means
        # its wall-clock column may differ, so no byte comparison).
        assert main(argv[:-2] + ["--no-store"]) == 0
        assert capsys.readouterr().out

    def test_store_subcommand_lifecycle(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = str(tmp_path / "store")
        argv = ["campaign", "sdram", "--workloads", "2", "--cycles",
                "30", "--store", directory]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", directory]) == 0
        assert "campaign" in capsys.readouterr().out
        assert main(["store", "ls", "--store", directory]) == 0
        assert "sdram" in capsys.readouterr().out
        assert main(["store", "gc", "--store", directory,
                     "--budget", "1"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert ArtifactStore(directory).stats()["bytes"] <= 1
        assert main(["store", "clear", "--store", directory]) == 0
        assert "removed" in capsys.readouterr().out

    def test_store_subcommand_requires_directory(self, capsys,
                                                 monkeypatch):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "stats"]) == 2


# ----------------------------------------------------------------------
# new io round-trips
# ----------------------------------------------------------------------
class TestNewIoRoundTrips:
    def test_features_roundtrip(self, sdram, tmp_path):
        from repro.features import extract_features

        features = extract_features(sdram, probability_source="cop")
        path = tmp_path / "features.npz"
        save_features(features, path)
        loaded = load_features(path)
        assert loaded.design == features.design
        assert loaded.node_names == features.node_names
        assert loaded.feature_names == features.feature_names
        assert np.array_equal(loaded.matrix, features.matrix)

    def test_graph_data_roundtrip(self, sdram, tmp_path):
        analyzer = FaultCriticalityAnalyzer(
            sdram, AnalyzerConfig(**SMALL)
        )
        data = analyzer.data
        path = tmp_path / "graph.npz"
        save_graph_data(data, path)
        loaded = load_graph_data(path)
        assert loaded.design == data.design
        assert loaded.node_names == data.node_names
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.x_raw, data.x_raw)
        assert np.array_equal(loaded.edge_index, data.edge_index)
        assert np.array_equal(loaded.y_class, data.y_class)
        assert np.array_equal(loaded.y_score, data.y_score)

    def test_explanations_roundtrip(self, sdram, tmp_path):
        analyzer = FaultCriticalityAnalyzer(
            sdram, AnalyzerConfig(**SMALL)
        )
        nodes = analyzer.sample_explain_nodes(1)
        explanations = analyzer.explain_nodes(nodes)
        path = tmp_path / "explanations.npz"
        save_explanations(explanations, path)
        loaded = load_explanations(path)
        assert len(loaded) == len(explanations)
        for mine, theirs in zip(explanations, loaded):
            assert mine.node_name == theirs.node_name
            assert mine.node_index == theirs.node_index
            assert mine.predicted_class == theirs.predicted_class
            assert mine.feature_names == theirs.feature_names
            assert np.array_equal(mine.feature_scores,
                                  theirs.feature_scores)
            assert mine.subgraph_nodes == theirs.subgraph_nodes
            assert mine.edge_importance == theirs.edge_importance
