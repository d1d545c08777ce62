"""Tests for fault collapsing, persistence, and the SGC model."""

import re

import numpy as np
import pytest

from repro.circuits import CircuitBuilder
from repro.fi import (
    collapse_faults,
    dataset_from_campaign,
    expand_results,
    full_fault_universe,
    run_campaign,
    run_transient_campaign,
)
from repro.graph import stratified_split
from repro.io import (
    load_campaign,
    load_dataset,
    load_gcn,
    load_split,
    save_campaign,
    save_dataset,
    save_gcn,
    save_split,
)
from repro.models import GCNClassifier, GCNRegressor
from repro.models.sgc import SGCClassifier
from repro.sim import design_workloads, random_workload
from repro.utils.errors import CorruptArtifactError, ModelError, ReproError


# ----------------------------------------------------------------------
# fault collapsing
# ----------------------------------------------------------------------
class TestCollapse:
    def buffered_chain(self):
        """inv -> buf -> buf -> PO: all four faults collapse to two
        classes (one per polarity)."""
        builder = CircuitBuilder("chain")
        a = builder.input("a")
        inverted = builder.not_(a)
        buffered = builder.buf(builder.buf(inverted))
        builder.output(buffered, "y")
        return builder.netlist

    def test_chain_collapses(self):
        netlist = self.buffered_chain()
        faults = full_fault_universe(netlist)
        universe = collapse_faults(netlist, faults)
        # 3 gates x 2 faults = 6 faults -> 2 classes (stuck 0/1 at the
        # chain's observable end).
        assert len(universe.original) == 6
        assert len(universe.representatives) == 2
        assert universe.collapse_ratio == pytest.approx(4 / 6)

    def test_fanout_blocks_collapse(self):
        builder = CircuitBuilder("fan")
        a = builder.input("a")
        inverted = builder.not_(a)
        builder.output(builder.buf(inverted), "y0")
        builder.output(builder.buf(inverted), "y1")  # second observer
        netlist = builder.netlist
        universe = collapse_faults(netlist, full_fault_universe(netlist))
        # The inverter's output feeds two buffers: no collapsing there.
        assert len(universe.representatives) == 6

    def test_po_blocks_collapse(self):
        builder = CircuitBuilder("po")
        a = builder.input("a")
        inverted = builder.not_(a)
        builder.output(inverted, "tap")  # observable: cannot collapse
        builder.output(builder.buf(inverted), "y")
        netlist = builder.netlist
        universe = collapse_faults(netlist, full_fault_universe(netlist))
        assert len(universe.representatives) == 4

    def test_expand_results_scatter(self):
        netlist = self.buffered_chain()
        universe = collapse_faults(netlist, full_fault_universe(netlist))
        per_rep = np.array([[10, 20]])
        expanded = expand_results(universe, per_rep)
        assert expanded.shape == (1, 6)
        assert set(expanded[0]) == {10, 20}

    def test_collapsed_campaign_identical(self, icfsm):
        workloads = design_workloads(icfsm.name, icfsm, count=3,
                                     cycles=80, seed=0)
        full = run_campaign(icfsm, workloads)
        collapsed = run_campaign(icfsm, workloads, collapse=True)
        assert np.array_equal(full.error_cycles, collapsed.error_cycles)
        assert np.array_equal(full.detection_cycle,
                              collapsed.detection_cycle)
        assert np.array_equal(full.latent, collapsed.latent)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
class TestPersistence:
    def test_campaign_roundtrip(self, icfsm, tmp_path):
        workloads = design_workloads(icfsm.name, icfsm, count=3,
                                     cycles=60, seed=0)
        campaign = run_campaign(icfsm, workloads)
        path = tmp_path / "campaign.npz"
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert loaded.netlist_name == campaign.netlist_name
        assert loaded.workload_names == campaign.workload_names
        assert loaded.severity == campaign.severity
        assert np.array_equal(loaded.error_cycles, campaign.error_cycles)
        assert np.array_equal(loaded.latent, campaign.latent)
        assert [f.name for f in loaded.faults] == [
            f.name for f in campaign.faults
        ]
        # The derived dataset is identical.
        a = dataset_from_campaign(campaign)
        b = dataset_from_campaign(loaded)
        assert np.allclose(a.scores, b.scores)

    def test_transient_campaign_roundtrip(self, icfsm, tmp_path):
        workloads = design_workloads(icfsm.name, icfsm, count=2,
                                     cycles=80, seed=0)
        campaign = run_transient_campaign(icfsm, workloads,
                                          injections_per_flop=3, seed=1)
        path = tmp_path / "seu.npz"
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert [f.name for f in loaded.faults] == [
            f.name for f in campaign.faults
        ]
        assert np.array_equal(loaded.error_cycles, campaign.error_cycles)

    def test_corrupt_campaign_archive_rejected(self, tmp_path):
        from repro.utils.errors import SerializationError

        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive")
        with pytest.raises(SerializationError, match="corrupt"):
            load_campaign(garbage)
        assert issubclass(SerializationError, ReproError)

    def test_truncated_campaign_archive_rejected(self, icfsm,
                                                 tmp_path):
        workloads = design_workloads(icfsm.name, icfsm, count=2,
                                     cycles=60, seed=0)
        campaign = run_campaign(icfsm, workloads)
        path = tmp_path / "campaign.npz"
        save_campaign(campaign, path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ReproError):
            load_campaign(path)

    def test_inconsistent_campaign_shapes_rejected(self, icfsm,
                                                   tmp_path):
        """Tampered archive: error matrix dropped a workload row."""
        workloads = design_workloads(icfsm.name, icfsm, count=3,
                                     cycles=60, seed=0)
        campaign = run_campaign(icfsm, workloads)
        path = tmp_path / "campaign.npz"
        campaign.error_cycles = campaign.error_cycles[:2]
        save_campaign(campaign, path)
        with pytest.raises(ReproError, match="shape"):
            load_campaign(path)

    def test_corrupt_dataset_json_rejected(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_dataset(path)

    def test_dataset_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_text('{"design": "x"}', encoding="utf-8")
        with pytest.raises(ReproError, match="missing"):
            load_dataset(path)

    def test_dataset_malformed_node_rejected(self, tmp_path):
        import json

        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({
            "design": "x", "threshold": 0.5, "n_workloads": 1,
            "nodes": [{"name": "a"}],
        }), encoding="utf-8")
        with pytest.raises(ReproError, match="node row 0"):
            load_dataset(path)

    def test_dataset_roundtrip(self, icfsm_analyzer, tmp_path):
        dataset = icfsm_analyzer.dataset
        path = tmp_path / "dataset.json"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.design == dataset.design
        assert loaded.node_names == dataset.node_names
        assert np.allclose(loaded.scores, dataset.scores)
        assert np.array_equal(loaded.labels, dataset.labels)

    def test_gcn_roundtrip(self, icfsm_analyzer, tmp_path):
        classifier = icfsm_analyzer.classifier
        path = tmp_path / "gcn.npz"
        save_gcn(classifier, path)
        loaded = load_gcn(path, icfsm_analyzer.data)
        assert np.array_equal(loaded.predict(), classifier.predict())
        assert np.allclose(loaded.predict_proba(),
                           classifier.predict_proba())

    def test_regressor_roundtrip(self, icfsm_analyzer, tmp_path):
        regressor = icfsm_analyzer.regressor
        path = tmp_path / "reg.npz"
        save_gcn(regressor, path)
        loaded = load_gcn(path, icfsm_analyzer.data)
        assert np.allclose(loaded.predict(), regressor.predict())

    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            save_gcn(GCNClassifier(), tmp_path / "x.npz")

    def test_load_gcn_feature_mismatch(self, icfsm_analyzer, tmp_path):
        path = tmp_path / "gcn.npz"
        save_gcn(icfsm_analyzer.classifier, path)
        reduced = icfsm_analyzer.data.subset_features(
            ["Number of connections"]
        )
        with pytest.raises(ReproError, match="shape mismatch"):
            load_gcn(path, reduced)

    def test_split_roundtrip(self, tmp_path):
        labels = np.random.default_rng(0).integers(0, 2, 40)
        split = stratified_split(labels, 0.25, seed=2)
        path = tmp_path / "split.npz"
        save_split(split, path)
        loaded = load_split(path)
        assert np.array_equal(loaded.train_mask, split.train_mask)
        assert np.array_equal(loaded.val_mask, split.val_mask)

    @pytest.mark.parametrize("damage", ["truncated", "not_zip"])
    def test_load_gcn_corrupt_archive(self, icfsm_analyzer, tmp_path,
                                      damage):
        path = tmp_path / "gcn.npz"
        save_gcn(icfsm_analyzer.classifier, path)
        damage_file(path, damage)
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            load_gcn(path, icfsm_analyzer.data)

    @pytest.mark.parametrize("damage", ["truncated", "not_zip"])
    def test_load_split_corrupt_archive(self, tmp_path, damage):
        labels = np.random.default_rng(0).integers(0, 2, 40)
        path = tmp_path / "split.npz"
        save_split(stratified_split(labels, 0.25, seed=2), path)
        damage_file(path, damage)
        with pytest.raises(CorruptArtifactError, match=re.escape(str(path))):
            load_split(path)


def damage_file(path, damage):
    """Cut an archive in half, or overwrite it with non-zip bytes."""
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[: len(data) // 2])
    else:
        path.write_bytes(b"definitely not a zip archive\n" * 8)


# ----------------------------------------------------------------------
# SGC extension model
# ----------------------------------------------------------------------
class TestSGC:
    def test_learns_real_dataset(self, icfsm_analyzer):
        data = icfsm_analyzer.data
        split = icfsm_analyzer.split
        model = SGCClassifier(k=3).fit(data, split)
        accuracy = model.accuracy(split.val_mask)
        assert accuracy >= 0.6
        probabilities = model.predict_proba()
        assert probabilities.shape == (data.n_nodes, 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_structure_helps_over_k0_equivalent(self, icfsm_analyzer):
        """SGC with smoothing should not be drastically worse than the
        plain-feature logistic head (it uses strictly more info)."""
        from repro.models import LogisticRegression

        data = icfsm_analyzer.data
        split = icfsm_analyzer.split
        sgc = SGCClassifier(k=2).fit(data, split)
        plain = LogisticRegression().fit(
            data.x[split.train_mask], data.y_class[split.train_mask]
        )
        plain_accuracy = plain.score(data.x[split.val_mask],
                                     data.y_class[split.val_mask])
        assert sgc.accuracy(split.val_mask) >= plain_accuracy - 0.1

    def test_validation(self, icfsm_analyzer):
        with pytest.raises(ModelError):
            SGCClassifier(k=0)
        with pytest.raises(ModelError):
            SGCClassifier().predict()


def test_dataset_roundtrip_preserves_trials(icfsm_analyzer, tmp_path):
    import numpy as np

    dataset = icfsm_analyzer.dataset
    path = tmp_path / "ds.json"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.trials is not None
    assert np.array_equal(loaded.trials, dataset.trials)
    low_a, high_a = dataset.confidence_intervals()
    low_b, high_b = loaded.confidence_intervals()
    assert np.allclose(low_a, low_b) and np.allclose(high_a, high_b)
