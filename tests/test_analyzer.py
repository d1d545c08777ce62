"""Tests for the end-to-end FaultCriticalityAnalyzer pipeline."""

import numpy as np
import pytest

from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.models import BASELINE_NAMES


class TestPipelineStages:
    def test_stage_caching(self, icfsm_analyzer):
        analyzer = icfsm_analyzer
        assert analyzer.workloads is analyzer.workloads
        assert analyzer.campaign is analyzer.campaign
        assert analyzer.dataset is analyzer.dataset
        assert analyzer.classifier is analyzer.classifier
        assert analyzer.regressor is analyzer.regressor

    def test_workloads_config(self, icfsm_analyzer):
        assert len(icfsm_analyzer.workloads) == 12
        assert all(w.cycles == 150 for w in icfsm_analyzer.workloads)

    def test_dataset_properties(self, icfsm_analyzer):
        dataset = icfsm_analyzer.dataset
        assert dataset.n_nodes == icfsm_analyzer.netlist.n_gates
        assert 0.0 < dataset.critical_fraction < 1.0
        assert dataset.threshold == 0.5

    def test_split_is_80_20(self, icfsm_analyzer):
        split = icfsm_analyzer.split
        total = split.n_train + split.n_val
        assert total == icfsm_analyzer.data.n_nodes
        assert split.n_val == pytest.approx(total * 0.2, abs=3)

    def test_summary_keys(self, icfsm_analyzer):
        summary = icfsm_analyzer.summary()
        assert summary["design"] == "or1200_icfsm"
        assert 0.5 <= summary["gcn_accuracy"] <= 1.0
        assert 0.0 <= summary["gcn_auc"] <= 1.0
        assert summary["fi_seconds"] > 0


class TestEvaluationViews:
    def test_validation_accuracy_beats_chance(self, icfsm_analyzer):
        accuracy = icfsm_analyzer.validation_accuracy()
        assert accuracy >= 0.6

    def test_validation_roc(self, icfsm_analyzer):
        curve = icfsm_analyzer.validation_roc()
        assert 0.5 <= curve.auc <= 1.0

    def test_validation_confusion_totals(self, icfsm_analyzer):
        matrix = icfsm_analyzer.validation_confusion()
        total = (matrix.true_positive + matrix.false_positive
                 + matrix.true_negative + matrix.false_negative)
        assert total == icfsm_analyzer.split.n_val

    def test_baseline_accuracies(self, icfsm_analyzer):
        results = icfsm_analyzer.baseline_accuracies()
        assert set(results) == set(BASELINE_NAMES)
        assert all(0.3 <= value <= 1.0 for value in results.values())

    def test_baseline_rocs(self, icfsm_analyzer):
        curves = icfsm_analyzer.baseline_rocs(names=("LoR", "RFC"))
        assert set(curves) == {"LoR", "RFC"}
        assert all(0.0 <= curve.auc <= 1.0 for curve in curves.values())

    def test_regression_quality(self, icfsm_analyzer):
        quality = icfsm_analyzer.regression_quality()
        assert -1.0 <= quality["pearson"] <= 1.0
        assert 0.0 <= quality["conformity_with_classifier"] <= 1.0
        assert 0.0 <= quality["conformity_with_labels"] <= 1.0

    def test_node_report_rows(self, icfsm_analyzer):
        nodes = icfsm_analyzer.data.node_names[:3]
        reports = icfsm_analyzer.node_report(nodes)
        assert [report.node_name for report in reports] == nodes
        for report in reports:
            assert report.classification in ("Critical", "Non-critical")
            assert 0.0 <= report.criticality_score <= 1.0
            assert len(report.feature_scores) == 5
            row = report.as_row()
            assert row["design"] == "or1200_icfsm"

    def test_global_importance(self, icfsm_analyzer):
        importance = icfsm_analyzer.global_importance(sample=8)
        assert importance.n_explanations == 8
        assert len(importance.ranked_features()) == 5

    def test_sample_explain_nodes(self, icfsm_analyzer):
        sample = icfsm_analyzer.sample_explain_nodes(per_class=2)
        assert sample == icfsm_analyzer.sample_explain_nodes(per_class=2)
        validation = np.flatnonzero(icfsm_analyzer.split.val_mask)
        assert set(sample) <= {int(node) for node in validation}
        predictions = icfsm_analyzer.classifier.predict()
        sampled_classes = {int(predictions[node]) for node in sample}
        present_classes = {int(predictions[node]) for node in validation}
        assert sampled_classes == present_classes
        for label in present_classes:
            count = sum(
                1 for node in sample if predictions[node] == label
            )
            assert count <= 2

    def test_explain_nodes_jobs_match_serial(self, icfsm_analyzer):
        nodes = icfsm_analyzer.data.node_names[:4]
        serial = icfsm_analyzer.explainer.explain_many(nodes, jobs=1)
        pooled = FaultCriticalityAnalyzer(
            icfsm_analyzer.netlist, icfsm_analyzer.config, jobs=2
        )
        # Share the trained stages: only the explainer's fan-out moves.
        pooled._data = icfsm_analyzer.data
        pooled._classifier = icfsm_analyzer.classifier
        forked = pooled.explain_nodes(nodes, batch_size=2)
        for left, right in zip(serial, forked):
            assert np.array_equal(left.feature_scores,
                                  right.feature_scores)
            assert left.edge_importance == right.edge_importance


def test_config_controls_features(icfsm):
    config = AnalyzerConfig(
        n_workloads=4, workload_cycles=60,
        probability_source="cop", extended_features=True, seed=1,
    )
    analyzer = FaultCriticalityAnalyzer(icfsm, config)
    assert analyzer.features.n_features == 13
    assert analyzer.data.x.shape[1] == 13


def test_custom_workloads_respected(icfsm):
    from repro.sim import random_workload

    workloads = [random_workload(icfsm, cycles=40, seed=s)
                 for s in range(3)]
    analyzer = FaultCriticalityAnalyzer(icfsm, workloads=workloads)
    assert analyzer.workloads is not None
    assert len(analyzer.workloads) == 3
    assert analyzer.campaign.n_workloads == 3


def test_analyzer_deterministic(icfsm):
    config = AnalyzerConfig(n_workloads=4, workload_cycles=60, seed=9)
    first = FaultCriticalityAnalyzer(icfsm, config)
    second = FaultCriticalityAnalyzer(icfsm, config)
    assert np.array_equal(first.dataset.scores, second.dataset.scores)
    assert np.array_equal(first.split.val_mask, second.split.val_mask)
    assert first.validation_accuracy() == second.validation_accuracy()
