"""GNNExplainer against its frozen pre-refactor copy.

Ground truth is ``tests/_reference_explain`` — the explainer as it was
before its optimizer moved onto ``repro.nn.optim.Adam``, its sparse
product onto a direct ``csr_matvecs`` call, and its BFS onto
``csr_gather``.  Those swaps must not move a single bit: the learned
masks and the explanations built from them are compared exactly, for
several batch sizes and for one and two worker processes.
"""

import pytest

from repro.explain import gnn_explainer
from repro.explain.gnn_explainer import ExplainerConfig
from tests._reference_explain import ref_gnn_explainer

#: Short optimizations keep the sweep cheap; bitwise equality must
#: hold at every epoch count, so the count is not what is under test.
CONFIG = ExplainerConfig(epochs=40)


@pytest.fixture(scope="module")
def setup(icfsm_analyzer):
    data = icfsm_analyzer.data
    # Every seventh node: subgraphs of several widths, so the batcher
    # forms full, partial and single-node batches.
    return icfsm_analyzer.classifier, data, list(range(0, data.n_nodes, 7))


def _record_masks(module, monkeypatch):
    """Capture every ``(edge_masks, feature_masks)`` the module's
    batch optimizer returns (in-process runs only)."""
    records = []
    optimize = module._optimize_masks

    def recording(*args):
        masks = optimize(*args)
        records.append(tuple(mask.copy() for mask in masks))
        return masks

    monkeypatch.setattr(module, "_optimize_masks", recording)
    return records


def _assert_same_explanations(reference, candidate):
    assert len(reference) == len(candidate)
    for left, right in zip(reference, candidate):
        assert left.node_name == right.node_name
        assert left.node_index == right.node_index
        assert left.predicted_class == right.predicted_class
        assert left.feature_names == right.feature_names
        assert left.subgraph_nodes == right.subgraph_nodes
        assert left.feature_scores.tobytes() == right.feature_scores.tobytes()
        assert left.edge_importance == right.edge_importance


@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_masks_match_reference(setup, monkeypatch, batch_size):
    classifier, data, nodes = setup
    reference_masks = _record_masks(ref_gnn_explainer, monkeypatch)
    masks = _record_masks(gnn_explainer, monkeypatch)
    reference = ref_gnn_explainer.GNNExplainer(
        classifier, data, config=CONFIG, seed=5,
    ).explain_many(nodes, batch_size=batch_size)
    explained = gnn_explainer.GNNExplainer(
        classifier, data, config=CONFIG, seed=5,
    ).explain_many(nodes, batch_size=batch_size)

    assert len(masks) == len(reference_masks) > 0
    for (edge, feature), (ref_edge, ref_feature) in zip(
            masks, reference_masks):
        assert edge.tobytes() == ref_edge.tobytes()
        assert feature.tobytes() == ref_feature.tobytes()
    _assert_same_explanations(reference, explained)


@pytest.mark.parametrize("batch_size", [2, 16])
def test_forked_explanations_match_reference(setup, batch_size):
    classifier, data, nodes = setup
    reference = ref_gnn_explainer.GNNExplainer(
        classifier, data, config=CONFIG, seed=5,
    ).explain_many(nodes, jobs=2, batch_size=batch_size)
    explained = gnn_explainer.GNNExplainer(
        classifier, data, config=CONFIG, seed=5,
    ).explain_many(nodes, jobs=2, batch_size=batch_size)
    _assert_same_explanations(reference, explained)
