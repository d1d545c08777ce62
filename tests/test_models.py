"""Tests for the GCN models and the five baseline classifiers."""

import numpy as np
import pytest

from repro.graph import GraphData, stratified_split
from repro.models import (
    BASELINE_NAMES,
    DecisionTree,
    GCNClassifier,
    GCNRegressor,
    make_classifier,
    registered_classifiers,
)
from repro.models.gcn import build_gcn_stack
from repro.nn import TrainingConfig
from repro.utils.errors import ModelError


def synthetic_graph(n=80, seed=0):
    """A graph dataset whose labels mix feature and neighborhood
    signal, so message passing genuinely helps."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    edges = [[], []]
    for node in range(n):
        for _ in range(3):
            other = int(rng.integers(n))
            if other != node:
                edges[0].append(node)
                edges[1].append(other)
    edge_index = np.array(edges)
    neighbor_mean = np.zeros(n)
    for source, target in edge_index.T:
        neighbor_mean[target] += x[source, 0]
    y = ((x[:, 0] + 0.5 * neighbor_mean) > 0).astype(np.int64)
    score = 1 / (1 + np.exp(-(x[:, 0] + 0.5 * neighbor_mean)))
    return GraphData(
        design="synthetic",
        node_names=[f"N_{i}" for i in range(n)],
        x=x, x_raw=x,
        edge_index=edge_index,
        y_class=y,
        y_score=score,
        feature_names=[f"f{i}" for i in range(4)],
    )


class TestGCNClassifier:
    def test_learns_synthetic_graph(self):
        data = synthetic_graph()
        split = stratified_split(data.y_class, 0.25, seed=1)
        model = GCNClassifier(
            seed=0, config=TrainingConfig(epochs=250, patience=60)
        )
        model.fit(data, split)
        assert model.accuracy(split.val_mask) >= 0.8
        # training-fold accuracy stays informative (weights restored to
        # the best *validation* epoch, so train can trail slightly)
        assert model.accuracy(split.train_mask) >= 0.7

    def test_predict_shapes_and_probabilities(self):
        data = synthetic_graph()
        split = stratified_split(data.y_class, 0.25, seed=1)
        model = GCNClassifier(seed=0,
                              config=TrainingConfig(epochs=50)).fit(
            data, split
        )
        probabilities = model.predict_proba()
        assert probabilities.shape == (data.n_nodes, 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        predictions = model.predict()
        assert set(np.unique(predictions)) <= {0, 1}

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            GCNClassifier().predict()

    def test_table1_architecture(self):
        from repro.nn.modules import (
            Dropout,
            GCNConv,
            LogSoftmax,
            ReLU,
        )
        from repro.graph.adjacency import normalized_adjacency

        a_norm = normalized_adjacency(np.array([[0], [1]]), 2)
        stack = build_gcn_stack(5, 2, a_norm)
        kinds = [type(module).__name__ for module in stack.modules]
        assert kinds == [
            "GCNConv", "ReLU", "GCNConv", "ReLU", "Dropout",
            "GCNConv", "ReLU", "GCNConv", "LogSoftmax",
        ]
        convs = [m for m in stack.modules if isinstance(m, GCNConv)]
        dims = [conv.weight.shape for conv in convs]
        assert dims == [(5, 16), (16, 32), (32, 64), (64, 2)]
        dropout = [m for m in stack.modules if isinstance(m, Dropout)]
        assert dropout[0].p == pytest.approx(0.3)

    def test_row_normalization_variant(self):
        data = synthetic_graph()
        split = stratified_split(data.y_class, 0.25, seed=1)
        model = GCNClassifier(
            adjacency_mode="row", seed=0,
            config=TrainingConfig(epochs=80),
        ).fit(data, split)
        assert 0.4 <= model.accuracy(split.val_mask) <= 1.0


class TestGCNRegressor:
    def test_learns_scores(self):
        data = synthetic_graph()
        split = stratified_split(data.y_class, 0.25, seed=1)
        model = GCNRegressor(
            seed=0, config=TrainingConfig(epochs=300, lr=0.005,
                                          patience=80),
        ).fit(data, split)
        predictions = model.predict()
        assert predictions.shape == (data.n_nodes,)
        assert predictions.min() >= 0.0 and predictions.max() <= 1.0
        correlation = np.corrcoef(
            predictions[split.val_mask], data.y_score[split.val_mask]
        )[0, 1]
        assert correlation > 0.5

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            GCNRegressor().predict()


def blobs(n=120, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([
        rng.normal(loc=-1.2, size=(half, 3)),
        rng.normal(loc=1.2, size=(n - half, 3)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return x[order], y[order]


@pytest.mark.parametrize("name", BASELINE_NAMES)
class TestBaselines:
    def test_learns_blobs(self, name):
        x, y = blobs()
        model = make_classifier(name)
        model.fit(x[:90], y[:90])
        assert model.score(x[90:], y[90:]) >= 0.9

    def test_probabilities_valid(self, name):
        x, y = blobs()
        model = make_classifier(name).fit(x[:90], y[:90])
        probabilities = model.predict_proba(x[90:])
        assert probabilities.shape == (30, 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert probabilities.min() >= 0.0

    def test_predict_before_fit(self, name):
        model = make_classifier(name)
        with pytest.raises(ModelError):
            model.predict(np.zeros((2, 3)))

    def test_single_class_rejected(self, name):
        model = make_classifier(name)
        with pytest.raises(ModelError):
            model.fit(np.zeros((4, 2)), np.zeros(4))

    def test_labels_outside_zero_one_rejected(self, name):
        model = make_classifier(name)
        with pytest.raises(ModelError, match=r"found \[0, 2\]"):
            model.fit(np.zeros((4, 2)), np.array([0, 2, 0, 2]))


def test_registry_contents():
    registry = registered_classifiers()
    assert set(BASELINE_NAMES) <= set(registry)
    with pytest.raises(ModelError):
        make_classifier("XGB")


def test_baselines_handle_imbalance():
    """With 85/15 imbalance, balanced baselines should not collapse to
    the majority class."""
    rng = np.random.default_rng(5)
    n_major, n_minor = 170, 30
    x = np.vstack([
        rng.normal(loc=-1.0, size=(n_major, 3)),
        rng.normal(loc=1.0, size=(n_minor, 3)),
    ])
    y = np.array([0] * n_major + [1] * n_minor)
    for name in ("LoR", "RFC", "SVM", "EBM"):
        model = make_classifier(name).fit(x, y)
        predictions = model.predict(x)
        minority_recall = (predictions[y == 1] == 1).mean()
        assert minority_recall >= 0.6, name


def test_decision_tree_pure_split():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree(max_depth=3, min_leaf=1)
    tree.fit(x, y)
    assert list(tree.predict_proba(x)) == [0.0, 0.0, 1.0, 1.0]


def test_svm_linear_kernel():
    x, y = blobs(seed=2)
    model = make_classifier("SVM", kernel="linear")
    model.fit(x[:90], y[:90])
    assert model.score(x[90:], y[90:]) >= 0.9
    with pytest.raises(ModelError):
        make_classifier("SVM", kernel="poly")


def test_ebm_contributions_shape():
    x, y = blobs(seed=3)
    model = make_classifier("EBM").fit(x, y)
    contributions = model.feature_contributions(x[:10])
    assert contributions.shape == (10, 3)
    # Contributions plus intercept reproduce the decision function.
    reconstructed = contributions.sum(axis=1) + model._intercept
    assert np.allclose(reconstructed, model.decision_function(x[:10]))


def test_gcn_transfer_to_other_graph():
    """Weights rebind to a different graph; same-graph transfer is an
    identity; feature mismatch is rejected."""
    from repro.models import GCNClassifier
    from repro.nn import TrainingConfig

    data = synthetic_graph(n=60, seed=0)
    other = synthetic_graph(n=45, seed=9)
    split = stratified_split(data.y_class, 0.25, seed=1)
    model = GCNClassifier(seed=0,
                          config=TrainingConfig(epochs=80)).fit(data, split)

    same = model.transfer_to(data)
    assert np.array_equal(same.predict(), model.predict())

    transferred = model.transfer_to(other)
    predictions = transferred.predict()
    assert predictions.shape == (other.n_nodes,)
    assert set(np.unique(predictions)) <= {0, 1}

    reduced = data.subset_features(["f0", "f1"])
    with pytest.raises(ModelError, match="features"):
        model.transfer_to(reduced)


def test_sage_classifier_learns():
    """The GraphSAGE variant trains and predicts on graph data."""
    data = synthetic_graph(n=80, seed=2)
    split = stratified_split(data.y_class, 0.25, seed=1)
    model = GCNClassifier(
        conv="sage", hidden_dims=(8, 8), dropout=0.0, seed=0,
        config=TrainingConfig(epochs=200, patience=60),
    ).fit(data, split)
    assert model.conv == "sage"
    assert model.adjacency_mode == "row" and not model.self_loops
    assert model.accuracy(split.val_mask) >= 0.7
    probabilities = model.predict_proba()
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    # Transfer also works for the SAGE variant.
    other = synthetic_graph(n=50, seed=5)
    assert model.transfer_to(other).predict().shape == (50,)


def test_unknown_conv_rejected():
    from repro.models.gcn import build_gcn_stack
    from repro.graph.adjacency import normalized_adjacency

    a_norm = normalized_adjacency(np.array([[0], [1]]), 2)
    with pytest.raises(ModelError):
        build_gcn_stack(4, 2, a_norm, conv="gat")


def _fresh_forward(head, data):
    head.model.eval()
    return head.model.forward(data.x)


def test_head_output_cache_follows_the_bound_weights():
    """A head computes its eval output on the bound graph once; fit,
    restore and transfer_to drop it, and no caller can change it."""
    data = synthetic_graph(n=60, seed=0)
    other = synthetic_graph(n=45, seed=9)
    split = stratified_split(data.y_class, 0.25, seed=1)
    model = GCNClassifier(seed=0,
                          config=TrainingConfig(epochs=40)).fit(data, split)
    trained = _fresh_forward(model, data)
    assert np.array_equal(model.log_probs(), trained)

    for answer in (model.log_probs(), model.predict_proba(),
                   model.predict()):
        answer[...] = 7
    assert np.array_equal(model.log_probs(), trained)
    assert np.array_equal(model.predict(), trained.argmax(axis=1))

    model.config = TrainingConfig(epochs=3)
    model.fit(data, split)
    refit = _fresh_forward(model, data)
    assert not np.array_equal(refit, trained)
    assert np.array_equal(model.log_probs(), refit)

    model.restore(data, [parameter.value * 0.5
                         for parameter in model.model.parameters()])
    restored = _fresh_forward(model, data)
    assert not np.array_equal(restored, refit)
    assert np.array_equal(model.log_probs(), restored)

    moved = model.transfer_to(other)
    assert np.array_equal(moved.log_probs(), _fresh_forward(moved, other))
    assert np.array_equal(model.log_probs(data), restored)


def test_regressor_output_cache_is_not_handed_out():
    data = synthetic_graph(n=60, seed=3)
    split = stratified_split(data.y_class, 0.25, seed=1)
    model = GCNRegressor(seed=0,
                         config=TrainingConfig(epochs=30)).fit(data, split)
    scores = model.predict()
    expected = scores.copy()
    scores[:] = 5.0
    assert np.array_equal(model.predict(), expected)
    moved = model.transfer_to(synthetic_graph(n=45, seed=9))
    assert moved.predict().shape == (45,)
