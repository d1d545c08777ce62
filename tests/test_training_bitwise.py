"""Bitwise guardrail for the zero-allocation training engine.

The compiled workspace (preallocated buffers, direct sparse kernels,
packed optimizer state, monitor-forward prefix reuse) must reproduce
the historical module-by-module implementation *bitwise*: identical
per-epoch loss/metric histories and identical final weights.  The
ground truth is ``tests/_reference_nn`` — frozen pre-rewrite copies of
``modules``/``optim``/``training``/``gridsearch`` (see that package's
docstring) — exercised here on built-in designs and randomized
circuits, for both optimizers, with and without dropout, for the
regressor, and through serial and pooled grid search.
"""

import numpy as np
import pytest

from repro.circuits import build_or1200_icfsm, build_or1200_if, random_netlist
from repro.features.extract import extract_features
from repro.graph.adjacency import normalized_adjacency
from repro.graph.build import netlist_edges
from repro.models.gcn import DROPOUT_AFTER_LAYER, build_gcn_stack
from repro.nn import TrainingConfig, train_classifier, train_regressor
from repro.nn.gridsearch import grid_search
from repro.utils.rng import derive_rng

from tests._reference_nn import ref_modules as rm
from tests._reference_nn.ref_gridsearch import grid_search as ref_grid_search
from tests._reference_nn.ref_training import (
    TrainingConfig as RefConfig,
    train_classifier as ref_train_classifier,
    train_regressor as ref_train_regressor,
)


# ----------------------------------------------------------------------
# designs under test
# ----------------------------------------------------------------------
def _graph_case(netlist):
    """(x, a_norm, labels, regression targets, train/val masks)."""
    features = extract_features(netlist, probability_source="cop")
    x = features.standardized().matrix
    n = netlist.n_gates
    a_norm = normalized_adjacency(netlist_edges(netlist), n)
    rng = np.random.default_rng(7)
    y = (rng.random(n) < 0.25).astype(np.int64)
    y_reg = rng.normal(size=n)
    train_mask = rng.random(n) < 0.7
    val_mask = ~train_mask
    if not val_mask.any():
        val_mask[:2] = True
    return x, a_norm, y, y_reg, train_mask, val_mask


CASES = {
    "or1200_if": lambda: _graph_case(build_or1200_if()),
    "icfsm": lambda: _graph_case(build_or1200_icfsm()),
    "rand_1": lambda: _graph_case(
        random_netlist(n_inputs=5, n_gates=60, n_flops=6, n_outputs=4,
                       seed=1, name="rand_1")),
    "rand_2": lambda: _graph_case(
        random_netlist(n_inputs=5, n_gates=60, n_flops=6, n_outputs=4,
                       seed=2, name="rand_2")),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def ref_stack(in_features, out_features, a_norm, hidden_dims=(16, 32, 64),
              dropout=0.3, log_softmax=True, seed=0, conv="gcn"):
    """``build_gcn_stack`` mirrored onto the frozen reference modules.

    They multiply with scipy's CSR matrix, as when they were frozen:
    the numpy ``CSRMatrix`` products are bitwise scipy's but slower.
    """
    a_norm = a_norm.tocsr()
    layer = rm.SAGEConv if conv == "sage" else rm.GCNConv
    rng = derive_rng(seed, "gcn-init")
    modules = []
    previous = in_features
    for position, width in enumerate(hidden_dims):
        modules.append(layer(previous, width, a_norm, seed=rng))
        modules.append(rm.ReLU())
        if dropout > 0.0 and position + 1 == DROPOUT_AFTER_LAYER:
            modules.append(rm.Dropout(dropout, seed=rng))
        previous = width
    modules.append(layer(previous, out_features, a_norm, seed=rng))
    if log_softmax:
        modules.append(rm.LogSoftmax())
    return rm.Sequential(*modules)


def assert_identical_runs(history, ref_history, model, ref_model):
    """Histories and final weights must match bit for bit."""
    assert history.train_loss == ref_history.train_loss
    assert history.val_metric == ref_history.val_metric
    assert history.best_epoch == ref_history.best_epoch
    assert history.best_val_metric == ref_history.best_val_metric
    for parameter, reference in zip(model.parameters(),
                                    ref_model.parameters()):
        assert np.array_equal(parameter.value, reference.value)


# ----------------------------------------------------------------------
# classifier / regressor training
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_classifier_bitwise(case, optimizer):
    x, a_norm, y, _, train_mask, val_mask = case
    model = build_gcn_stack(x.shape[1], 2, a_norm)
    reference = ref_stack(x.shape[1], 2, a_norm)
    history = train_classifier(
        model, x, y, train_mask, val_mask,
        TrainingConfig(epochs=150, optimizer=optimizer))
    ref_history = ref_train_classifier(
        reference, x, y, train_mask, val_mask,
        RefConfig(epochs=150, optimizer=optimizer))
    assert_identical_runs(history, ref_history, model, reference)


def test_classifier_no_dropout_bitwise(case):
    x, a_norm, y, _, train_mask, val_mask = case
    model = build_gcn_stack(x.shape[1], 2, a_norm, dropout=0.0)
    reference = ref_stack(x.shape[1], 2, a_norm, dropout=0.0)
    history = train_classifier(model, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=100))
    ref_history = ref_train_classifier(reference, x, y, train_mask,
                                       val_mask, RefConfig(epochs=100))
    assert_identical_runs(history, ref_history, model, reference)


def test_regressor_bitwise(case):
    x, a_norm, _, y_reg, train_mask, val_mask = case
    model = build_gcn_stack(x.shape[1], 1, a_norm, log_softmax=False)
    reference = ref_stack(x.shape[1], 1, a_norm, log_softmax=False)
    history = train_regressor(model, x, y_reg, train_mask, val_mask,
                              TrainingConfig(epochs=150))
    ref_history = ref_train_regressor(reference, x, y_reg, train_mask,
                                      val_mask, RefConfig(epochs=150))
    assert_identical_runs(history, ref_history, model, reference)


# ----------------------------------------------------------------------
# grid search
# ----------------------------------------------------------------------
GRID_OPTIONS = dict(hidden_dim_options=((16,), (16, 32)),
                    dropout_options=(0.0, 0.3), epochs=60)


def _grid_pair(case, jobs):
    x, a_norm, y, _, train_mask, val_mask = case

    def builder(hidden_dims, dropout, seed):
        return build_gcn_stack(x.shape[1], 2, a_norm,
                               hidden_dims=hidden_dims,
                               dropout=dropout, seed=seed)

    def ref_builder(hidden_dims, dropout, seed):
        return ref_stack(x.shape[1], 2, a_norm,
                         hidden_dims=hidden_dims, dropout=dropout,
                         seed=seed)

    result = grid_search(builder, x, y, train_mask, val_mask,
                         jobs=jobs, **GRID_OPTIONS)
    reference = ref_grid_search(ref_builder, x, y, train_mask,
                                val_mask, **GRID_OPTIONS)
    return result, reference


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_search_bitwise(case, jobs):
    """Serial and pooled grid search must rank candidates identically
    to the frozen reference — same order, same accuracies, same best
    epochs, bit for bit."""
    result, reference = _grid_pair(case, jobs)
    assert len(result.points) == len(reference.points)
    for point, ref_point in zip(result.points, reference.points):
        assert point.hidden_dims == ref_point.hidden_dims
        assert point.dropout == ref_point.dropout
        assert point.lr == ref_point.lr
        assert point.val_accuracy == ref_point.val_accuracy
        assert point.best_epoch == ref_point.best_epoch
