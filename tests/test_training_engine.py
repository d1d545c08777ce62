"""Property tests for the zero-allocation training engine.

Hypothesis-driven invariants that the bitwise suite's fixed scenarios
cannot cover: early stopping restores exactly the best-epoch weights
under randomized data/patience (including the patience=0,
improvement-on-final-epoch, and zero-epoch edges), serial and pooled
grid search rank identically, the compiled workspace tracks the frozen
pre-engine training code (``tests/_reference_nn``) bit for bit on
random stacks, ``eval()`` releases cached autograd intermediates, the
workspace rejects what it cannot compile with a typed error, and
fast-math mode stays algebraically faithful.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.graph.adjacency import normalized_adjacency
from repro.models.gcn import build_gcn_stack
from repro.nn import (
    GCNConv,
    Linear,
    LogSoftmax,
    ReLU,
    Sequential,
    TrainingConfig,
    train_classifier,
    train_regressor,
)
from repro.nn.engine import PropagationCache, compile_workspace
from repro.nn.gridsearch import grid_search
from repro.utils.errors import ModelError

from tests._reference_nn import ref_modules as rm
from tests._reference_nn.ref_training import (
    TrainingConfig as RefConfig,
    train_classifier as ref_train_classifier,
    train_regressor as ref_train_regressor,
)
from tests.test_training_bitwise import ref_stack

SLOW = settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_data(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[: int(n * 0.6)] = True
    return x, y, train_mask, ~train_mask


def make_model(seed, dropout=0.0, layers=nn):
    """A small MLP classifier built from ``layers``: the live modules
    by default, ``rm`` for the frozen reference."""
    modules = [layers.Linear(4, 6, seed=seed), layers.ReLU()]
    if dropout > 0.0:
        modules.append(layers.Dropout(dropout, seed=seed + 1))
    modules.extend([layers.Linear(6, 2, seed=seed + 2),
                    layers.LogSoftmax()])
    return layers.Sequential(*modules)


# ----------------------------------------------------------------------
# early stopping restores exactly the best-epoch weights
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 1000), st.integers(0, 12), st.integers(20, 80),
       st.booleans())
def test_early_stopping_restores_best_epoch_weights(
        seed, patience, epochs, use_dropout):
    """A run that trains past its best epoch and restores must end
    with the same weights as a fresh run stopped right after that
    epoch (whose live weights ARE the best)."""
    x, y, train_mask, val_mask = make_data(40, seed)
    dropout = 0.4 if use_dropout else 0.0
    full = make_model(seed, dropout)
    history = train_classifier(
        full, x, y, train_mask, val_mask,
        TrainingConfig(epochs=epochs, lr=0.05, patience=patience))
    assert history.best_epoch >= 0

    stopped = make_model(seed, dropout)
    train_classifier(
        stopped, x, y, train_mask, val_mask,
        TrainingConfig(epochs=history.best_epoch + 1, lr=0.05,
                       patience=0))
    for restored, live in zip(full.parameters(), stopped.parameters()):
        assert np.array_equal(restored.value, live.value)


def test_improvement_on_final_epoch_keeps_live_weights():
    """When the last epoch is the best, the pending-snapshot path must
    not overwrite the live (already-best) weights on restore."""
    x, y, train_mask, val_mask = make_data(40, 3)
    probe = make_model(3)
    history = train_classifier(probe, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=200, lr=0.05,
                                              patience=0))
    best = history.best_epoch
    assert best >= 0

    # Re-run stopping exactly at the best epoch: improvement lands on
    # the final epoch, so restore must be a no-op.
    exact = make_model(3)
    exact_history = train_classifier(
        exact, x, y, train_mask, val_mask,
        TrainingConfig(epochs=best + 1, lr=0.05, patience=0))
    assert exact_history.best_epoch == best
    again = make_model(3)
    train_classifier(again, x, y, train_mask, val_mask,
                     TrainingConfig(epochs=best + 1, lr=0.05,
                                    patience=0))
    for a, b in zip(exact.parameters(), again.parameters()):
        assert np.array_equal(a.value, b.value)


def test_zero_epochs_leaves_initial_weights():
    x, y, train_mask, val_mask = make_data(30, 1)
    model = make_model(1)
    initial = [p.value.copy() for p in model.parameters()]
    history = train_classifier(model, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=0))
    assert history.best_epoch == -1
    assert history.train_loss == []
    assert np.isnan(history.best_val_accuracy)
    for parameter, value in zip(model.parameters(), initial):
        assert np.array_equal(parameter.value, value)


# ----------------------------------------------------------------------
# engine == frozen reference on random stacks
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 1000), st.sampled_from(["adam", "sgd"]),
       st.booleans())
def test_engine_matches_reference(seed, optimizer, use_dropout):
    x, y, train_mask, val_mask = make_data(35, seed)
    dropout = 0.3 if use_dropout else 0.0
    engine_model = make_model(seed, dropout)
    ref_model = make_model(seed, dropout, layers=rm)
    config = dict(epochs=40, lr=0.05, optimizer=optimizer, patience=10)
    engine_history = train_classifier(
        engine_model, x, y, train_mask, val_mask,
        TrainingConfig(**config))
    ref_history = ref_train_classifier(
        ref_model, x, y, train_mask, val_mask, RefConfig(**config))
    assert engine_history.train_loss == ref_history.train_loss
    assert engine_history.val_metric == ref_history.val_metric
    assert engine_history.best_epoch == ref_history.best_epoch
    for a, b in zip(engine_model.parameters(), ref_model.parameters()):
        assert np.array_equal(a.value, b.value)


@SLOW
@given(st.integers(0, 1000))
def test_engine_matches_reference_regressor(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 3))
    y = 0.5 * x[:, 0] - 0.2 * x[:, 2]
    mask = np.ones(30, dtype=bool)

    def build(layers):
        return layers.Sequential(layers.Linear(3, 5, seed=seed),
                                 layers.ReLU(),
                                 layers.Linear(5, 1, seed=seed + 1))

    a, b = build(nn), build(rm)
    ha = train_regressor(a, x, y, mask, None,
                         TrainingConfig(epochs=30, lr=0.02, patience=0))
    hb = ref_train_regressor(b, x, y, mask, None,
                             RefConfig(epochs=30, lr=0.02, patience=0))
    assert ha.train_loss == hb.train_loss
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)


# ----------------------------------------------------------------------
# grid search: serial == pooled ranking
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 100))
def test_grid_serial_and_pooled_rank_identically(seed):
    x, y, train_mask, val_mask = make_data(40, seed)

    def builder(hidden_dims, dropout, seed_):
        modules = []
        previous = x.shape[1]
        for width in hidden_dims:
            modules.extend([Linear(previous, width, seed=seed_), ReLU()])
            previous = width
        modules.extend([Linear(previous, 2, seed=seed_), LogSoftmax()])
        return Sequential(*modules)

    options = dict(hidden_dim_options=((4,), (6, 6)),
                   dropout_options=(0.0,), lr_options=(0.05,),
                   epochs=25)
    serial = grid_search(builder, x, y, train_mask, val_mask, **options)
    pooled = grid_search(builder, x, y, train_mask, val_mask, jobs=2,
                         **options)
    assert [
        (p.hidden_dims, p.dropout, p.lr, p.val_accuracy, p.best_epoch)
        for p in serial.points
    ] == [
        (p.hidden_dims, p.dropout, p.lr, p.val_accuracy, p.best_epoch)
        for p in pooled.points
    ]


def test_grid_best_accuracy_is_recorded_not_recomputed():
    """The ranked accuracy comes from the training history's recorded
    best-epoch monitor accuracy — which equals a fresh forward on the
    restored weights (the eval pass is deterministic)."""
    x, y, train_mask, val_mask = make_data(50, 9)
    built = {}

    def builder(hidden_dims, dropout, seed_):
        model = Sequential(Linear(x.shape[1], hidden_dims[0],
                                  seed=seed_), ReLU(),
                           Linear(hidden_dims[0], 2, seed=seed_),
                           LogSoftmax())
        built[hidden_dims] = model
        return model

    result = grid_search(builder, x, y, train_mask, val_mask,
                         hidden_dim_options=((4,), (8,)),
                         dropout_options=(0.0,), epochs=40)
    for point in result.points:
        model = built[point.hidden_dims]
        fresh = float(
            (model.forward(x).argmax(axis=1)[val_mask]
             == y[val_mask]).mean()
        )
        assert point.val_accuracy == fresh


# ----------------------------------------------------------------------
# eval() releases cached autograd state
# ----------------------------------------------------------------------
def _train_step(model, x):
    """One train-mode forward/backward through the modules themselves."""
    model.train()
    model.zero_grad()
    model.forward(x)
    model.backward(np.ones((len(x), 2)) / (2 * len(x)))


def _cached_arrays(model):
    """Per-node (2-D) arrays the modules hold, as ``Layer.attribute``."""
    return [
        f"{type(module).__name__}.{attribute}"
        for module in model.modules
        for attribute, value in vars(module).items()
        if isinstance(value, np.ndarray) and value.ndim == 2
    ]


def test_eval_clears_cached_autograd_state():
    x, _, _, _ = make_data(30, 2)
    model = make_model(2, dropout=0.3)
    # A train-mode forward caches intermediates on each layer.
    _train_step(model, x)
    assert _cached_arrays(model)
    # eval(), as training ends: every per-node cached array must go.
    model.eval()
    assert _cached_arrays(model) == []


def test_forward_after_eval_still_works():
    x, _, _, _ = make_data(30, 4)
    model = make_model(4, dropout=0.3)
    _train_step(model, x)
    model.eval()
    before = model.forward(x)
    model.eval()
    after = model.forward(x)
    assert np.array_equal(before, after)
    # And backward still functions after a fresh forward.
    _train_step(model, x)


# ----------------------------------------------------------------------
# one training path: what it cannot train fails with a typed error
# ----------------------------------------------------------------------
class Scale(nn.Module):
    """A layer the engine has no compiled form for."""

    def forward(self, x):
        return 2.0 * x

    def backward(self, grad):
        return 2.0 * grad


def test_uncompilable_layer_fails_training():
    x, y, train_mask, val_mask = make_data(20, 0)
    model = Sequential(Linear(4, 2, seed=0), Scale(), LogSoftmax())
    with pytest.raises(ModelError, match=r"layer 1 \(Scale\)"):
        train_classifier(model, x, y, train_mask, val_mask,
                         TrainingConfig(epochs=3))


def _small_graph(n=4):
    edges = np.array([np.arange(n - 1), np.arange(1, n)])
    return normalized_adjacency(edges, n)


@pytest.mark.parametrize("model, x, message", [
    (Linear(3, 2), np.zeros((4, 3)), r"cannot train Linear"),
    (Sequential(), np.zeros((4, 3)), r"cannot train Sequential"),
    (Sequential(Linear(3, 2)), np.zeros(4), r"features must be a matrix"),
    (Sequential(Linear(3, 5), Linear(4, 2)), np.zeros((4, 3)),
     r"layer 1 \(Linear\) takes 4 input features, its input has 5"),
    (Sequential(GCNConv(3, 2, _small_graph().toarray())), np.zeros((4, 3)),
     r"layer 0 \(GCNConv\) needs a float64 CSR adjacency"),
    (Sequential(Linear(3, 3), GCNConv(3, 2, _small_graph(5))),
     np.zeros((4, 3)), r"layer 1 \(GCNConv\) needs .* of shape \(4, 4\)"),
], ids=["not-sequential", "empty", "vector-x", "width", "dense-adjacency",
        "adjacency-size"])
def test_workspace_names_what_it_cannot_compile(model, x, message):
    with pytest.raises(ModelError, match=message):
        compile_workspace(model, x)


@pytest.mark.parametrize("layout", ["float32", "fortran"])
def test_features_train_as_their_c_ordered_float64_copy(layout):
    x, a_norm, y, train_mask, val_mask = _gcn_case(n=60, seed=6)
    given = (x.astype(np.float32) if layout == "float32"
             else np.asfortranarray(x))
    copy = np.ascontiguousarray(given, dtype=np.float64)
    runs = []
    for features in (given, copy):
        model = build_gcn_stack(features.shape[1], 2, a_norm, seed=2)
        history = train_classifier(model, features, y, train_mask,
                                   val_mask, TrainingConfig(epochs=30))
        runs.append((history, model))
    (history, model), (copy_history, copy_model) = runs
    assert history.train_loss == copy_history.train_loss
    assert history.val_metric == copy_history.val_metric
    for ours, theirs in zip(model.parameters(), copy_model.parameters()):
        assert ours.value.tobytes() == theirs.value.tobytes()


@pytest.mark.parametrize("class_weights", [True, False])
@pytest.mark.parametrize("fold", ["train", "val"])
@pytest.mark.parametrize("label", [2, -1])
def test_classifier_rejects_labels_outside_its_classes(label, fold,
                                                       class_weights):
    """A label outside ``[0, n_classes)`` would make the loss read, and
    its gradient write, a neighbouring node's log-probability."""
    x, y, train_mask, val_mask = make_data(10, 0)
    node = np.flatnonzero(train_mask if fold == "train" else val_mask)[0]
    y[node] = label
    model = Sequential(Linear(4, 2, seed=0), LogSoftmax())
    with pytest.raises(ModelError,
                       match=rf"target {label} at node {node} is outside"):
        train_classifier(model, x, y, train_mask, val_mask,
                         TrainingConfig(epochs=3,
                                        class_weights=class_weights))


def test_regressor_rejects_a_wide_head():
    x, _, train_mask, val_mask = make_data(10, 0)
    model = Sequential(Linear(4, 2, seed=0))
    with pytest.raises(ModelError, match="one output column"):
        train_regressor(model, x, x[:, 0], train_mask, val_mask,
                        TrainingConfig(epochs=3))


# ----------------------------------------------------------------------
# fast-math mode: exact algebra, different rounding
# ----------------------------------------------------------------------
def _gcn_case(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    sources = rng.integers(0, n, size=3 * n)
    targets = rng.integers(0, n, size=3 * n)
    edges = np.stack([sources, targets])
    a_norm = normalized_adjacency(edges, n)
    y = (x[:, 0] + x @ rng.normal(size=5) * 0.1 > 0).astype(np.int64)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[: int(n * 0.6)] = True
    return x, a_norm, y, train_mask, ~train_mask


def test_fast_math_tracks_exact_losses():
    x, a_norm, y, train_mask, val_mask = _gcn_case()
    exact = build_gcn_stack(x.shape[1], 2, a_norm)
    fast = build_gcn_stack(x.shape[1], 2, a_norm)
    h_exact = train_classifier(exact, x, y, train_mask, val_mask,
                               TrainingConfig(epochs=60, patience=0))
    cache = PropagationCache()
    h_fast = train_classifier(
        fast, x, y, train_mask, val_mask,
        TrainingConfig(epochs=60, patience=0, fast_math=True),
        cache=cache)
    assert np.allclose(h_exact.train_loss, h_fast.train_loss,
                       rtol=1e-8, atol=1e-10)
    assert np.allclose(h_exact.val_metric, h_fast.val_metric,
                       rtol=1e-8, atol=1e-10)
    # The first-layer propagation was cached.
    assert len(cache) == 1


def test_propagation_cache_shared_across_runs():
    x, a_norm, y, train_mask, val_mask = _gcn_case(seed=3)
    cache = PropagationCache()
    # The float32 run trains on a fresh float64 copy, which would key a
    # new entry every time: it leaves the cache alone.
    for seed, features in ((0, x), (1, x), (2, x.astype(np.float32))):
        model = build_gcn_stack(x.shape[1], 2, a_norm, seed=seed)
        train_classifier(
            model, features, y, train_mask, val_mask,
            TrainingConfig(epochs=10, patience=0, fast_math=True),
            cache=cache)
    # Same (A*, X) pair on the first two runs: one entry, computed once.
    assert len(cache) == 1
    product = cache.get(a_norm, x)
    assert product is cache.get(a_norm, x)
    assert np.allclose(product, a_norm @ x)


def test_workspace_rejects_unknown_modules():
    class Strange(Sequential):
        pass

    x = np.zeros((4, 3))
    model = Sequential(Linear(3, 2))
    assert compile_workspace(model, x).output.shape == (4, 2)

    from repro.nn.modules import SAGEConv

    edges = np.array([[0, 1, 2], [1, 2, 3]])
    a_norm = normalized_adjacency(edges, 4, mode="row",
                                  self_loops=False)
    sage = Sequential(SAGEConv(3, 2, a_norm))
    assert compile_workspace(sage, x).output.shape == (4, 2)
    with pytest.raises(ModelError, match=r"layer 0 \(Strange\)"):
        compile_workspace(Sequential(Strange(Linear(3, 2))), x)


@pytest.mark.parametrize("head", ["classifier", "regressor"])
def test_compiled_sage_matches_reference(head):
    """``SAGEConv`` stacks train on the engine: weights, history and
    eval-mode outputs equal the frozen reference's bit for bit."""
    from repro.circuits import build_or1200_icfsm
    from repro.features.extract import extract_features
    from repro.graph.build import netlist_edges

    netlist = build_or1200_icfsm()
    x = extract_features(netlist,
                         probability_source="cop").standardized().matrix
    n = netlist.n_gates
    a_mean = normalized_adjacency(netlist_edges(netlist), n, mode="row",
                                  self_loops=False)
    rng = np.random.default_rng(11)
    train_mask = rng.random(n) < 0.7
    classify = head == "classifier"
    targets = ((rng.random(n) < 0.3).astype(np.int64) if classify
               else rng.random(n))
    out_features = 2 if classify else 1
    train, ref_train = ((train_classifier, ref_train_classifier)
                        if classify
                        else (train_regressor, ref_train_regressor))
    model = build_gcn_stack(x.shape[1], out_features, a_mean,
                            log_softmax=classify, seed=4, conv="sage")
    reference = ref_stack(x.shape[1], out_features, a_mean,
                          log_softmax=classify, seed=4, conv="sage")
    history = train(model, x, targets, train_mask, ~train_mask,
                    TrainingConfig(epochs=120))
    ref_history = ref_train(reference, x, targets, train_mask,
                            ~train_mask, RefConfig(epochs=120))
    assert history.train_loss == ref_history.train_loss
    assert history.val_metric == ref_history.val_metric
    assert history.best_epoch == ref_history.best_epoch
    for ours, theirs in zip(model.parameters(), reference.parameters()):
        assert ours.value.tobytes() == theirs.value.tobytes()
    assert model.forward(x).tobytes() == reference.forward(x).tobytes()


def test_gcn_conv_operand_order_flag():
    """fast_math picks (A X) W when f_in < f_out; both orders agree."""
    x, a_norm, y, train_mask, val_mask = _gcn_case(n=50, seed=5)
    model = Sequential(GCNConv(5, 16, a_norm, seed=0), LogSoftmax())
    exact_ws = compile_workspace(model, x)
    model2 = Sequential(GCNConv(5, 16, a_norm, seed=0), LogSoftmax())
    fast_ws = compile_workspace(model2, x, fast_math=True,
                                cache=PropagationCache())
    exact_ws.forward_eval()
    fast_ws.forward_eval()
    assert np.allclose(exact_ws.output, fast_ws.output)
