"""Property tests for the zero-allocation training engine.

Hypothesis-driven invariants that the bitwise suite's fixed scenarios
cannot cover: early stopping restores exactly the best-epoch weights
under randomized data/patience (including the patience=0,
improvement-on-final-epoch, and zero-epoch edges), serial and pooled
grid search rank identically, the compiled workspace tracks the module
path bit for bit on random stacks, ``eval()`` releases cached autograd
intermediates, and fast-math mode stays algebraically faithful.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import normalized_adjacency
from repro.models.gcn import build_gcn_stack
from repro.nn import (
    Dropout,
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


def make_model(seed, dropout=0.0):
    modules = [Linear(4, 6, seed=seed), ReLU()]
    if dropout > 0.0:
        modules.append(Dropout(dropout, seed=seed + 1))
    modules.extend([Linear(6, 2, seed=seed + 2), LogSoftmax()])
    return Sequential(*modules)


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
# engine == module path on random stacks
# ----------------------------------------------------------------------
@SLOW
@given(st.integers(0, 1000), st.sampled_from(["adam", "sgd"]),
       st.booleans())
def test_engine_matches_module_path(seed, optimizer, use_dropout):
    x, y, train_mask, val_mask = make_data(35, seed)
    dropout = 0.3 if use_dropout else 0.0
    engine_model = make_model(seed, dropout)
    module_model = make_model(seed, dropout)
    config = dict(epochs=40, lr=0.05, optimizer=optimizer, patience=10)
    engine_history = train_classifier(
        engine_model, x, y, train_mask, val_mask,
        TrainingConfig(**config))
    module_history = train_classifier(
        module_model, x, y, train_mask, val_mask,
        TrainingConfig(engine="module", **config))
    assert engine_history.train_loss == module_history.train_loss
    assert engine_history.val_metric == module_history.val_metric
    assert engine_history.best_epoch == module_history.best_epoch
    for a, b in zip(engine_model.parameters(),
                    module_model.parameters()):
        assert np.array_equal(a.value, b.value)


@SLOW
@given(st.integers(0, 1000))
def test_engine_matches_module_path_regressor(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 3))
    y = 0.5 * x[:, 0] - 0.2 * x[:, 2]
    mask = np.ones(30, dtype=bool)

    def build():
        return Sequential(Linear(3, 5, seed=seed), ReLU(),
                          Linear(5, 1, seed=seed + 1))

    a, b = build(), build()
    ha = train_regressor(a, x, y, mask, None,
                         TrainingConfig(epochs=30, lr=0.02, patience=0))
    hb = train_regressor(b, x, y, mask, None,
                         TrainingConfig(epochs=30, lr=0.02, patience=0,
                                        engine="module"))
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
def test_eval_clears_cached_autograd_state():
    x, y, train_mask, val_mask = make_data(30, 2)
    model = make_model(2, dropout=0.3)
    # The module path caches forward intermediates on each layer.
    train_classifier(model, x, y, train_mask, val_mask,
                     TrainingConfig(epochs=5, engine="module"))
    # Training ends with model.eval(): every per-node cached array
    # must be gone.
    for module in model.modules:
        for attribute, value in vars(module).items():
            if attribute in ("training",):
                continue
            if isinstance(value, np.ndarray) and value.ndim == 2:
                pytest.fail(
                    f"{type(module).__name__}.{attribute} still holds "
                    f"a cached {value.shape} array after eval()"
                )


def test_forward_after_eval_still_works():
    x, y, train_mask, val_mask = make_data(30, 4)
    model = make_model(4, dropout=0.3)
    train_classifier(model, x, y, train_mask, val_mask,
                     TrainingConfig(epochs=5, engine="module"))
    before = model.forward(x)
    model.eval()
    after = model.forward(x)
    assert np.array_equal(before, after)
    # And backward still functions after a fresh forward.
    model.train()
    model.forward(x)
    model.zero_grad()
    model.backward(np.ones((30, 2)) / 60.0)


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
    for seed in (0, 1):
        model = build_gcn_stack(x.shape[1], 2, a_norm, seed=seed)
        train_classifier(
            model, x, y, train_mask, val_mask,
            TrainingConfig(epochs=10, patience=0, fast_math=True),
            cache=cache)
    # Same (A*, X) pair on both runs: one entry, computed once.
    assert len(cache) == 1
    product = cache.get(a_norm, x)
    assert product is cache.get(a_norm, x)
    assert np.allclose(product, a_norm @ x)


def test_workspace_rejects_unknown_modules():
    class Strange(Sequential):
        pass

    x = np.zeros((4, 3))
    model = Sequential(Linear(3, 2))
    assert compile_workspace(model, x) is not None

    from repro.nn.modules import SAGEConv

    edges = np.array([[0, 1, 2], [1, 2, 3]])
    a_norm = normalized_adjacency(edges, 4, mode="row",
                                  self_loops=False)
    sage = Sequential(SAGEConv(3, 2, a_norm))
    assert compile_workspace(sage, x) is not None
    assert compile_workspace(Sequential(Strange(Linear(3, 2))), x) is None


@pytest.mark.parametrize("head", ["classifier", "regressor"])
def test_compiled_sage_matches_module_path(head):
    """``SAGEConv`` stacks train on the engine: weights, history and
    eval-mode outputs equal the module path's bit for bit."""
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
    train = train_classifier if classify else train_regressor
    runs = []
    for engine in ("auto", "module"):
        model = build_gcn_stack(x.shape[1], 2 if classify else 1, a_mean,
                                log_softmax=classify, seed=4, conv="sage")
        history = train(model, x, targets, train_mask, ~train_mask,
                        TrainingConfig(epochs=120, engine=engine))
        model.eval()
        runs.append((model, history, model.forward(x)))
    (compiled, history, output), (module, module_history,
                                  module_output) = runs
    assert compile_workspace(compiled, x) is not None
    assert history.train_loss == module_history.train_loss
    assert history.val_metric == module_history.val_metric
    assert history.best_epoch == module_history.best_epoch
    for ours, theirs in zip(compiled.parameters(), module.parameters()):
        assert ours.value.tobytes() == theirs.value.tobytes()
    assert output.tobytes() == module_output.tobytes()


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
