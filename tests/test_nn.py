"""Tests for the numpy NN engine: gradients, losses, optimizers,
training loops, and grid search."""

import numpy as np
import pytest

from repro.graph.adjacency import normalized_adjacency
from repro.models.gcn import build_gcn_stack
from repro.nn import (
    Adam,
    Dropout,
    GCNConv,
    Linear,
    LogSoftmax,
    Parameter,
    ReLU,
    SGD,
    Sequential,
    Sigmoid,
    Tanh,
    TrainingConfig,
    bce_with_logits,
    glorot_uniform,
    grid_search,
    mse_loss,
    nll_loss,
    train_classifier,
    train_regressor,
)
from repro.utils.errors import ModelError


def numeric_gradient(loss_fn, parameter, eps=1e-6):
    grad = np.zeros_like(parameter.value)
    flat = parameter.value.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = loss_fn()
        flat[index] = original - eps
        minus = loss_fn()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


@pytest.mark.parametrize("layer_builder,input_shape", [
    (lambda: Linear(4, 3, seed=1), (6, 4)),
    (lambda: Sequential(Linear(4, 5, seed=1), ReLU(),
                        Linear(5, 2, seed=2)), (6, 4)),
    (lambda: Sequential(Linear(4, 5, seed=1), Tanh(),
                        Linear(5, 2, seed=2)), (6, 4)),
    (lambda: Sequential(Linear(4, 5, seed=1), Sigmoid(),
                        Linear(5, 2, seed=2)), (6, 4)),
])
def test_layer_gradients(layer_builder, input_shape):
    rng = np.random.default_rng(0)
    model = layer_builder()
    x = rng.normal(size=input_shape)
    targets = rng.integers(0, 2, input_shape[0])

    def loss_fn():
        out = model.forward(x)
        if out.shape[1] == 2:
            log_probs = out - np.log(
                np.exp(out).sum(axis=1, keepdims=True)
            )
            return nll_loss(log_probs, targets)[0]
        return float((out ** 2).mean())

    model.eval()
    out = model.forward(x)
    if out.shape[1] == 2:
        log_probs = out - np.log(np.exp(out).sum(axis=1, keepdims=True))
        _, grad = nll_loss(log_probs, targets)
        softmax = np.exp(log_probs)
        grad = grad - softmax * grad.sum(axis=1, keepdims=True)
    else:
        grad = 2 * out / out.size
    model.zero_grad()
    model.backward(grad)

    for parameter in model.parameters():
        numeric = numeric_gradient(loss_fn, parameter)
        assert np.allclose(parameter.grad, numeric, atol=1e-5), (
            parameter.shape
        )


def test_gcnconv_gradient():
    rng = np.random.default_rng(1)
    edges = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    a_norm = normalized_adjacency(edges, 5)
    model = Sequential(
        GCNConv(3, 4, a_norm, seed=0), ReLU(),
        GCNConv(4, 2, a_norm, seed=1), LogSoftmax(),
    )
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, 5)

    def loss_fn():
        return nll_loss(model.forward(x), y)[0]

    _, grad = nll_loss(model.forward(x), y)
    model.zero_grad()
    model.backward(grad)
    for parameter in model.parameters():
        numeric = numeric_gradient(loss_fn, parameter)
        assert np.allclose(parameter.grad, numeric, atol=1e-5)


def test_logsoftmax_rows_normalize():
    layer = LogSoftmax()
    out = layer.forward(np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]]))
    assert np.allclose(np.exp(out).sum(axis=1), 1.0)


def test_dropout_modes():
    layer = Dropout(0.5, seed=0)
    x = np.ones((200, 10))
    layer.eval()
    assert np.array_equal(layer.forward(x), x)
    layer.train()
    out = layer.forward(x)
    kept = out > 0
    assert 0.3 < kept.mean() < 0.7
    assert np.allclose(out[kept], 2.0)  # inverted scaling
    # Backward applies the same mask.
    grad = layer.backward(np.ones_like(x))
    assert np.array_equal(grad > 0, kept)


def test_dropout_validation():
    with pytest.raises(ModelError):
        Dropout(1.0)


def test_backward_before_forward():
    layer = Linear(2, 2)
    with pytest.raises(ModelError):
        layer.backward(np.zeros((1, 2)))


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    weights = glorot_uniform((100, 50), rng)
    limit = np.sqrt(6.0 / 150)
    assert weights.max() <= limit and weights.min() >= -limit


class TestLosses:
    def test_nll_known_value(self):
        log_probs = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        loss, grad = nll_loss(log_probs, np.array([0, 1]))
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        assert loss == pytest.approx(expected)
        assert grad.shape == log_probs.shape

    def test_nll_mask(self):
        log_probs = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        mask = np.array([True, False])
        loss, grad = nll_loss(log_probs, np.array([0, 1]), mask=mask)
        assert loss == pytest.approx(-np.log(0.9))
        assert np.allclose(grad[1], 0.0)

    def test_nll_class_weights(self):
        log_probs = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
        loss_balanced, _ = nll_loss(
            log_probs, np.array([0, 1]),
            class_weights=np.array([2.0, 1.0]),
        )
        assert loss_balanced == pytest.approx(-np.log(0.5))

    def test_mse(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        assert loss == pytest.approx(0.5)
        assert np.allclose(grad, [1.0, 0.0])

    def test_mse_mask(self):
        loss, grad = mse_loss(
            np.array([1.0, 5.0]), np.array([0.0, 0.0]),
            mask=np.array([True, False]),
        )
        assert loss == pytest.approx(1.0)
        assert grad[1] == 0.0

    def test_bce_matches_manual(self):
        logits = np.array([0.0, 2.0])
        targets = np.array([1.0, 0.0])
        loss, grad = bce_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits))
        manual = -(np.log(p[0]) + np.log(1 - p[1])) / 2
        assert loss == pytest.approx(manual)
        assert np.allclose(grad, (p - targets) / 2)

    def test_empty_mask_rejected(self):
        with pytest.raises(ModelError):
            nll_loss(np.zeros((2, 2)), np.array([0, 1]),
                     mask=np.array([False, False]))


class TestOptimizers:
    def quadratic(self, optimizer_factory, steps=200):
        parameter = Parameter(np.array([5.0, -3.0]))
        optimizer = optimizer_factory([parameter])
        for _ in range(steps):
            optimizer.zero_grad()
            parameter.grad += 2 * parameter.value  # d/dx of x^2
            optimizer.step()
        return parameter.value

    def test_sgd_converges(self):
        value = self.quadratic(lambda p: SGD(p, lr=0.1))
        assert np.abs(value).max() < 1e-4

    def test_sgd_momentum_converges(self):
        value = self.quadratic(lambda p: SGD(p, lr=0.05, momentum=0.9))
        assert np.abs(value).max() < 1e-3

    def test_adam_converges(self):
        value = self.quadratic(lambda p: Adam(p, lr=0.1), steps=400)
        assert np.abs(value).max() < 1e-3

    def test_weight_decay_shrinks(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = SGD([parameter], lr=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        optimizer.step()  # gradient zero, decay only
        assert parameter.value[0] < 1.0

    def test_empty_parameters_rejected(self):
        with pytest.raises(ModelError):
            SGD([], lr=0.1)


def separable_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    return x, y


def test_train_classifier_learns():
    x, y = separable_data()
    model = Sequential(Linear(4, 8, seed=0), ReLU(),
                       Linear(8, 2, seed=1), LogSoftmax())
    mask = np.ones(len(y), dtype=bool)
    history = train_classifier(
        model, x, y, mask, None,
        TrainingConfig(epochs=200, lr=0.05, patience=0),
    )
    predictions = model.forward(x).argmax(axis=1)
    assert (predictions == y).mean() > 0.95
    assert history.train_loss[-1] < history.train_loss[0]


def test_train_classifier_early_stopping_restores_best():
    x, y = separable_data()
    model = Sequential(Linear(4, 4, seed=0), ReLU(),
                       Linear(4, 2, seed=1), LogSoftmax())
    train_mask = np.zeros(len(y), dtype=bool)
    train_mask[:40] = True
    history = train_classifier(
        model, x, y, train_mask, ~train_mask,
        TrainingConfig(epochs=400, lr=0.05, patience=25),
    )
    # Restored weights reproduce the best recorded monitor metric
    # (accuracy with the NLL tie-breaker).
    log_probs = model.forward(x)
    accuracy = (log_probs.argmax(axis=1)[~train_mask]
                == y[~train_mask]).mean()
    val_loss, _ = nll_loss(log_probs, y, mask=~train_mask)
    metric = accuracy - 0.1 * val_loss
    assert metric == pytest.approx(history.best_val_metric, abs=1e-9)
    assert history.best_val_metric == pytest.approx(
        max(history.val_metric), abs=1e-12
    )


def test_lazy_snapshot_restores_exact_best_epoch_weights():
    """The deferred best-weights snapshot must restore bit-exact
    best-epoch weights: a run that trains past the best epoch and
    restores must end with the same parameters as a run stopped right
    after that epoch (whose live weights ARE the best)."""
    x, y = separable_data(seed=5)
    train_mask = np.zeros(len(y), dtype=bool)
    train_mask[:40] = True

    def build():
        return Sequential(Linear(4, 4, seed=0), ReLU(),
                          Linear(4, 2, seed=1), LogSoftmax())

    full = build()
    history = train_classifier(
        full, x, y, train_mask, ~train_mask,
        TrainingConfig(epochs=200, lr=0.05, patience=20),
    )
    # Only meaningful if training actually continued past the best
    # epoch, i.e. the restore path ran.
    assert history.best_epoch < len(history.train_loss) - 1

    stopped = build()
    train_classifier(
        stopped, x, y, train_mask, ~train_mask,
        TrainingConfig(epochs=history.best_epoch + 1, lr=0.05,
                       patience=0),
    )
    for restored, live in zip(full.parameters(), stopped.parameters()):
        assert np.array_equal(restored.value, live.value)


def test_train_regressor_learns():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(80, 3))
    y = 0.5 * x[:, 0] - 0.2 * x[:, 2]
    model = Sequential(Linear(3, 8, seed=0), Tanh(), Linear(8, 1, seed=1))
    mask = np.ones(len(y), dtype=bool)
    train_regressor(model, x, y, mask, None,
                    TrainingConfig(epochs=300, lr=0.02, patience=0))
    predictions = model.forward(x).reshape(-1)
    assert np.corrcoef(predictions, y)[0, 1] > 0.95


def test_training_config_unknown_optimizer():
    model = Sequential(Linear(2, 2))
    with pytest.raises(ModelError):
        TrainingConfig(optimizer="lion").build_optimizer(model.parameters())


def test_grid_search_ranks_by_accuracy():
    x, y = separable_data(n=100, seed=3)
    train_mask = np.zeros(len(y), dtype=bool)
    train_mask[:70] = True

    def builder(hidden_dims, dropout, seed):
        modules = []
        previous = x.shape[1]
        for width in hidden_dims:
            modules.extend([Linear(previous, width, seed=seed), ReLU()])
            previous = width
        modules.extend([Linear(previous, 2, seed=seed), LogSoftmax()])
        return Sequential(*modules)

    result = grid_search(
        builder, x, y, train_mask, ~train_mask,
        hidden_dim_options=((4,), (8, 8)),
        dropout_options=(0.0,),
        lr_options=(0.05,),
        epochs=120,
    )
    assert len(result.points) == 2
    accuracies = [point.val_accuracy for point in result.points]
    assert accuracies == sorted(accuracies, reverse=True)
    assert result.best.val_accuracy >= 0.8
    assert result.table()[0]["val accuracy"] == pytest.approx(
        result.best.val_accuracy, abs=1e-4
    )
