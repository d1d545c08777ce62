"""Neural-network building blocks (numpy, explicit backward passes).

This is the stand-in for the paper's PyTorch/torch-geometric stack: a
minimal module system with exactly the layers Table 1's network needs
(graph convolutions, ReLU, dropout, log-softmax, linear heads), written
with hand-derived gradients so the whole framework stays dependency-
free.  Shapes follow the node-classification convention: activations
are ``(N, F)`` matrices, one row per graph node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.nn.init import glorot_uniform
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng, rng_from_seed

if TYPE_CHECKING:
    from repro.graph.adjacency import CSRMatrix


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[:] = 0.0


class Module:
    """Base class: forward/backward with cached intermediates."""

    training: bool = False

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this module (and children)."""
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``dLoss/dOutput`` to ``dLoss/dInput``, accumulating
        parameter gradients along the way."""
        raise NotImplementedError

    def train(self) -> None:
        """Enable training behaviour (dropout active)."""
        self.training = True

    def eval(self) -> None:
        """Enable inference behaviour (dropout off).

        Also releases cached forward intermediates (inputs, masks,
        activations kept for ``backward``): they are per-node arrays
        that would otherwise stay pinned for as long as a trained model
        is held — e.g. by the analyzer — and ``forward`` repopulates
        them before any ``backward`` could need them.
        """
        self.training = False
        self._clear_cached()

    def _clear_cached(self) -> None:
        """Drop cached autograd intermediates (layers override)."""

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, seed: SeedLike = 0):
        rng = rng_from_seed(seed) if not isinstance(seed, np.random.Generator) else seed
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._input: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        parameters = [self.weight]
        if self.bias is not None:
            parameters.append(self.bias)
        return parameters

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ModelError("backward before forward")
        self.weight.grad += self._input.T @ grad
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T

    def _clear_cached(self) -> None:
        self._input = None


class GCNConv(Module):
    """Graph convolution ``H' = A* (H W) + b`` (Eq. 2 of the paper).

    ``A*`` is the pre-normalized propagation matrix (symmetric
    normalization with self-loops by default), fixed per design and
    shared across layers.
    """

    def __init__(self, in_features: int, out_features: int,
                 a_norm: "CSRMatrix", bias: bool = True,
                 seed: SeedLike = 0):
        rng = rng_from_seed(seed) if not isinstance(seed, np.random.Generator) else seed
        self.a_norm = a_norm
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._input: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        parameters = [self.weight]
        if self.bias is not None:
            parameters.append(self.bias)
        return parameters

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        out = self.a_norm @ (x @ self.weight.value)
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ModelError("backward before forward")
        # d/dH of A (H W):  A^T G W^T; A is symmetric for the default
        # normalization but transpose anyway for row-normalized mode.
        propagated = self.a_norm.T @ grad
        self.weight.grad += self._input.T @ propagated
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        return propagated @ self.weight.value.T

    def _clear_cached(self) -> None:
        self._input = None


class SAGEConv(Module):
    """GraphSAGE convolution with mean aggregation:
    ``H' = H W_self + (A_mean H) W_neigh + b``.

    ``a_mean`` is the row-normalized adjacency *without* self-loops
    (``D^-1 A``), so the node's own representation and its
    neighborhood aggregate pass through separate weight matrices —
    the architectural contrast to :class:`GCNConv`'s shared transform,
    exercised by the architecture ablation.
    """

    def __init__(self, in_features: int, out_features: int,
                 a_mean: "CSRMatrix", bias: bool = True,
                 seed: SeedLike = 0):
        rng = rng_from_seed(seed) if not isinstance(seed, np.random.Generator) else seed
        self.a_mean = a_mean
        self.weight_self = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.weight_neighbor = Parameter(
            glorot_uniform((in_features, out_features), rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._input: Optional[np.ndarray] = None
        self._aggregated: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        parameters = [self.weight_self, self.weight_neighbor]
        if self.bias is not None:
            parameters.append(self.bias)
        return parameters

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        self._aggregated = self.a_mean @ x
        out = (x @ self.weight_self.value
               + self._aggregated @ self.weight_neighbor.value)
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ModelError("backward before forward")
        self.weight_self.grad += self._input.T @ grad
        self.weight_neighbor.grad += self._aggregated.T @ grad
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        grad_input = grad @ self.weight_self.value.T
        grad_input += self.a_mean.T @ (
            grad @ self.weight_neighbor.value.T
        )
        return grad_input

    def _clear_cached(self) -> None:
        self._input = None
        self._aggregated = None


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ModelError("backward before forward")
        return grad * self._mask

    def _clear_cached(self) -> None:
        self._mask = None


class Sigmoid(Module):
    """Logistic activation."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ModelError("backward before forward")
        return grad * self._output * (1.0 - self._output)

    def _clear_cached(self) -> None:
        self._output = None


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ModelError("backward before forward")
        return grad * (1.0 - self._output ** 2)

    def _clear_cached(self) -> None:
        self._output = None


class Dropout(Module):
    """Inverted dropout: active only in training mode."""

    def __init__(self, p: float = 0.5, seed: SeedLike = 0):
        if not 0.0 <= p < 1.0:
            raise ModelError(f"dropout probability {p} outside [0, 1)")
        self.p = p
        self._rng = derive_rng(seed, "dropout") if not isinstance(
            seed, np.random.Generator
        ) else seed
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    def _clear_cached(self) -> None:
        self._mask = None


class LogSoftmax(Module):
    """Row-wise log-softmax."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=1, keepdims=True)
        self._output = shifted - np.log(
            np.exp(shifted).sum(axis=1, keepdims=True)
        )
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ModelError("backward before forward")
        softmax = np.exp(self._output)
        return grad - softmax * grad.sum(axis=1, keepdims=True)

    def _clear_cached(self) -> None:
        self._output = None


def functional_plan(model: "Sequential") -> List[tuple]:
    """Extract a functional description of a trained GCN stack.

    Returns one tuple per layer — ``("gcn", weight, bias)``,
    ``("relu",)``, ``("identity",)`` (dropout in eval mode) or
    ``("logsoftmax",)`` — referencing the live parameter arrays, so a
    caller can re-execute the stack under a *different* propagation
    matrix (e.g. a masked subgraph) without mutating module state.
    Used by the GNNExplainer's batched mask optimizer.
    """
    plan: List[tuple] = []
    for module in model.modules:
        if isinstance(module, GCNConv):
            bias = module.bias.value if module.bias is not None else None
            plan.append(("gcn", module.weight.value, bias))
        elif isinstance(module, ReLU):
            plan.append(("relu",))
        elif isinstance(module, Dropout):
            plan.append(("identity",))  # eval mode
        elif isinstance(module, LogSoftmax):
            plan.append(("logsoftmax",))
        else:
            raise ModelError(
                f"no functional plan for layer {type(module).__name__}"
            )
    return plan


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def parameters(self) -> List[Parameter]:
        parameters: List[Parameter] = []
        for module in self.modules:
            parameters.extend(module.parameters())
        return parameters

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for module in reversed(self.modules):
            grad = module.backward(grad)
        return grad

    def train(self) -> None:
        self.training = True
        for module in self.modules:
            module.train()

    def eval(self) -> None:
        self.training = False
        for module in self.modules:
            module.eval()
