"""Zero-allocation training workspace for Sequential stacks.

:func:`repro.nn.functional_plan` (PR 5) turned a trained GCN stack into
a reusable functional description for the explainer; this module
extends the same idea to *training*, and every training run in
:mod:`repro.nn.training` goes through it.  :func:`compile_workspace`
walks a :class:`~repro.nn.modules.Sequential` once, preallocates every
activation, mask, and gradient buffer the stack will ever need, and
runs each layer's sparse products with
:meth:`~repro.graph.adjacency.CSRMatrix.matmul_into` into that reused
memory (the backward reads the propagation matrix's own arrays as its
transpose) — so a full training run performs no per-epoch allocation.
The modules' own ``forward`` runs the same product, scipy's compiled
kernel.  The compiled forward/backward replicates the module
implementations operation for operation: with the default *exact*
semantics the per-epoch losses, metrics, and final weights are bitwise
identical to :meth:`Sequential.forward`/``backward``
(``tests/test_training_bitwise.py`` locks this against frozen
pre-rewrite copies of the module code).

Two opt-in accelerations trade that bitwise guarantee for speed
(``TrainingConfig(fast_math=True)``):

* **Operand-order selection** — ``A @ (X W)`` and ``(A X) @ W`` cost
  ``nnz * f_out`` vs ``nnz * f_in`` sparse flops (the dense product is
  order-invariant), so each :class:`GCNConv` propagates whichever side
  is narrower.
* **First-layer propagation caching** — the first convolution's
  ``A* @ X`` involves only constants, so it is computed once per
  ``(A*, X)`` pair in a shared :class:`PropagationCache` and reused
  across every epoch, every grid-search candidate, and every seed on
  the same design (SGC's ``A*^K X`` smoothing shares the same cache).

Both reorderings are algebraically exact; they differ from the default
only in floating-point rounding (IEEE addition is not associative).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.adjacency import CSRMatrix
from repro.nn.modules import (
    Dropout,
    GCNConv,
    Linear,
    LogSoftmax,
    Module,
    Parameter,
    ReLU,
    SAGEConv,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.utils.errors import ModelError


class PropagationCache:
    """Cache of constant propagation products ``A @ X``.

    Keyed by operand *identity*: the product is recomputed only when a
    genuinely different matrix pair is presented, so one cache instance
    (typically owned by a :class:`~repro.graph.data.GraphData`) serves
    every training run, grid-search candidate, and SGC propagation on
    the same design.  Strong references to the operands are kept so a
    key's ``id`` can never be recycled.  Cached products are shared —
    callers must treat them as read-only.
    """

    def __init__(self) -> None:
        self._products: Dict[Tuple[int, int], tuple] = {}

    def __len__(self) -> int:
        return len(self._products)

    def get(self, a_norm, x: np.ndarray) -> np.ndarray:
        """``a_norm @ x``, computed at most once per operand pair."""
        key = (id(a_norm), id(x))
        entry = self._products.get(key)
        if entry is None:
            entry = (a_norm @ x, a_norm, x)
            self._products[key] = entry
        return entry[0]


def pack_parameters(model: Module) -> Parameter:
    """Rebind the model's parameters to views of one flat value/grad pair.

    Every optimizer update is elementwise with hyperparameters shared
    across parameters, so one fused pass over the packed pair is
    bitwise identical to the reference per-parameter loop — at 1/P the
    per-call dispatch overhead.  Mutations flow both ways: the modules'
    ``weight.value`` views alias the packed buffer the optimizer steps,
    and gradient accumulation into the views lands in the packed grad.
    """
    parameters = model.parameters()
    total = sum(parameter.value.size for parameter in parameters)
    flat_value = np.empty(total)
    flat_grad = np.zeros(total)
    offset = 0
    for parameter in parameters:
        size, shape = parameter.value.size, parameter.value.shape
        chunk = slice(offset, offset + size)
        flat_value[chunk] = parameter.value.ravel()
        parameter.value = flat_value[chunk].reshape(shape)
        parameter.grad = flat_grad[chunk].reshape(shape)
        offset += size
    packed = Parameter(flat_value)
    packed.grad = flat_grad
    return packed


class _Layer:
    """One compiled layer: preallocated buffers + in-place products.

    ``src`` is the layer's input array (the previous layer's ``out``
    buffer, or the root feature matrix), fixed at compile time; ``out``
    is the preallocated output buffer.  ``backward`` consumes the
    incoming gradient (and may overwrite it — the caller never reads it
    again) and returns the gradient w.r.t. ``src``, or ``None`` when
    ``need_input_grad`` is false (the first layer's input gradient is
    never used, so its computation is skipped).
    """

    def __init__(self, src: np.ndarray, out_width: int):
        self.src = src
        self.out = np.empty((src.shape[0], out_width))
        self.need_input_grad = True

    def forward(self, training: bool) -> None:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        raise NotImplementedError


class _GCNLayer(_Layer):
    """``H' = A* (H W) + b`` with the reference operand order.

    Forward: dense ``src @ W`` into a scratch, then ``A @`` into
    ``out``.  Backward: ``A.T @`` (read from A's own arrays) into the
    same scratch, then two dense products into parameter-shaped scratch
    buffers accumulated onto the grads.
    """

    def __init__(self, module: GCNConv, src: np.ndarray):
        super().__init__(src, module.weight.shape[1])
        self.module = module
        # Holds X W during forward, A^T G during backward (the forward
        # product is dead by then).
        self._scratch = np.empty_like(self.out)
        self._w_scratch = np.empty_like(module.weight.value)
        if module.bias is not None:
            self._b_scratch = np.empty_like(module.bias.value)
        self._grad_in = np.empty_like(src)

    def forward(self, training: bool) -> None:
        module = self.module
        np.matmul(self.src, module.weight.value, out=self._scratch)
        module.a_norm.matmul_into(self._scratch, self.out)
        if module.bias is not None:
            self.out += module.bias.value

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        module = self.module
        propagated = module.a_norm.matmul_into(grad, self._scratch,
                                               transpose=True)
        np.matmul(self.src.T, propagated, out=self._w_scratch)
        module.weight.grad += self._w_scratch
        if module.bias is not None:
            np.add.reduce(grad, axis=0, out=self._b_scratch)
            module.bias.grad += self._b_scratch
        if not self.need_input_grad:
            return None
        np.matmul(propagated, module.weight.value.T, out=self._grad_in)
        return self._grad_in


class _GCNLayerAX(_Layer):
    """``H' = (A* H) W + b`` — the reordered form (fast math).

    Used when ``f_in < f_out``: the sparse product then runs over the
    narrower side in both directions (``nnz * f_in`` instead of
    ``nnz * f_out`` flops).  The propagated input ``A* H`` is kept for
    the weight gradient (``(A* H)^T G``), which the reference order
    would have to re-derive with a second sparse product.
    """

    def __init__(self, module: GCNConv, src: np.ndarray):
        super().__init__(src, module.weight.shape[1])
        self.module = module
        self._ax = np.empty_like(src)
        self._grad_in = np.empty_like(src)
        self._w_scratch = np.empty_like(module.weight.value)
        if module.bias is not None:
            self._b_scratch = np.empty_like(module.bias.value)
            self._ones = np.ones(src.shape[0])

    def forward(self, training: bool) -> None:
        module = self.module
        module.a_norm.matmul_into(self.src, self._ax)
        np.matmul(self._ax, module.weight.value, out=self.out)
        if module.bias is not None:
            self.out += module.bias.value

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        module = self.module
        np.matmul(self._ax.T, grad, out=self._w_scratch)
        module.weight.grad += self._w_scratch
        if module.bias is not None:
            # ones @ grad: the column sums as one BLAS matvec (this is
            # a fast-math layer, so the pairwise-reduce bits need not
            # be replicated).
            np.matmul(self._ones, grad, out=self._b_scratch)
            module.bias.grad += self._b_scratch
        if not self.need_input_grad:
            return None
        # d/dH of (A H) W = A^T (G W^T); _ax is dead, reuse it.
        np.matmul(grad, module.weight.value.T, out=self._ax)
        return module.a_norm.matmul_into(self._ax, self._grad_in,
                                         transpose=True)


class _GCNLayerCached(_Layer):
    """First-layer convolution over a cached constant propagation.

    ``A* @ X`` involves no trainable state, so the product comes from a
    shared :class:`PropagationCache` and the layer degenerates to a
    dense affine map — no sparse work at all, in either direction.
    """

    def __init__(self, module: GCNConv, src: np.ndarray,
                 propagated: np.ndarray):
        super().__init__(src, module.weight.shape[1])
        self.module = module
        self._propagated = propagated
        self._w_scratch = np.empty_like(module.weight.value)
        if module.bias is not None:
            self._b_scratch = np.empty_like(module.bias.value)
            self._ones = np.ones(src.shape[0])
        self.need_input_grad = False

    def forward(self, training: bool) -> None:
        module = self.module
        np.matmul(self._propagated, module.weight.value, out=self.out)
        if module.bias is not None:
            self.out += module.bias.value

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        module = self.module
        np.matmul(self._propagated.T, grad, out=self._w_scratch)
        module.weight.grad += self._w_scratch
        if module.bias is not None:
            np.matmul(self._ones, grad, out=self._b_scratch)
            module.bias.grad += self._b_scratch
        return None


class _SAGELayer(_Layer):
    """``H' = H W_self + (A H) W_neigh + b`` in the module's order.

    Forward: the aggregate ``A H`` (kept for the neighbour weight's
    gradient), then two dense products summed into ``out``.  Backward:
    the two weight gradients, then the input gradient
    ``G W_self^T + A^T (G W_neigh^T)`` with ``A^T`` read from A's own
    arrays.
    """

    def __init__(self, module: SAGEConv, src: np.ndarray):
        super().__init__(src, module.weight_self.shape[1])
        self.module = module
        self._aggregated = np.empty_like(src)
        self._neighbor = np.empty_like(self.out)
        self._w_scratch = np.empty_like(module.weight_self.value)
        if module.bias is not None:
            self._b_scratch = np.empty_like(module.bias.value)
        self._grad_in = np.empty_like(src)
        self._grad_neighbor = np.empty_like(src)
        self._grad_propagated = np.empty_like(src)

    def forward(self, training: bool) -> None:
        module = self.module
        module.a_mean.matmul_into(self.src, self._aggregated)
        np.matmul(self.src, module.weight_self.value, out=self.out)
        np.matmul(self._aggregated, module.weight_neighbor.value,
                  out=self._neighbor)
        self.out += self._neighbor
        if module.bias is not None:
            self.out += module.bias.value

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        module = self.module
        np.matmul(self.src.T, grad, out=self._w_scratch)
        module.weight_self.grad += self._w_scratch
        np.matmul(self._aggregated.T, grad, out=self._w_scratch)
        module.weight_neighbor.grad += self._w_scratch
        if module.bias is not None:
            np.add.reduce(grad, axis=0, out=self._b_scratch)
            module.bias.grad += self._b_scratch
        if not self.need_input_grad:
            return None
        np.matmul(grad, module.weight_self.value.T, out=self._grad_in)
        np.matmul(grad, module.weight_neighbor.value.T,
                  out=self._grad_neighbor)
        module.a_mean.matmul_into(self._grad_neighbor,
                                  self._grad_propagated, transpose=True)
        self._grad_in += self._grad_propagated
        return self._grad_in


class _LinearLayer(_Layer):
    def __init__(self, module: Linear, src: np.ndarray):
        super().__init__(src, module.weight.shape[1])
        self.module = module
        self._w_scratch = np.empty_like(module.weight.value)
        if module.bias is not None:
            self._b_scratch = np.empty_like(module.bias.value)
        self._grad_in = np.empty_like(src)

    def forward(self, training: bool) -> None:
        module = self.module
        np.matmul(self.src, module.weight.value, out=self.out)
        if module.bias is not None:
            self.out += module.bias.value

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        module = self.module
        np.matmul(self.src.T, grad, out=self._w_scratch)
        module.weight.grad += self._w_scratch
        if module.bias is not None:
            np.add.reduce(grad, axis=0, out=self._b_scratch)
            module.bias.grad += self._b_scratch
        if not self.need_input_grad:
            return None
        np.matmul(grad, module.weight.value.T, out=self._grad_in)
        return self._grad_in


class _ReLULayer(_Layer):
    def __init__(self, module: ReLU, src: np.ndarray):
        super().__init__(src, src.shape[1])
        self._mask = np.empty(src.shape, dtype=bool)

    def forward(self, training: bool) -> None:
        np.greater(self.src, 0.0, out=self._mask)
        np.multiply(self.src, self._mask, out=self.out)

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        grad *= self._mask
        return grad


class _ReLULayerFast(_Layer):
    """Single-pass ReLU (fast math).

    ``maximum(x, 0)`` instead of the reference ``x * (x > 0)`` — equal
    values (only the sign of zero can differ), one elementwise pass
    instead of two on the forward, which runs twice per epoch.  The
    backward mask is rebuilt from the activation (``out > 0`` iff
    ``src > 0``).
    """

    def __init__(self, module: ReLU, src: np.ndarray):
        super().__init__(src, src.shape[1])
        self._mask = np.empty(src.shape, dtype=bool)

    def forward(self, training: bool) -> None:
        np.maximum(self.src, 0.0, out=self.out)

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        np.greater(self.out, 0.0, out=self._mask)
        grad *= self._mask
        return grad


class _SigmoidLayer(_Layer):
    def __init__(self, module: Sigmoid, src: np.ndarray):
        super().__init__(src, src.shape[1])
        self._scratch = np.empty_like(self.out)

    def forward(self, training: bool) -> None:
        out = self.out
        np.clip(self.src, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        grad *= self.out
        np.subtract(1.0, self.out, out=self._scratch)
        grad *= self._scratch
        return grad


class _TanhLayer(_Layer):
    def __init__(self, module: Tanh, src: np.ndarray):
        super().__init__(src, src.shape[1])
        self._scratch = np.empty_like(self.out)

    def forward(self, training: bool) -> None:
        np.tanh(self.src, out=self.out)

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        np.power(self.out, 2, out=self._scratch)
        np.subtract(1.0, self._scratch, out=self._scratch)
        grad *= self._scratch
        return grad


class _DropoutLayer(_Layer):
    """Inverted dropout drawing from the module's own RNG stream.

    ``Generator.random(out=...)`` consumes exactly the bits
    ``Generator.random(shape)`` would, so the engine's mask sequence is
    identical to the one :meth:`Dropout.forward` draws.
    """

    def __init__(self, module: Dropout, src: np.ndarray):
        super().__init__(src, src.shape[1])
        self.module = module
        self.stochastic = module.p > 0.0
        self._uniform = np.empty(src.shape)
        self._keep_bool = np.empty(src.shape, dtype=bool)
        self._mask = np.empty(src.shape)
        self._active = False

    def make_inplace(self) -> None:
        """Alias ``out`` to ``src``: eval becomes a no-op and the train
        mask multiplies in place (identical bits).  Safe because every
        eval forward recomputes ``src`` before the next train forward
        reads it — applied by the compiler whenever ``src`` is an
        internal buffer (never the workspace input)."""
        self.out = self.src

    def forward(self, training: bool) -> None:
        if not training or not self.stochastic:
            self._active = False
            if self.out is not self.src:
                np.copyto(self.out, self.src)
            return
        keep = 1.0 - self.module.p
        self.module._rng.random(out=self._uniform)
        np.less(self._uniform, keep, out=self._keep_bool)
        np.divide(self._keep_bool, keep, out=self._mask)
        np.multiply(self.src, self._mask, out=self.out)
        self._active = True

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        if self._active:
            grad *= self._mask
        return grad


class _LogSoftmaxLayer(_Layer):
    """Row log-softmax.

    A two-element axis reduction is exactly one binary ufunc call per
    row, so for the (ubiquitous) two-class head the per-row reduce
    machinery is swapped for single elementwise calls over the column
    views — identical bits, a fraction of the reduce dispatch cost.
    """

    def __init__(self, module: LogSoftmax, src: np.ndarray):
        super().__init__(src, src.shape[1])
        n = src.shape[0]
        self._rows = np.empty(n)
        self._rows_col = self._rows.reshape(n, 1)
        self._exp = np.empty_like(self.out)
        self._two_class = src.shape[1] == 2

    def _row_reduce(self, ufunc, matrix: np.ndarray) -> None:
        if self._two_class:
            ufunc(matrix[:, 0], matrix[:, 1], out=self._rows)
        else:
            ufunc.reduce(matrix, axis=1, out=self._rows)

    def forward(self, training: bool) -> None:
        out = self.out
        self._row_reduce(np.maximum, self.src)
        np.subtract(self.src, self._rows_col, out=out)
        np.exp(out, out=self._exp)
        self._row_reduce(np.add, self._exp)
        np.log(self._rows, out=self._rows)
        out -= self._rows_col

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        np.exp(self.out, out=self._exp)
        self._row_reduce(np.add, grad)
        self._exp *= self._rows_col
        grad -= self._exp
        return grad


_COMPILERS = {
    GCNConv: _GCNLayer,
    SAGEConv: _SAGELayer,
    Linear: _LinearLayer,
    ReLU: _ReLULayer,
    Sigmoid: _SigmoidLayer,
    Tanh: _TanhLayer,
    Dropout: _DropoutLayer,
    LogSoftmax: _LogSoftmaxLayer,
}


class TrainingWorkspace:
    """Compiled forward/backward plan over preallocated buffers.

    The training loop alternates one train-mode forward (+ backward +
    step) with one eval-mode monitor forward per epoch.  Because no
    weight changes between the monitor forward and the *next* epoch's
    train forward, and every layer before the first stochastic
    (dropout) layer behaves identically in both modes, that prefix of
    the next train forward would recompute exactly the values already
    sitting in the buffers — so :meth:`forward_train` skips it.  The
    skipped layers' buffers still feed the backward pass, which is what
    makes the shortcut bitwise-safe rather than approximate.
    """

    def __init__(self, layers: List[_Layer]):
        self.layers = layers
        self.output = layers[-1].out
        self._resume_at = next(
            (i for i, layer in enumerate(layers)
             if isinstance(layer, _DropoutLayer) and layer.stochastic),
            len(layers),
        )
        self._eval_fresh = False

    def forward_train(self) -> np.ndarray:
        start = self._resume_at if self._eval_fresh else 0
        for layer in self.layers[start:]:
            layer.forward(training=True)
        self._eval_fresh = False
        return self.output

    def forward_eval(self) -> np.ndarray:
        for layer in self.layers:
            layer.forward(training=False)
        self._eval_fresh = True
        return self.output

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
            if grad is None:
                break


def _usable_adjacency(a, n_nodes: int) -> bool:
    """A float64 :class:`CSRMatrix` of the graph's size."""
    return (isinstance(a, CSRMatrix)
            and a.shape == (n_nodes, n_nodes)
            and a.dtype == np.float64)


def _check_layer(position: int, module: Module, src: np.ndarray) -> None:
    """Raise :class:`ModelError` unless ``module`` compiles on ``src``."""
    name = f"layer {position} ({type(module).__name__})"
    if type(module) not in _COMPILERS:
        raise ModelError(f"{name} has no compiled training form")
    sage = isinstance(module, SAGEConv)
    if sage or isinstance(module, (GCNConv, Linear)):
        weight = module.weight_self if sage else module.weight
        if weight.shape[0] != src.shape[1]:
            raise ModelError(
                f"{name} takes {weight.shape[0]} input features, "
                f"its input has {src.shape[1]}"
            )
    if sage or isinstance(module, GCNConv):
        adjacency = module.a_mean if sage else module.a_norm
        if not _usable_adjacency(adjacency, src.shape[0]):
            raise ModelError(
                f"{name} needs a float64 CSR adjacency of shape "
                f"({src.shape[0]}, {src.shape[0]})"
            )


def compile_workspace(
    model: Module,
    x: np.ndarray,
    fast_math: bool = False,
    cache: Optional[PropagationCache] = None,
) -> TrainingWorkspace:
    """Compile ``model`` into a :class:`TrainingWorkspace`.

    ``model`` must be a non-empty :class:`Sequential` of layers this
    module compiles, each as wide as its input, with every graph
    convolution on a float64 :class:`CSRMatrix` of the graph's size;
    anything else raises :class:`ModelError` naming the layer.  ``x``
    is read as a C-ordered float64 matrix; when that takes a copy,
    ``cache`` is not used (the copy would key a new entry per call).
    """
    if not isinstance(model, Sequential) or not model.modules:
        raise ModelError(
            f"cannot train {type(model).__name__}: the training engine "
            "compiles a non-empty Sequential"
        )
    given, x = x, np.ascontiguousarray(x, dtype=np.float64)
    if x is not given:
        cache = None
    if x.ndim != 2:
        raise ModelError(f"features must be a matrix, got shape {x.shape}")
    layers: List[_Layer] = []
    src = x
    for position, module in enumerate(model.modules):
        _check_layer(position, module, src)
        if (fast_math and isinstance(module, GCNConv) and src is x
                and cache is not None):
            layer = _GCNLayerCached(module, src,
                                    cache.get(module.a_norm, x))
        else:
            compiler = _COMPILERS[type(module)]
            if (fast_math and compiler is _GCNLayer
                    and src.shape[1] < module.weight.shape[1]):
                compiler = _GCNLayerAX
            elif fast_math and compiler is _ReLULayer:
                compiler = _ReLULayerFast
            layer = compiler(module, src)
            if isinstance(layer, _DropoutLayer) and src is not x:
                layer.make_inplace()
        layers.append(layer)
        src = layer.out
    layers[0].need_input_grad = False
    return TrainingWorkspace(layers)


def _check_mask(n: int, mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ModelError(f"mask shape {mask.shape} != ({n},)")
    if not mask.any():
        raise ModelError("loss mask selects no nodes")
    return mask


class ClassifierObjective:
    """Masked NLL + accuracy over a workspace's shared output buffer.

    Targets, masks, class weights, and the loss normalizers are
    constant for a whole training run, so the flat gather indices, the
    per-node weights, and the gradient scatter values are computed once
    here; per epoch the train loss, the monitor loss, and the monitor
    accuracy each cost one ``take`` + one reduction over buffers.  The
    arithmetic matches :func:`repro.nn.losses.nll_loss` operation for
    operation (bitwise).  Every target must be a class of the output,
    in ``[0, n_classes)``: the flat gather would otherwise read (and
    the gradient scatter write) a neighbouring node's entry.
    ``balance`` weighs the training NLL by inverse class frequency
    over the training fold.
    """

    def __init__(self, output: np.ndarray, targets: np.ndarray,
                 train_mask: np.ndarray, monitor_mask: np.ndarray,
                 balance: bool, fast: bool = False):
        n, n_classes = output.shape
        self._output = output
        self._output_flat = output.reshape(-1)
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (n,):
            raise ModelError("targets misaligned with predictions")
        outside = np.flatnonzero((targets < 0) | (targets >= n_classes))
        if len(outside):
            node = outside[0]
            raise ModelError(
                f"target {targets[node]} at node {node} is outside "
                f"[0, {n_classes}) ({len(outside)} node(s) in all)"
            )
        train_mask = _check_mask(n, train_mask)
        monitor_mask = _check_mask(n, monitor_mask)
        self._flat = np.arange(n, dtype=np.int64) * n_classes + targets

        weights = np.ones(n)
        if balance:
            counts = np.bincount(targets[train_mask],
                                 minlength=n_classes).astype(float)
            counts[counts == 0.0] = 1.0
            weights = (counts.sum() / (n_classes * counts))[targets]
        self._train_weights = weights * train_mask
        self._train_norm = self._train_weights.sum()
        self._monitor_weights = np.ones(n) * monitor_mask
        self._monitor_norm = self._monitor_weights.sum()
        self._scatter = -self._train_weights / self._train_norm

        self.grad = np.zeros_like(output)
        self._grad_flat = self.grad.reshape(-1)
        self._picked = np.empty(n)
        self._weighted = np.empty(n)

        monitor_index = np.flatnonzero(monitor_mask)
        self._monitor_index = monitor_index
        self._monitor_targets = targets[monitor_index]
        self._argmax = np.empty(n, dtype=np.intp)
        self._argmax_sel = np.empty(len(monitor_index), dtype=np.intp)
        self._hits = np.empty(len(monitor_index), dtype=bool)
        # Fast-math only: for two classes argmax reduces to a single
        # column comparison.  It disagrees with argmax when column 1 is
        # NaN (argmax returns the NaN index, ``greater`` returns 0), so
        # the exact path keeps the per-row argmax.
        self._fast_two_class = bool(fast) and n_classes == 2
        if self._fast_two_class:
            self._greater = np.empty(n, dtype=bool)
            self._greater_sel = np.empty(len(monitor_index), dtype=bool)

    def _masked_nll(self, weights: np.ndarray, norm: float) -> float:
        self._output_flat.take(self._flat, out=self._picked)
        np.multiply(weights, self._picked, out=self._weighted)
        return float(-np.add.reduce(self._weighted) / norm)

    def train_loss(self) -> float:
        """Training-fold NLL; also refreshes :attr:`grad` in place."""
        self.grad.fill(0.0)
        self._grad_flat[self._flat] = self._scatter
        return self._masked_nll(self._train_weights, self._train_norm)

    def monitor_loss(self) -> float:
        return self._masked_nll(self._monitor_weights,
                                self._monitor_norm)

    def monitor_accuracy(self) -> float:
        if self._fast_two_class:
            np.greater(self._output[:, 1], self._output[:, 0],
                       out=self._greater)
            self._greater.take(self._monitor_index,
                               out=self._greater_sel)
            np.equal(self._greater_sel, self._monitor_targets,
                     out=self._hits)
        else:
            np.argmax(self._output, axis=1, out=self._argmax)
            self._argmax.take(self._monitor_index,
                              out=self._argmax_sel)
            np.equal(self._argmax_sel, self._monitor_targets,
                     out=self._hits)
        # count_nonzero/size divides the same exact integers as
        # ``mean`` would — identical bits, no fromnumeric dispatch.
        # ``float``: numpy 2 returns a numpy integer count, and the
        # quotient would leak into histories as ``np.float64``.
        return float(np.count_nonzero(self._hits) / self._hits.size)

    def monitor(self) -> Tuple[float, float]:
        """``(early-stopping metric, accuracy)`` of the eval output.

        The metric is accuracy with an NLL tie-breaker, so among
        equally-accurate epochs the best-calibrated one wins (this
        keeps probability rankings — and hence ROC/AUC — faithful, not
        just the argmax).
        """
        accuracy = self.monitor_accuracy()
        return accuracy - 0.1 * self.monitor_loss(), accuracy


class RegressorObjective:
    """Masked MSE over a workspace's shared one-column output buffer;
    same precomputation contract as :class:`ClassifierObjective`,
    matching :func:`repro.nn.losses.mse_loss` bitwise."""

    def __init__(self, output: np.ndarray, targets: np.ndarray,
                 train_mask: np.ndarray, monitor_mask: np.ndarray):
        n, width = output.shape
        if width != 1:
            raise ModelError(
                f"a regressor needs one output column, the model has "
                f"{width}"
            )
        self._output_flat = output.reshape(n)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (n,):
            raise ModelError("targets misaligned with predictions")
        self._targets = targets
        self._train_mask = _check_mask(n, train_mask)
        self._monitor_mask = _check_mask(n, monitor_mask)
        self._train_count = int(self._train_mask.sum())
        self._monitor_count = int(self._monitor_mask.sum())
        self.grad = np.zeros_like(output)
        self._grad_flat = self.grad.reshape(n)
        self._residual = np.empty(n)
        self._squared = np.empty(n)

    def _masked_mse(self, mask: np.ndarray, count: int) -> float:
        np.subtract(self._output_flat, self._targets,
                    out=self._residual)
        self._residual *= mask
        np.power(self._residual, 2, out=self._squared)
        return float(np.add.reduce(self._squared) / count)

    def train_loss(self) -> float:
        """Training-fold MSE; also refreshes :attr:`grad` in place."""
        loss = self._masked_mse(self._train_mask, self._train_count)
        np.multiply(self._residual, 2.0, out=self._grad_flat)
        self._grad_flat /= self._train_count
        return loss

    def monitor_loss(self) -> float:
        return self._masked_mse(self._monitor_mask,
                                self._monitor_count)

    def monitor(self) -> Tuple[float, float]:
        """``(early-stopping metric, NaN)``: the negative monitor MSE,
        so higher is better as for the classifier."""
        return -self.monitor_loss(), float("nan")
