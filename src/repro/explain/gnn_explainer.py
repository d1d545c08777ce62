"""Batched GNNExplainer (Ying et al., NeurIPS 2019) for the trained GCN.

For one target node the explainer learns, by gradient descent, a soft
mask over the edges of the node's L-hop computation subgraph and a soft
mask over the input features, maximizing the mutual information with
the model's prediction: minimize the negative log-probability of the
predicted class under the masked graph/features, plus size and entropy
regularizers that push the masks toward small, crisp explanations.

The optimization runs on a *functional* re-execution of the trained
stack (:func:`repro.nn.modules.functional_plan`) so mask gradients flow
through the shared adjacency of every GCN layer — the trained weights
themselves stay frozen.

Engine layout (the §3.5 all-nodes aggregation explains *every* gate,
so this is a throughput-critical path):

* Subgraph structure is cached per computation-subgraph *signature*
  (the exact L-hop node set): the CSR slice of the propagation matrix,
  its transpose permutation, the undirected-edge list and the
  nnz-to-edge gather maps are built once and shared by every node with
  that signature.  Every sparse matrix is a numpy-built
  :class:`~repro.graph.adjacency.CSRMatrix` (slices, transpose slices
  and block diagonals come from :mod:`repro.graph.adjacency`, byte for
  byte what the scipy constructions left), and every product is scipy's
  ``csr_matvecs`` kernel from
  :func:`~repro.graph.adjacency.sparse_kernels`, so explaining imports
  no ``scipy.sparse`` package.
* Target nodes are grouped by subgraph size and stacked into
  **block-diagonal batches**: one sparse-matmul forward/backward pass
  per epoch drives K nodes' masks at once.  Blocks cannot interact —
  a CSR product only sums a row's stored entries and the dense
  per-slice matmuls see each block separately — so batched results are
  **bitwise identical** to explaining each node alone.
* Masked propagation stays sparse end to end: per epoch only the CSR
  ``data`` arrays are rewritten through precomputed gathers (no dense
  ``base.copy()``), and the adjacency gradient is evaluated only at
  stored entries via nnz gathers instead of a dense ``G @ (HW)^T``.
* ``explain_many`` fans batches out over a persistent supervised fork
  pool (:func:`repro.utils.workerpool.map_supervised`): the parent builds
  every subgraph signature and node plan *before* forking, so workers
  inherit the whole cache copy-on-write and spend their lives purely
  in mask optimization; batches stream back with per-unit
  acknowledgment, dead workers are respawned and their batch re-run,
  and a batch that keeps killing its host raises a typed
  ``worker_crash`` error instead of a bare ``BrokenProcessPool``.
  Per-node RNG streams are derived from ``(seed, node_index)`` so
  results are identical for every ``jobs``/``batch_size``
  configuration — including runs where workers were killed mid-flight.

Memory scales with ``batch_size x subgraph_width``: one batch holds
``O(K * S * H_max)`` activations plus ``O(K * nnz)`` gather buffers
(see docs/performance.md, "Explainer scaling").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.explain.explanation import ExplainerConfig, Explanation
from repro.graph.adjacency import (
    CSRMatrix,
    adjacency_matrix,
    block_diagonal,
    csr_from_coo,
    sparse_kernels,
    submatrix,
)
from repro.graph.data import GraphData
from repro.models.gcn import GCNClassifier
from repro.netlist.netlist import csr_gather
from repro.nn.modules import Parameter, functional_plan
from repro.nn.optim import Adam
from repro.utils.arrays import sorted_unique
from repro.utils.errors import ModelError
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.workerpool import map_supervised

_sparsetools = sparse_kernels()

#: Nodes per block-diagonal batch.  Large enough to amortize the
#: per-epoch numpy dispatch over many masks, small enough that one
#: batch's activations stay a few MiB even at 500-node subgraphs.
DEFAULT_BATCH_SIZE = 16


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(values, -60.0, 60.0)))


def _spmm_into(matrix: CSRMatrix, dense: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """``out = matrix @ dense`` into a preallocated buffer.

    Calls the same ``csr_matvecs`` kernel scipy's ``@`` resolves to,
    skipping the per-call dispatch/validation/allocation that
    dominates when the optimizer issues thousands of small products.
    """
    out[:] = 0.0
    _sparsetools.csr_matvecs(matrix.shape[0], matrix.shape[1],
                             dense.shape[1], matrix.indptr,
                             matrix.indices, matrix.data, dense.ravel(),
                             out.ravel())
    return out


def undirected_csr(
    edge_index: np.ndarray, n_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the undirected adjacency structure."""
    adjacency = adjacency_matrix(
        np.asarray(edge_index).reshape(2, -1), n_nodes
    )
    return adjacency.indptr, adjacency.indices


def hop_levels(
    indptr: np.ndarray, indices: np.ndarray, node: int, hops: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Leveled BFS: ``(nodes, levels)`` within ``hops`` of ``node``.

    ``nodes`` is sorted ascending; ``levels[i]`` is the hop distance
    of ``nodes[i]`` from the source.  Frontier expansion gathers all
    neighbor slices of the current frontier in one shot off the CSR
    arrays instead of walking Python sets.
    """
    level = np.full(len(indptr) - 1, -1, dtype=np.int64)
    level[node] = 0
    frontier = np.array([node], dtype=np.int64)
    for hop in range(1, hops + 1):
        neighbors = csr_gather(indptr, indices, frontier)
        fresh = neighbors[level[neighbors] < 0]
        if len(fresh) == 0:
            break
        frontier = sorted_unique(fresh)
        level[frontier] = hop
    nodes = np.flatnonzero(level >= 0)
    return nodes, level[nodes]


def hop_neighborhood(
    indptr: np.ndarray, indices: np.ndarray, node: int, hops: int
) -> np.ndarray:
    """Sorted nodes within ``hops`` undirected hops of ``node``
    (matches a textbook L-hop BFS exactly — locked in by a hypothesis
    property in tests/test_explain.py)."""
    return hop_levels(indptr, indices, node, hops)[0]


class _SubgraphSignature:
    """Structure shared by every node with one computation subgraph.

    Holds the sparse adjacency slice, its transpose gather, the
    undirected-edge list (upper-triangle, row-major — the mask
    parameter order) and the nnz-position maps that let the optimizer
    rewrite CSR ``data`` directly instead of copying a dense matrix.
    """

    __slots__ = (
        "nodes", "size", "adjacency", "base_data", "coo_rows",
        "coo_cols", "edge_rows", "edge_cols", "nnz_rc", "nnz_cr",
        "cr_valid", "used_mask", "x_sub",
    )

    def __init__(self, a_norm: CSRMatrix, x: np.ndarray,
                 nodes: np.ndarray):
        self.nodes = nodes
        self.size = len(nodes)
        sub = submatrix(a_norm, nodes)
        self.adjacency = sub
        self.base_data = sub.data.copy()

        self.coo_rows = np.repeat(np.arange(self.size),
                                  np.diff(sub.indptr))
        self.coo_cols = sub.indices.astype(np.int64)
        position = np.full((self.size, self.size), -1, dtype=np.int64)
        position[self.coo_rows, self.coo_cols] = np.arange(sub.nnz)

        # Undirected mask parameters: one logit per upper-triangle
        # entry, in row-major order (the dense np.triu scan order).
        upper = self.coo_cols > self.coo_rows
        self.edge_rows = self.coo_rows[upper]
        self.edge_cols = self.coo_cols[upper]
        self.nnz_rc = position[self.edge_rows, self.edge_cols]
        self.nnz_cr = position[self.edge_cols, self.edge_rows]
        # A structurally one-way pair (possible under row
        # normalization) has no stored reverse entry to mask.
        self.cr_valid = self.nnz_cr >= 0
        # nnz positions the edge-mask gradient actually reads (the
        # diagonal and any unpaired entries never feed a logit).
        used = np.zeros(sub.nnz, dtype=bool)
        used[self.nnz_rc] = True
        used[self.nnz_cr[self.cr_valid]] = True
        self.used_mask = used
        self.x_sub = x[nodes]


class _NodePlan:
    """Per-target backward restriction over one signature.

    The loss gradient starts as a one-hot row at the target, so after
    ``m`` GCN-backward steps it is exactly zero outside the target's
    ``m``-hop ball.  For the GCN layer ``l`` (1-indexed, forward
    order) of an ``L``-layer stack, the incoming gradient during
    backward is live only at rows within ``L - l`` hops — this plan
    precomputes, per layer, the nnz positions whose adjacency gradient
    can be nonzero (``gather_*``) and a transpose slice restricted to
    live gradient rows (``t_struct``/``t_perm``), so the per-epoch
    gathers and sparse products skip the provably-zero majority.
    """

    __slots__ = ("node_index", "signature", "target_position",
                 "gather_idx", "gather_rows", "gather_cols",
                 "t_struct", "t_perm")

    def __init__(self, node_index: int, signature: _SubgraphSignature,
                 levels: np.ndarray, n_hops: int):
        self.node_index = node_index
        self.signature = signature
        self.target_position = int(
            np.searchsorted(signature.nodes, node_index)
        )
        row_level = levels[signature.coo_rows]
        self.gather_idx: List[np.ndarray] = []
        self.gather_rows: List[np.ndarray] = []
        self.gather_cols: List[np.ndarray] = []
        self.t_struct: List[CSRMatrix] = []
        self.t_perm: List[np.ndarray] = []
        for layer in range(1, n_hops + 1):
            live = row_level <= n_hops - layer
            idx = np.flatnonzero(live & signature.used_mask)
            self.gather_idx.append(idx)
            self.gather_rows.append(signature.coo_rows[idx])
            self.gather_cols.append(signature.coo_cols[idx])
            # Transpose slice keeping only live-gradient source rows:
            # data carries position+1 so the CSR conversion's sort
            # yields the data-refresh permutation.
            t_idx = np.flatnonzero(live)
            t_sub = csr_from_coo(
                signature.coo_cols[t_idx], signature.coo_rows[t_idx],
                t_idx.astype(np.float64) + 1.0,
                (signature.size, signature.size),
            )
            self.t_struct.append(t_sub)
            self.t_perm.append(t_sub.data.astype(np.int64) - 1)


class _ExplainScratch:
    """Preallocated buffers for one block-diagonal batch of K nodes.

    All K subgraphs have the same node count S, so dense activations
    stack into ``(K, S, *)`` arrays whose per-slice matmuls are the
    exact serial computation, while the K sparse adjacencies form one
    block-diagonal CSR whose products cannot mix blocks.
    """

    def __init__(self, plans: Sequence[_NodePlan],
                 plan: Sequence[tuple], n_features: int):
        self.plans = list(plans)
        signatures = [node_plan.signature for node_plan in self.plans]
        self.signatures = signatures
        self.n_nodes = len(signatures)
        self.size = signatures[0].size

        adjacency = block_diagonal(
            [signature.adjacency for signature in signatures]
        )
        self.adjacency = adjacency
        self.data = adjacency.data            # mutated every epoch

        nnz_counts = [signature.adjacency.nnz
                      for signature in signatures]
        data_offsets = np.concatenate(
            ([0], np.cumsum(nnz_counts))
        )[:-1]
        row_offsets = self.size * np.arange(self.n_nodes)

        def concat(parts: List[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(
                0, dtype=np.int64
            )

        self.base_data = concat(
            [signature.base_data for signature in signatures]
        )
        self.nnz_rc = concat([
            signature.nnz_rc + offset
            for signature, offset in zip(signatures, data_offsets)
        ])
        nnz_cr = concat([
            np.where(signature.cr_valid,
                     signature.nnz_cr + offset, -1)
            for signature, offset in zip(signatures, data_offsets)
        ])
        self.cr_valid = nnz_cr >= 0
        self.all_cr_valid = bool(self.cr_valid.all())
        self.nnz_cr = np.where(self.cr_valid, nnz_cr, 0)
        self.edge_counts = [len(signature.nnz_rc)
                            for signature in signatures]

        self.x_stack = np.stack(
            [signature.x_sub for signature in signatures]
        )
        self.masked_x = np.empty_like(self.x_stack)
        self.upstream = np.zeros(len(self.base_data))

        # Per-GCN-ordinal backward restriction, concatenated across
        # the batch: gather coordinates plus the block-diagonal
        # live-row transpose slices and their data-refresh gathers.
        flat = self.n_nodes * self.size
        self.t_blocks: List[CSRMatrix] = []
        self.t_perms: List[np.ndarray] = []
        self.gather_idx: List[np.ndarray] = []
        self.gather_rows: List[np.ndarray] = []
        self.gather_cols: List[np.ndarray] = []
        self.gather_a: List[np.ndarray] = []
        self.gather_b: List[np.ndarray] = []
        self.fwd_out: List[np.ndarray] = []
        self.bwd_spmm: List[np.ndarray] = []
        self.bwd_grad: List[np.ndarray] = []
        gcn_widths = [(layer[1].shape[0], layer[1].shape[1])
                      for layer in plan if layer[0] == "gcn"]
        for ordinal, (w_in, w_out) in enumerate(gcn_widths):
            t_block = block_diagonal(
                [node_plan.t_struct[ordinal]
                 for node_plan in self.plans]
            )
            self.t_blocks.append(t_block)
            self.t_perms.append(concat([
                node_plan.t_perm[ordinal] + offset
                for node_plan, offset in zip(self.plans, data_offsets)
            ]))
            idx = concat([
                node_plan.gather_idx[ordinal] + offset
                for node_plan, offset in zip(self.plans, data_offsets)
            ])
            self.gather_idx.append(idx)
            self.gather_rows.append(concat([
                node_plan.gather_rows[ordinal] + offset
                for node_plan, offset in zip(self.plans, row_offsets)
            ]))
            self.gather_cols.append(concat([
                node_plan.gather_cols[ordinal] + offset
                for node_plan, offset in zip(self.plans, row_offsets)
            ]))
            self.gather_a.append(np.empty((len(idx), w_out)))
            self.gather_b.append(np.empty((len(idx), w_out)))
            self.fwd_out.append(np.empty((flat, w_out)))
            self.bwd_spmm.append(np.empty((flat, w_out)))
            self.bwd_grad.append(
                np.empty((self.n_nodes, self.size, w_in))
            )

        # Dense activation buffers, sized off the plan's widths.
        shape = (self.n_nodes, self.size)
        self.xw_buffers: List[Optional[np.ndarray]] = []
        self.relu_buffers: List[Optional[np.ndarray]] = []
        width = n_features
        for layer in plan:
            if layer[0] == "gcn":
                width = layer[1].shape[1]
                self.xw_buffers.append(np.empty(shape + (width,)))
                self.relu_buffers.append(None)
            elif layer[0] == "relu":
                self.xw_buffers.append(None)
                self.relu_buffers.append(
                    np.empty(shape + (width,), dtype=bool)
                )
            else:
                self.xw_buffers.append(None)
                self.relu_buffers.append(None)


def _optimize_masks(
    plan: Sequence[tuple],
    config: ExplainerConfig,
    scratch: _ExplainScratch,
    target_positions: np.ndarray,
    predicted: np.ndarray,
    edge_logits: np.ndarray,
    feature_logits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the batched mask optimization; returns the final masks.

    ``edge_logits`` is the concatenation of the K nodes' edge-mask
    logits, ``feature_logits`` is ``(K, F)``.  Every numpy op below is
    either elementwise, a per-slice matmul, or a per-row sparse
    product, so the K=1 path IS the serial reference computation.
    """
    batch, size = scratch.n_nodes, scratch.size
    flat = batch * size
    n_classes = [layer[1].shape[1]
                 for layer in plan if layer[0] == "gcn"][-1]
    grad_out = np.zeros((batch, size, n_classes))
    grad_out[np.arange(batch), target_positions, predicted] = -1.0

    # Adam steps the logits in place: each Parameter wraps the array
    # itself, and its ``grad`` is pointed at the step's gradient.
    edge_parameter = Parameter(edge_logits)
    feature_parameter = Parameter(feature_logits)
    optimizer = Adam([edge_parameter, feature_parameter], lr=config.lr)

    adjacency = scratch.adjacency
    base_data = scratch.base_data
    nnz_rc, nnz_cr = scratch.nnz_rc, scratch.nnz_cr

    for _ in range(config.epochs):
        edge_mask = _sigmoid(edge_logits)
        feature_mask = _sigmoid(feature_logits)

        # Masked adjacency: rewrite only the stored edge entries (the
        # diagonal keeps its base value — the node always sees itself).
        scratch.data[nnz_rc] = base_data[nnz_rc] * edge_mask
        if scratch.all_cr_valid:
            scratch.data[nnz_cr] = base_data[nnz_cr] * edge_mask
        else:
            valid = scratch.cr_valid
            scratch.data[nnz_cr[valid]] = (
                base_data[nnz_cr[valid]] * edge_mask[valid]
            )
        np.multiply(scratch.x_stack, feature_mask[:, None, :],
                    out=scratch.masked_x)

        # Forward over the block-diagonal subgraph batch.
        h = scratch.masked_x
        caches: List[tuple] = []
        ordinal = 0
        for position, layer in enumerate(plan):
            kind = layer[0]
            if kind == "gcn":
                _, weight, bias = layer
                xw = scratch.xw_buffers[position]
                np.matmul(h, weight, out=xw)
                width = weight.shape[1]
                out2 = scratch.fwd_out[ordinal]
                _spmm_into(adjacency, xw.reshape(flat, width), out2)
                out = out2.reshape(batch, size, width)
                if bias is not None:
                    out += bias
                caches.append(("gcn", xw, ordinal))
                ordinal += 1
                h = out
            elif kind == "relu":
                mask = scratch.relu_buffers[position]
                np.greater(h, 0.0, out=mask)
                caches.append(("relu", mask))
                np.multiply(h, mask, out=h)
            elif kind == "identity":
                caches.append(("identity",))
            elif kind == "logsoftmax":
                shifted = h - h.max(axis=2, keepdims=True)
                out = shifted - np.log(
                    np.exp(shifted).sum(axis=2, keepdims=True)
                )
                caches.append(("logsoftmax", out))
                h = out

        # Backward: NLL of the model's own prediction at each target.
        # The gradient is exactly zero outside the target's shrinking
        # hop ball, so gathers and sparse products run only over each
        # layer's live coordinates (see _NodePlan).
        grad = grad_out
        scratch.upstream[:] = 0.0
        for layer, cache in zip(reversed(plan), reversed(caches)):
            kind = layer[0]
            if kind == "gcn":
                _, weight, _ = layer
                xw, ordinal = cache[1], cache[2]
                width = weight.shape[1]
                # dLoss/dA at live stored entries only:  G (HW)^T
                # gathered over the layer's live nnz coordinates.
                grad_rows = scratch.gather_a[ordinal]
                xw_cols = scratch.gather_b[ordinal]
                g2 = grad.reshape(flat, width)
                np.take(g2, scratch.gather_rows[ordinal],
                        axis=0, out=grad_rows)
                np.take(xw.reshape(flat, width),
                        scratch.gather_cols[ordinal],
                        axis=0, out=xw_cols)
                np.multiply(grad_rows, xw_cols, out=grad_rows)
                scratch.upstream[scratch.gather_idx[ordinal]] += (
                    grad_rows.sum(axis=1)
                )
                t_block = scratch.t_blocks[ordinal]
                np.take(scratch.data, scratch.t_perms[ordinal],
                        out=t_block.data)
                spmm_out = scratch.bwd_spmm[ordinal]
                _spmm_into(t_block, g2, spmm_out)
                grad = scratch.bwd_grad[ordinal]
                np.matmul(spmm_out.reshape(batch, size, width),
                          weight.T, out=grad)
            elif kind == "relu":
                np.multiply(grad, cache[1], out=grad)
            elif kind == "identity":
                pass
            elif kind == "logsoftmax":
                softmax = np.exp(cache[1])
                grad = grad - softmax * grad.sum(axis=2, keepdims=True)

        # Chain rule into the mask logits.
        if scratch.all_cr_valid:
            upstream_edges = (
                scratch.upstream[nnz_rc] * base_data[nnz_rc]
                + scratch.upstream[nnz_cr] * base_data[nnz_cr]
            )
        else:
            upstream_edges = (
                scratch.upstream[nnz_rc] * base_data[nnz_rc]
            )
            valid = scratch.cr_valid
            upstream_edges[valid] += (
                scratch.upstream[nnz_cr[valid]]
                * base_data[nnz_cr[valid]]
            )
        grad_edge = upstream_edges * edge_mask * (1.0 - edge_mask)
        grad_feature = (
            (grad * scratch.x_stack).sum(axis=1)
            * feature_mask * (1.0 - feature_mask)
        )

        # Regularizers: size (L1 of mask) + entropy.
        grad_edge += config.edge_size_weight * edge_mask * (
            1.0 - edge_mask
        )
        grad_feature += config.feature_size_weight * feature_mask * (
            1.0 - feature_mask
        )
        entropy_grad_edge = -np.log(
            np.clip(edge_mask / np.clip(1 - edge_mask, 1e-9, None),
                    1e-9, 1e9)
        )
        grad_edge += (
            config.edge_entropy_weight
            * entropy_grad_edge * edge_mask * (1 - edge_mask)
        )
        entropy_grad_feature = -np.log(
            np.clip(feature_mask / np.clip(1 - feature_mask, 1e-9,
                                           None), 1e-9, 1e9)
        )
        grad_feature += (
            config.feature_entropy_weight
            * entropy_grad_feature * feature_mask * (1 - feature_mask)
        )

        edge_parameter.grad = grad_edge
        feature_parameter.grad = grad_feature
        optimizer.step()

    return _sigmoid(edge_logits), _sigmoid(feature_logits)


class GNNExplainer:
    """Post-hoc explainer for a fitted :class:`GCNClassifier`."""

    def __init__(self, classifier: GCNClassifier, data: GraphData,
                 config: Optional[ExplainerConfig] = None,
                 seed: SeedLike = 0,
                 batch_size: int = DEFAULT_BATCH_SIZE):
        if classifier.model is None:
            raise ModelError("explain requires a fitted classifier")
        if batch_size < 1:
            raise ModelError(f"batch size {batch_size} must be >= 1")
        self.classifier = classifier
        self.data = data
        self.config = config or ExplainerConfig()
        self.seed = seed
        self.batch_size = batch_size
        self._plan = functional_plan(classifier.model)
        self._n_hops = sum(1 for layer in self._plan
                           if layer[0] == "gcn")
        # Stage-constant products, computed once per explainer: the
        # propagation matrix, the undirected BFS structure, and (on
        # first use) the full-graph prediction every explanation reads
        # its target class from.
        self._a_norm = data.a_norm(
            classifier.adjacency_mode, classifier.self_loops
        )
        self._indptr, self._indices = undirected_csr(
            data.edge_index, data.n_nodes
        )
        self._log_probs: Optional[np.ndarray] = None
        self._subgraphs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._signatures: Dict[tuple, _SubgraphSignature] = {}
        self._node_plans: Dict[int, _NodePlan] = {}

    # ------------------------------------------------------------------
    # cached stage products
    # ------------------------------------------------------------------
    def log_probs(self) -> np.ndarray:
        """The classifier's full-graph log-probabilities, computed once
        per explainer (the seed engine re-ran this forward pass for
        every single ``explain()`` call just to read one row)."""
        if self._log_probs is None:
            self._log_probs = self.classifier.log_probs()
        return self._log_probs

    def _subgraph_levels(
        self, node_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(nodes, hop levels)`` of the L-hop ball."""
        cached = self._subgraphs.get(node_index)
        if cached is None:
            cached = hop_levels(
                self._indptr, self._indices, node_index, self._n_hops
            )
            self._subgraphs[node_index] = cached
        return cached

    def _signature(self, nodes: np.ndarray) -> _SubgraphSignature:
        key = tuple(int(node) for node in nodes)
        signature = self._signatures.get(key)
        if signature is None:
            signature = _SubgraphSignature(
                self._a_norm, self.data.x, nodes
            )
            self._signatures[key] = signature
        return signature

    def _node_plan(self, node_index: int) -> _NodePlan:
        node_plan = self._node_plans.get(node_index)
        if node_plan is None:
            nodes, levels = self._subgraph_levels(node_index)
            node_plan = _NodePlan(
                node_index, self._signature(nodes), levels,
                self._n_hops,
            )
            self._node_plans[node_index] = node_plan
        return node_plan

    def _resolve(self, node: "str | int") -> int:
        node_index = (
            self.data.node_index(node) if isinstance(node, str)
            else int(node)
        )
        if not 0 <= node_index < self.data.n_nodes:
            raise ModelError(f"node index {node_index} out of range")
        return node_index

    # ------------------------------------------------------------------
    # explanation entry points
    # ------------------------------------------------------------------
    def explain(self, node: "str | int") -> Explanation:
        """Learn masks for one node and return its explanation."""
        return self._explain_batch([self._resolve(node)])[0]

    def explain_many(self, nodes: Sequence["str | int"],
                     jobs: int = 1,
                     batch_size: Optional[int] = None,
                     ) -> List[Explanation]:
        """Explain a batch of nodes.

        ``batch_size`` caps how many equal-width subgraphs share one
        block-diagonal optimization (default: the explainer's);
        ``jobs`` fans batches out over a persistent supervised pool of
        fork workers (0 = all cores).  The pool re-runs the batch of a
        worker that died (per-node RNG derivation keeps the result
        identical); a batch that keeps killing its hosts raises a
        typed :class:`~repro.utils.errors.ModelError` naming the nodes
        instead of a bare ``BrokenProcessPool``.  Results are bitwise
        identical for every configuration.
        """
        if batch_size is None:
            batch_size = self.batch_size
        if batch_size < 1:
            raise ModelError(f"batch size {batch_size} must be >= 1")
        indices = [self._resolve(node) for node in nodes]
        if not indices:
            return []

        # Group request positions by subgraph width so each batch
        # stacks into regular (K, S, *) arrays; grouping is a pure
        # function of the request, never of jobs.
        by_size: Dict[int, List[int]] = {}
        for position, node_index in enumerate(indices):
            size = len(self._subgraph_levels(node_index)[0])
            by_size.setdefault(size, []).append(position)
        batches: List[List[int]] = []
        for size in sorted(by_size):
            positions = by_size[size]
            for start in range(0, len(positions), batch_size):
                batches.append(positions[start:start + batch_size])

        units = [[indices[position] for position in batch]
                 for batch in batches]

        # Every cached stage product (the full-graph prediction, the
        # subgraph signatures and the per-node backward plans) is
        # built here, before a pool forks, so workers inherit the
        # whole cache copy-on-write and spend their time purely in
        # mask optimization.
        self.log_probs()
        for unit in units:
            for node_index in unit:
                self._node_plan(node_index)

        # Workers inherit the bound method through the fork; nothing
        # pickles it.
        outcomes = map_supervised(
            self._explain_batch, units, jobs,
            lambda unit: "explanation batch [{}]".format(", ".join(
                self.data.node_names[index] for index in unit)),
            size=lambda unit: len(unit) * len(
                self._subgraph_levels(unit[0])[0]),
        )

        results: List[Optional[Explanation]] = [None] * len(indices)
        for batch, outcome in zip(batches, outcomes):
            for position, explanation in zip(batch, outcome):
                results[position] = explanation
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # batch engine
    # ------------------------------------------------------------------
    def _explain_batch(self, node_indices: List[int]
                       ) -> List[Explanation]:
        """Explain K same-width nodes in one block-diagonal batch."""
        data = self.data
        log_probs = self.log_probs()
        node_plans = []
        signatures = []
        target_positions = np.empty(len(node_indices), dtype=np.int64)
        predicted = np.empty(len(node_indices), dtype=np.int64)
        edge_logit_parts = []
        for slot, node_index in enumerate(node_indices):
            node_plan = self._node_plan(node_index)
            node_plans.append(node_plan)
            signature = node_plan.signature
            signatures.append(signature)
            target_positions[slot] = node_plan.target_position
            predicted[slot] = int(log_probs[node_index].argmax())
            rng = derive_rng(self.seed, "gnn-explainer",
                             str(node_index))
            edge_logit_parts.append(rng.normal(
                loc=2.0, scale=0.1, size=len(signature.nnz_rc)
            ))

        scratch = _ExplainScratch(node_plans, self._plan,
                                  data.n_features)
        edge_logits = (
            np.concatenate(edge_logit_parts) if edge_logit_parts
            else np.zeros(0)
        )
        feature_logits = np.zeros(
            (len(node_indices), data.n_features)
        )
        edge_masks, feature_masks = _optimize_masks(
            self._plan, self.config, scratch, target_positions,
            predicted, edge_logits, feature_logits,
        )

        explanations = []
        edge_offset = 0
        for slot, node_index in enumerate(node_indices):
            signature = signatures[slot]
            count = scratch.edge_counts[slot]
            edge_mask = edge_masks[edge_offset:edge_offset + count]
            edge_offset += count
            feature_mask = feature_masks[slot]
            mean = feature_mask.mean()
            scores = feature_mask / mean if mean > 0 else feature_mask
            edges = [
                (int(signature.nodes[r]), int(signature.nodes[c]),
                 float(w))
                for r, c, w in zip(signature.edge_rows,
                                   signature.edge_cols, edge_mask)
            ]
            explanations.append(Explanation(
                node_name=data.node_names[node_index],
                node_index=node_index,
                predicted_class=int(predicted[slot]),
                feature_names=list(data.feature_names),
                feature_scores=scores,
                subgraph_nodes=[int(n) for n in signature.nodes],
                edge_importance=edges,
            ))
        return explanations
