"""Adjacency-matrix construction and normalization (Eq. 1/2).

The paper's GCN layer propagates through the normalized adjacency
``A* = D^-1/2 (A + I) D^-1/2`` (symmetric normalization with
self-loops); row normalization ``D^-1 (A + I)`` is provided for the
ablation benchmark.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ModelError


def adjacency_matrix(edge_index: np.ndarray, n_nodes: int,
                     undirected: bool = True) -> sp.csr_matrix:
    """Binary sparse adjacency from a ``(2, E)`` edge list."""
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ModelError("edge_index must have shape (2, E)")
    rows, cols = edge_index
    if len(rows) and (rows.max() >= n_nodes or cols.max() >= n_nodes):
        raise ModelError("edge index exceeds node count")
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.coo_matrix(
        (data, (rows, cols)), shape=(n_nodes, n_nodes)
    )
    if undirected:
        matrix = matrix + matrix.T
    matrix = matrix.tocsr()
    matrix.data[:] = 1.0  # collapse duplicates to binary
    return matrix


def normalized_adjacency(
    edge_index: np.ndarray,
    n_nodes: int,
    mode: str = "symmetric",
    self_loops: bool = True,
) -> sp.csr_matrix:
    """The propagation matrix ``A*`` of Eq. 2.

    Args:
        edge_index: ``(2, E)`` gate-to-gate edges.
        n_nodes: Number of graph nodes.
        mode: ``"symmetric"`` for ``D^-1/2 Â D^-1/2`` (the paper's
            choice) or ``"row"`` for ``D^-1 Â``.
        self_loops: Add the identity to ``A`` before normalizing.
    """
    adjacency = adjacency_matrix(edge_index, n_nodes)
    if self_loops:
        adjacency = (adjacency + sp.identity(n_nodes, format="csr"))
        adjacency.data[:] = np.minimum(adjacency.data, 1.0)

    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    degree[degree == 0.0] = 1.0  # isolated nodes keep zero rows finite

    if mode == "symmetric":
        inv_sqrt = sp.diags(1.0 / np.sqrt(degree))
        return (inv_sqrt @ adjacency @ inv_sqrt).tocsr()
    if mode == "row":
        inv = sp.diags(1.0 / degree)
        return (inv @ adjacency).tocsr()
    raise ModelError(f"unknown normalization mode {mode!r}")
