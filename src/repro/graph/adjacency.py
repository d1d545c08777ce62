"""Adjacency-matrix construction and normalization (Eq. 1/2).

The paper's GCN layer propagates through the normalized adjacency
``A* = D^-1/2 (A + I) D^-1/2`` (symmetric normalization with
self-loops); row normalization ``D^-1 (A + I)`` is provided for the
ablation benchmark.

The matrices are :class:`CSRMatrix` objects built in numpy, so
inference needs no scipy.  Their arrays are byte for byte what the
scipy construction (``coo + coo.T``, ``diags @ A [@ diags]``) left,
and their products are bitwise equal to scipy's.  This module owns the
CSR layout: the explainer's subgraph slices, transpose slices and
block diagonals are built here too (:func:`submatrix`,
:func:`csr_from_coo`, :func:`block_diagonal`), byte for byte what
scipy's indexing, coo conversion and ``block_diag`` left.  The training
engine and the explainer run scipy's compiled kernels on these arrays,
loaded by :func:`sparse_kernels` without the ``scipy.sparse`` package;
only ``tocsr()`` builds a scipy matrix.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.arrays import sorted_unique
from repro.utils.errors import ModelError

#: The compiled extension that holds scipy's sparse kernels.
_KERNELS = "scipy.sparse._sparsetools"


def _load_kernels(directories: Sequence[str]) -> ModuleType:
    """:data:`_KERNELS` from its binary in the first of ``directories``
    that holds one, else imported through its package."""
    module = sys.modules.get(_KERNELS)
    if module is not None:
        return module
    for directory in directories:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "_sparsetools" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(_KERNELS, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(
                    _KERNELS, path, loader=loader)
            )
            loader.exec_module(module)
            sys.modules[_KERNELS] = module
            return module
    return importlib.import_module(_KERNELS)


@functools.cache
def sparse_kernels() -> ModuleType:
    """scipy's compiled sparse kernels (``csr_matvecs``, ``csc_matvecs``).

    ``import scipy.sparse`` would run the package and its ~75 modules,
    with the ``numpy.f2py`` and ``numpy.testing`` they pull in, for two
    C functions.  The extension is loaded alone instead, from scipy's
    installed ``sparse/`` directory and under its own name, so it is the
    binary scipy's ``@`` runs, and a later ``import scipy.sparse`` finds
    it in ``sys.modules`` and keeps it (``from scipy.sparse import
    _sparsetools`` returns it; the package attribute stays unset).
    Where scipy keeps no such file, it is imported through the package.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    return _load_kernels([os.path.join(root, "sparse")
                          for root in roots or ()])


def _index_dtype(*sizes: int) -> type:
    """scipy's index dtype: int32 unless a size needs more."""
    return np.int32 if max(sizes, default=0) <= np.iinfo(np.int32).max \
        else np.int64


class CSRMatrix:
    """A compressed-sparse-row matrix with scipy's product semantics.

    ``A @ x`` adds each output row's terms ``data[k] * x[indices[k]]``
    to ``0.0`` in stored order, which is how scipy's ``csr_matvec(s)``
    accumulate, so the products are bitwise equal; ``A.T`` is the
    transpose laid out in the order ``csc_matvecs`` visits it (source
    rows ascending).  1-D and 2-D operands are accepted.  The arrays
    are shared, not copied: treat them as read-only.
    """

    format = "csr"

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, shape: Tuple[int, int]):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._transpose = None
        self._plan = None

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype),
                         np.diff(self.indptr))

    @property
    def T(self) -> "CSRMatrix":
        """The transpose (built once, then cached both ways)."""
        if self._transpose is None:
            # A stable sort by column keeps each column's entries in
            # row order: the order csc_matvecs adds them in.
            order = np.argsort(self.indices, kind="stable")
            indptr = np.zeros(self.shape[1] + 1, dtype=self.indptr.dtype)
            np.cumsum(np.bincount(self.indices, minlength=self.shape[1]),
                      out=indptr[1:])
            transpose = CSRMatrix(self.data[order], self._rows()[order],
                                  indptr, self.shape[::-1])
            transpose._transpose = self
            self._transpose = transpose
        return self._transpose

    def _product_plan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      List[tuple]]:
        """``(rank, columns, values, blocks)``, built once.

        The rows are ordered longest first; ``rank`` maps each row to
        its place in that order.  ``columns`` and ``values`` hold every
        row's first term, then every row's second, and so on, the rows
        in that order within each position, so position ``k`` adds one
        contiguous run of terms to the first ``counts[k]`` ordered
        rows.  ``blocks`` groups consecutive positions as ``(start,
        stop, counts)`` with at most as many terms as the output has
        nonempty rows: one block's terms are gathered at a time, so a
        product never holds more than an output's worth of them.
        """
        if self._plan is None:
            order = np.argsort(-np.diff(self.indptr), kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            rows = self._rows()
            position = np.arange(self.nnz) - self.indptr[rows]
            entries = np.lexsort((rank[rows], position))
            counts = np.bincount(position).tolist()
            blocks, start, size, block = [], 0, 0, []
            for count in counts:
                if block and size + count > counts[0]:
                    blocks.append((start, start + size, block))
                    start, size, block = start + size, 0, []
                block.append(count)
                size += count
            if block:
                blocks.append((start, start + size, block))
            self._plan = (rank, self.indices[entries], self.data[entries],
                          blocks)
        return self._plan

    def __matmul__(self, other) -> np.ndarray:
        x = np.asarray(other)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(
                f"matmul: dimension mismatch {self.shape} @ {x.shape}"
            )
        rank, columns, values, blocks = self._product_plan()
        dtype = np.result_type(self.data, x)
        ordered = np.zeros((self.shape[0],) + x.shape[1:], dtype=dtype)
        for start, stop, counts in blocks:
            terms = x[columns[start:stop]].astype(dtype, copy=False)
            terms *= (values[start:stop] if x.ndim == 1
                      else values[start:stop, None])
            offset = 0
            for count in counts:
                ordered[:count] += terms[offset:offset + count]
                offset += count
        return ordered[rank]

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        dense = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(dense, (self._rows(), self.indices), self.data)
        return dense

    def tocsr(self):
        """A ``scipy.sparse.csr_matrix`` over copies of the arrays.

        The one place ``repro`` imports the ``scipy.sparse`` package;
        nothing in the pipeline calls it (tests and
        ``benchmarks/bench_training.py`` do).
        """
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )


def csr_from_coo(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 shape: Tuple[int, int]) -> CSRMatrix:
    """The CSR matrix of distinct ``(row, col)`` entries, each row's
    columns ascending: scipy's ``csr_matrix((data, (rows, cols)))``
    after ``sort_indices()``, for coordinates without duplicates."""
    index_dtype = _index_dtype(*shape, len(rows))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRMatrix(data[order], cols[order].astype(index_dtype),
                     indptr, shape)


def submatrix(matrix: CSRMatrix, nodes: np.ndarray) -> CSRMatrix:
    """Rows and columns ``nodes`` of a matrix without duplicate entries.

    Byte for byte scipy's ``matrix[nodes][:, nodes]`` after
    ``sum_duplicates()``, ``eliminate_zeros()`` and ``sort_indices()``:
    entry ``(i, j)`` is ``matrix[nodes[i], nodes[j]]``, stored zeros are
    dropped and each row's columns ascend.  ``nodes`` are distinct.
    """
    position = np.full(matrix.shape[1], -1, dtype=np.int64)
    position[nodes] = np.arange(len(nodes))
    starts = matrix.indptr[nodes].astype(np.int64)
    counts = matrix.indptr[nodes + 1] - starts
    # The stored positions of the chosen rows, one row after another.
    entries = (np.repeat(starts - (np.cumsum(counts) - counts), counts)
               + np.arange(counts.sum()))
    rows = np.repeat(np.arange(len(nodes)), counts)
    cols = position[matrix.indices[entries]]
    data = matrix.data[entries]
    keep = (cols >= 0) & (data != 0)
    return csr_from_coo(rows[keep], cols[keep], data[keep],
                        (len(nodes), len(nodes)))


def block_diagonal(blocks: Sequence[CSRMatrix]) -> CSRMatrix:
    """``blocks`` along the diagonal, over fresh arrays.

    Byte for byte scipy's ``block_diag(blocks, format="csr")`` after
    ``sort_indices()`` when each block's rows store their columns
    ascending, as :func:`csr_from_coo` and :func:`submatrix` leave them.
    """
    n_rows = sum(block.shape[0] for block in blocks)
    n_cols = sum(block.shape[1] for block in blocks)
    nnz = sum(block.nnz for block in blocks)
    index_dtype = _index_dtype(n_rows, n_cols, nnz)
    indices, indptr = [], [np.zeros(1, dtype=index_dtype)]
    col_offset = nnz_offset = 0
    for block in blocks:
        indices.append(block.indices.astype(index_dtype) + col_offset)
        indptr.append(block.indptr[1:].astype(index_dtype) + nnz_offset)
        col_offset += block.shape[1]
        nnz_offset += block.nnz
    return CSRMatrix(np.concatenate([block.data for block in blocks]),
                     np.concatenate(indices), np.concatenate(indptr),
                     (n_rows, n_cols))


def _canonical(rows: np.ndarray, cols: np.ndarray,
               n_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(row, col)`` pairs, sorted by row, then column."""
    keys = sorted_unique(rows.astype(np.int64) * n_nodes + cols)
    return keys // n_nodes, keys % n_nodes


def _binary(rows: np.ndarray, cols: np.ndarray,
            n_nodes: int) -> CSRMatrix:
    """The 0/1 matrix of canonical pairs (at most one per cell)."""
    return csr_from_coo(rows, cols, np.ones(len(rows)),
                        (n_nodes, n_nodes))


def adjacency_matrix(edge_index: np.ndarray, n_nodes: int,
                     undirected: bool = True) -> CSRMatrix:
    """Binary sparse adjacency from a ``(2, E)`` edge list."""
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ModelError("edge_index must have shape (2, E)")
    rows, cols = edge_index
    if len(rows) and (rows.max() >= n_nodes or cols.max() >= n_nodes):
        raise ModelError("edge index exceeds node count")
    if undirected:
        rows, cols = (np.concatenate([rows, cols]),
                      np.concatenate([cols, rows]))
    # Duplicates collapse to one binary entry.
    return _binary(*_canonical(rows, cols, n_nodes), n_nodes)


def normalized_adjacency(
    edge_index: np.ndarray,
    n_nodes: int,
    mode: str = "symmetric",
    self_loops: bool = True,
) -> CSRMatrix:
    """The propagation matrix ``A*`` of Eq. 2.

    Args:
        edge_index: ``(2, E)`` gate-to-gate edges.
        n_nodes: Number of graph nodes.
        mode: ``"symmetric"`` for ``D^-1/2 Â D^-1/2`` (the paper's
            choice) or ``"row"`` for ``D^-1 Â``.
        self_loops: Add the identity to ``A`` before normalizing.

    Symmetric rows store their columns ascending, row-normalized ones
    descending: the orders scipy's ``diags @ A @ diags`` and
    ``diags @ A`` products leave, which the stored-order sums of every
    product follow.
    """
    if mode not in ("symmetric", "row"):
        raise ModelError(f"unknown normalization mode {mode!r}")
    adjacency = adjacency_matrix(edge_index, n_nodes)
    rows = adjacency._rows().astype(np.int64)
    cols = adjacency.indices.astype(np.int64)
    if self_loops:
        diagonal = np.arange(n_nodes, dtype=np.int64)
        rows, cols = _canonical(np.concatenate([rows, diagonal]),
                                np.concatenate([cols, diagonal]), n_nodes)
        adjacency = _binary(rows, cols, n_nodes)

    degree = np.diff(adjacency.indptr).astype(np.float64)
    degree[degree == 0.0] = 1.0  # isolated nodes keep zero rows finite

    if mode == "symmetric":
        inv_sqrt = 1.0 / np.sqrt(degree)
        adjacency.data = inv_sqrt[rows] * inv_sqrt[cols]
        return adjacency
    # Reverse each row's columns: the entry ``k`` places into its row
    # takes the column ``k`` places from the row's end.
    offset = np.arange(adjacency.nnz) - adjacency.indptr[rows]
    adjacency.indices = adjacency.indices[
        adjacency.indptr[rows + 1] - 1 - offset
    ]
    adjacency.data = (1.0 / degree)[rows]
    return adjacency
