"""The numpy propagation matrix against the frozen scipy construction.

``tests/_reference_graph`` holds the scipy ``normalized_adjacency``
the numpy one replaced.  Its CSR arrays are the contract: the training
engine runs scipy's kernels on them and the explainer converts them
with ``tocsr()``, so ``data``, ``indices`` and ``indptr`` must match
byte for byte, dtypes included, on every built-in design, a generated
grid and hypothesis edge lists with isolated nodes, self-edges and
duplicate edges.  Every product is ``CSRMatrix.matmul_into``, scipy's
kernel on the matrix's own arrays, so ``A @ x``, ``A.T @ x`` and
``matmul_into(..., transpose=True)`` are compared bit for bit with
scipy's on the same arrays: for the propagation matrix, for the
explainer's slices, transpose slices and block diagonals, and for
operands scipy upcasts or reads through a copy.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_design
from repro.circuits.grid import build_fsm_grid
from repro.graph.adjacency import (
    CSRMatrix,
    adjacency_matrix,
    block_diagonal,
    csr_from_coo,
    normalized_adjacency,
    submatrix,
)
from repro.graph.build import netlist_edges

from tests._reference_graph import ref_adjacency

MODES = [(mode, self_loops) for mode in ("symmetric", "row")
         for self_loops in (True, False)]


def _assert_same_arrays(ours: CSRMatrix, reference) -> None:
    assert isinstance(ours, CSRMatrix)
    assert ours.shape == reference.shape
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(ours, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return (left.dtype == right.dtype and left.shape == right.shape
            and left.tobytes() == right.tobytes())


@pytest.fixture(scope="module", params=[
    "sdram", "or1200_if", "or1200_icfsm", "uart", "grid_2x3",
])
def graph(request):
    netlist = (build_fsm_grid(2, 3) if request.param == "grid_2x3"
               else build_design(request.param))
    return netlist_edges(netlist), netlist.n_gates


@pytest.mark.parametrize("mode,self_loops", MODES)
def test_designs_match_frozen_scipy_arrays(graph, mode, self_loops):
    edges, n_nodes = graph
    _assert_same_arrays(
        normalized_adjacency(edges, n_nodes, mode, self_loops),
        ref_adjacency.normalized_adjacency(edges, n_nodes, mode,
                                           self_loops),
    )


def test_binary_adjacency_matches_frozen_scipy_arrays(graph):
    edges, n_nodes = graph
    _assert_same_arrays(adjacency_matrix(edges, n_nodes),
                        ref_adjacency.adjacency_matrix(edges, n_nodes))


edge_lists = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                      min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(12, 16), st.sampled_from(MODES),
       st.data())
def test_random_edge_lists_match_frozen_scipy_arrays(edge_list, n_nodes,
                                                     mode, data):
    """Nodes 12 and up never appear in an edge (isolated); the lists
    may repeat an edge, hold both directions or loop on a node."""
    if edge_list:
        # Repeat a drawn edge and add a self-edge, so both occur often.
        repeat = data.draw(st.sampled_from(edge_list))
        loop = data.draw(st.integers(0, 11))
        edge_list = edge_list + [repeat, (loop, loop)]
    edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2).T
    _assert_same_arrays(
        normalized_adjacency(edges, n_nodes, *mode),
        ref_adjacency.normalized_adjacency(edges, n_nodes, *mode),
    )
    _assert_same_arrays(adjacency_matrix(edges, n_nodes),
                        ref_adjacency.adjacency_matrix(edges, n_nodes))


def _operand(n_rows: int, width, seed: int) -> np.ndarray:
    """Random values with exact and negative zeros mixed in (scipy
    adds every row to ``0.0``, which turns a lone ``-0.0`` into
    ``+0.0``)."""
    rng = np.random.default_rng(seed)
    shape = (n_rows,) if width is None else (n_rows, width)
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return values


def _assert_products_match_scipy(ours: CSRMatrix, x: np.ndarray) -> None:
    """``@``, ``.T @`` and ``matmul_into`` both ways against scipy's
    products on a copy of the same arrays, for a square ``ours``."""
    theirs = ours.tocsr()
    assert _same_bits(ours @ x, theirs @ x)
    assert _same_bits(ours.T @ x, theirs.T @ x)
    columns = x.reshape(len(x), -1)
    transposed = np.empty((ours.shape[1], columns.shape[1]))
    ours.matmul_into(columns, transposed, transpose=True)
    assert _same_bits(transposed.reshape((ours.shape[1],) + x.shape[1:]),
                      theirs.T @ x)


@pytest.mark.parametrize("width", [None, 1, 2, 16, 64])
@pytest.mark.parametrize("mode,self_loops", MODES)
def test_products_equal_scipy_bit_for_bit(graph, mode, self_loops, width):
    edges, n_nodes = graph
    ours = normalized_adjacency(edges, n_nodes, mode, self_loops)
    theirs = ours.tocsr()
    x = _operand(n_nodes, width, seed=n_nodes + (width or 0))
    assert _same_bits(ours @ x, theirs @ x)
    assert _same_bits(ours.T @ x, theirs.T @ x)


@pytest.mark.parametrize("width", [None, 1, 4])
@pytest.mark.parametrize("mode,self_loops", MODES)
def test_explainer_operands_multiply_like_scipy(graph, mode, self_loops,
                                                width):
    """The propagation matrix, subgraph slices of it, a live-row
    transpose slice of each and their block diagonal, as the explainer
    builds and multiplies them."""
    edges, n_nodes = graph
    a_norm = normalized_adjacency(edges, n_nodes, mode, self_loops)
    _assert_products_match_scipy(a_norm, _operand(n_nodes, width, seed=3))
    rng = np.random.default_rng(n_nodes + (width or 0))
    blocks = []
    for size in (1, 5, min(n_nodes, 40)):
        nodes = np.sort(rng.choice(n_nodes, size=size, replace=False))
        block = submatrix(a_norm, nodes)
        rows = block._rows().astype(np.int64)
        live = rng.random(block.nnz) < 0.6
        transpose = csr_from_coo(block.indices[live].astype(np.int64),
                                 rows[live], block.data[live],
                                 block.shape)
        for matrix in (block, transpose):
            _assert_products_match_scipy(
                matrix, _operand(size, width, seed=size))
        blocks += [block, transpose]
    diagonal = block_diagonal(blocks)
    _assert_products_match_scipy(
        diagonal, _operand(diagonal.shape[0], width, seed=7))


@pytest.mark.parametrize("width", [None, 3])
def test_rectangular_products_equal_scipy(width):
    rng = np.random.default_rng(5)
    keys = np.sort(rng.choice(7 * 11, size=30, replace=False))
    ours = csr_from_coo(keys // 11, keys % 11, rng.standard_normal(30),
                        (7, 11))
    theirs = ours.tocsr()
    x, y = _operand(11, width, seed=1), _operand(7, width, seed=2)
    assert _same_bits(ours @ x, theirs @ x)
    assert _same_bits(ours.T @ y, theirs.T @ y)
    out = np.empty((11, 1 if width is None else width))
    ours.matmul_into(y.reshape(7, -1), out, transpose=True)
    assert _same_bits(out.reshape((11,) + y.shape[1:]), theirs.T @ y)


@pytest.mark.parametrize("layout", [
    "fortran", "strided-rows", "strided-columns", "float32", "int64",
    "bool",
])
def test_operands_scipy_converts_give_its_bits(layout):
    """scipy reads a strided operand through a copy and upcasts a
    float32, integer or boolean one to float64; so does ``@``."""
    netlist = build_design("or1200_if")
    ours = normalized_adjacency(netlist_edges(netlist), netlist.n_gates)
    theirs = ours.tocsr()
    n = ours.shape[0]
    base = _operand(2 * n, 6, seed=11)
    x = {
        "fortran": np.asfortranarray(base[:n]),
        "strided-rows": base[::2],
        "strided-columns": base[:n, ::2],
        "float32": base[:n].astype(np.float32),
        "int64": np.round(10 * base[:n]).astype(np.int64),
        "bool": base[:n] > 0,
    }[layout]
    assert _same_bits(ours @ x, theirs @ x)
    assert _same_bits(ours.T @ x, theirs.T @ x)


@settings(max_examples=40, deadline=None)
@given(edge_lists, st.sampled_from(MODES), st.sampled_from([None, 1, 3]),
       st.integers(0, 2**31 - 1))
def test_random_products_equal_scipy_bit_for_bit(edge_list, mode, width,
                                                 seed):
    n_nodes = 14
    edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2).T
    ours = normalized_adjacency(edges, n_nodes, *mode)
    x = _operand(n_nodes, width, seed)
    assert _same_bits(ours @ x, ours.tocsr() @ x)
    assert _same_bits(ours.T @ x, ours.tocsr().T @ x)


def test_tocsr_and_toarray_agree_with_the_arrays():
    edges = np.array([[0, 1, 2, 2], [1, 2, 3, 3]])
    ours = normalized_adjacency(edges, 5, mode="row")
    converted = ours.tocsr()
    assert isinstance(converted, sp.csr_matrix)
    assert np.array_equal(converted.toarray(), ours.toarray())
    assert np.array_equal(ours.T.toarray(), ours.toarray().T)
    assert ours.T.T is ours
    # The scipy copy owns its arrays: editing it leaves ours intact.
    converted.data[:] = 0.0
    assert ours.data.min() > 0.0


def test_product_rejects_mismatched_operands():
    ours = normalized_adjacency(np.array([[0], [1]]), 3)
    with pytest.raises(ValueError):
        ours @ np.ones(4)
    with pytest.raises(ValueError):
        ours @ np.ones((3, 2, 2))
    with pytest.raises(ValueError):
        ours @ np.ones(3, dtype=complex)


@pytest.mark.parametrize("x, out, transpose, message", [
    (np.ones((4, 2)), np.empty((3, 2)), False, "@ \\(4, 2\\)"),
    (np.ones(3), np.empty((3, 1)), False, "@ \\(3,\\)"),
    (np.ones((3, 2)), np.empty((3, 3)), False, "into \\(3, 3\\)"),
    (np.ones((3, 2)), np.empty((2, 2)), True, "A.T of shape"),
    (np.ones((3, 2), dtype=np.float32), np.empty((3, 2)), False, "float64"),
    (np.ones((3, 2)), np.empty((3, 2), dtype=np.float32), True, "float64"),
    (np.ones((3, 2), dtype=np.int64), np.empty((3, 2)), False, "float64"),
    (np.ones((3, 2)), np.empty((2, 3)).T, False, "C-contiguous"),
    (np.ones((3, 2)), np.empty((3, 4))[:, ::2], True, "C-contiguous"),
], ids=["x-rows", "x-vector", "out-columns", "out-rows-transposed",
        "x-float32", "out-float32", "x-int", "out-fortran", "out-strided"])
def test_matmul_into_rejects_what_the_kernel_cannot_read(x, out, transpose,
                                                         message):
    """The kernel reads and writes raw buffers: a wrong shape would
    read out of bounds, and a strided ``out`` would take the result
    into a flattened copy and stay as it was."""
    ours = normalized_adjacency(np.array([[0], [1]]), 3)
    before = out.copy()
    with pytest.raises(ValueError, match=message):
        ours.matmul_into(x, out, transpose=transpose)
    assert _same_bits(out, before)


def test_matmul_into_overwrites_and_returns_out():
    ours = normalized_adjacency(np.array([[0, 1], [1, 2]]), 3)
    x = _operand(3, 2, seed=3)
    out = np.full((3, 2), np.nan)
    assert ours.matmul_into(x, out) is out
    assert _same_bits(out, ours.tocsr() @ x)
