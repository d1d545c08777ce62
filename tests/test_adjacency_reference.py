"""The numpy propagation matrix against the frozen scipy construction.

``tests/_reference_graph`` holds the scipy ``normalized_adjacency``
the numpy one replaced.  Its CSR arrays are the contract: the training
engine runs scipy's kernels on them and the explainer converts them
with ``tocsr()``, so ``data``, ``indices`` and ``indptr`` must match
byte for byte, dtypes included, on every built-in design, a generated
grid and hypothesis edge lists with isolated nodes, self-edges and
duplicate edges.  The products must add each output row's terms in
scipy's order, so ``A @ x`` and ``A.T @ x`` are compared bit for bit
with scipy's on the same arrays.
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
    normalized_adjacency,
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


@pytest.mark.parametrize("width", [None, 1, 2, 16, 64])
@pytest.mark.parametrize("mode,self_loops", MODES)
def test_products_equal_scipy_bit_for_bit(graph, mode, self_loops, width):
    edges, n_nodes = graph
    ours = normalized_adjacency(edges, n_nodes, mode, self_loops)
    theirs = ours.tocsr()
    x = _operand(n_nodes, width, seed=n_nodes + (width or 0))
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
