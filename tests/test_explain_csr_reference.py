"""The explainer's CSR arrays against the frozen scipy constructions.

``tests/_reference_explain`` builds the explainer's sparse structure
with scipy: the undirected BFS structure (``undirected_csr``), each
subgraph signature's slice ``a_norm[nodes][:, nodes]`` (duplicates
summed, zeros dropped, indices sorted), each node plan's transpose
slices, and each batch's block diagonals (``sp.block_diag``).  The
live explainer builds them in numpy (``repro.graph.adjacency``).  The
masks it learns read every array's values in stored order, so
``data``, ``indices`` and ``indptr`` must match byte for byte, dtypes
included: on every built-in design in every adjacency mode, and on
hypothesis graphs with isolated nodes, self-edges and duplicate edges.
Every slice stores each entry's reverse, so the frozen explainer's
one-way-pair path (``cr_valid``) never runs, and the live one raises
instead of keeping such a path.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_design
from repro.circuits.grid import build_fsm_grid
from repro.explain import gnn_explainer as live
from repro.graph.adjacency import (
    CSRMatrix,
    csr_from_coo,
    normalized_adjacency,
)
from repro.graph.build import netlist_edges
from repro.utils.errors import ModelError

from tests._reference_explain import ref_gnn_explainer as ref

MODES = [(mode, self_loops) for mode in ("symmetric", "row")
         for self_loops in (True, False)]

#: Signature arrays besides the slice itself.
SIGNATURE_ARRAYS = ("base_data", "coo_rows", "coo_cols", "edge_rows",
                    "edge_cols", "nnz_rc", "nnz_cr", "used_mask")

N_FEATURES = 3


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return (left.dtype == right.dtype and left.shape == right.shape
            and left.tobytes() == right.tobytes())


def _assert_same_csr(ours, reference) -> None:
    assert isinstance(ours, CSRMatrix)
    assert ours.shape == reference.shape
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(ours, name), getattr(reference, name)), \
            name


def _plan(hops: int) -> list:
    """A functional plan with ``hops`` GCN layers: the scratch reads
    only their count and weight shapes."""
    widths = [N_FEATURES] + [4] * hops
    plan = []
    for w_in, w_out in zip(widths, widths[1:]):
        plan += [("gcn", np.zeros((w_in, w_out)), None), ("relu",)]
    return plan


def _assert_explainer_csr_matches(edges: np.ndarray, n_nodes: int,
                                  mode: str, self_loops: bool,
                                  sample, hops: int) -> None:
    a_norm = normalized_adjacency(edges, n_nodes, mode, self_loops)
    scipy_a_norm = a_norm.tocsr()
    x = np.arange(n_nodes * N_FEATURES, dtype=np.float64).reshape(
        n_nodes, N_FEATURES)

    structure = live.undirected_csr(edges, n_nodes)
    for mine, theirs in zip(structure, ref.undirected_csr(edges, n_nodes)):
        assert _same_bits(mine, theirs)

    by_size = defaultdict(list)
    for node in sample:
        nodes, levels = live.hop_levels(*structure, node, hops)
        signature = live._SubgraphSignature(a_norm, x, nodes)
        reference = ref._SubgraphSignature(scipy_a_norm, x, nodes)
        assert reference.cr_valid.all()
        _assert_same_csr(signature.adjacency, reference.adjacency)
        for name in SIGNATURE_ARRAYS:
            assert _same_bits(getattr(signature, name),
                              getattr(reference, name)), name

        plan = live._NodePlan(node, signature, levels, hops)
        ref_plan = ref._NodePlan(node, reference, levels, hops)
        for mine, theirs in zip(plan.t_struct, ref_plan.t_struct):
            _assert_same_csr(mine, theirs)
        for mine, theirs in zip(plan.t_perm, ref_plan.t_perm):
            assert _same_bits(mine, theirs)
        by_size[len(nodes)].append((plan, ref_plan))

    functional = _plan(hops)
    for pairs in by_size.values():
        scratch = live._ExplainScratch(
            [plan for plan, _ in pairs], functional, N_FEATURES)
        ref_scratch = ref._ExplainScratch(
            [ref_plan for _, ref_plan in pairs], functional, N_FEATURES)
        _assert_same_csr(scratch.adjacency, ref_scratch.adjacency)
        assert len(scratch.t_blocks) == len(ref_scratch.t_blocks) == hops
        for mine, theirs in zip(scratch.t_blocks, ref_scratch.t_blocks):
            _assert_same_csr(mine, theirs)
        for mine, theirs in zip(scratch.t_perms, ref_scratch.t_perms):
            assert _same_bits(mine, theirs)


@pytest.fixture(scope="module", params=[
    "sdram", "or1200_if", "or1200_icfsm", "uart", "grid_2x3",
])
def graph(request):
    netlist = (build_fsm_grid(2, 3) if request.param == "grid_2x3"
               else build_design(request.param))
    return netlist_edges(netlist), netlist.n_gates


@pytest.mark.parametrize("mode,self_loops", MODES)
def test_designs_match_frozen_scipy_constructions(graph, mode, self_loops):
    """Four hops, the Table 1 stack's depth; about a dozen targets per
    design, so the batches hold one to several blocks."""
    edges, n_nodes = graph
    sample = range(0, n_nodes, max(1, n_nodes // 12))
    _assert_explainer_csr_matches(edges, n_nodes, mode, self_loops,
                                  sample, hops=4)


edge_lists = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                      min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(12, 16), st.sampled_from(MODES),
       st.integers(1, 3), st.data())
def test_random_graphs_match_frozen_scipy_constructions(
        edge_list, n_nodes, mode, hops, data):
    """Nodes 12 and up never appear in an edge (isolated); the lists
    may repeat an edge, hold both directions or loop on a node.  Every
    node is a target."""
    if edge_list:
        repeat = data.draw(st.sampled_from(edge_list))
        loop = data.draw(st.integers(0, 11))
        edge_list = edge_list + [repeat, (loop, loop)]
    edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2).T
    _assert_explainer_csr_matches(edges, n_nodes, *mode,
                                  range(n_nodes), hops)


@pytest.mark.parametrize("row, col", [(0, 2), (2, 0)])
def test_one_way_entry_is_a_model_error(row, col):
    """A slice storing ``(row, col)`` without ``(col, row)`` cannot
    be masked one edge at a time in both directions."""
    one_way = csr_from_coo(np.array([0, 1, 2, row]),
                           np.array([0, 1, 2, col]), np.ones(4), (3, 3))
    with pytest.raises(ModelError, match=rf"entry \({row}, {col}\) has no "
                                         r"stored reverse"):
        live._SubgraphSignature(one_way, np.zeros((3, N_FEATURES)),
                                np.arange(3))
