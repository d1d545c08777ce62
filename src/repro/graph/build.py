"""Netlist-to-graph translation (§3.1 of the paper).

Each gate becomes a graph node (named ``{CELL}_{instance}``); each wire
from a driving gate to a reading gate becomes an edge.  Multiple
connections between the same gate pair collapse to one edge; primary
inputs/outputs are not nodes (the paper's nodes are netlist gates).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.netlist.netlist import Netlist

if TYPE_CHECKING:
    import networkx as nx


def netlist_edges(netlist: Netlist) -> np.ndarray:
    """Directed driver->sink gate edges, shape ``(2, n_edges)``.

    Self-loops from a flop's feedback port are excluded (normalization
    adds uniform self-loops separately, per Eq. 2).
    """
    adjacency = netlist.gate_adjacency()
    targets = adjacency.fanout_indices
    if targets.size == 0:
        return np.zeros((2, 0), dtype=np.int64)
    # Fanout CSR rows are already deduplicated per gate, so the edge
    # list is one repeat + stack — no per-edge Python work.
    sources = np.repeat(
        np.arange(netlist.n_gates, dtype=np.int64),
        np.diff(adjacency.fanout_indptr),
    )
    return np.stack(
        [sources, targets.astype(np.int64, copy=False)], axis=0
    )


def undirected_edges(edge_index: np.ndarray) -> np.ndarray:
    """Symmetrize a directed edge list (deduplicated)."""
    if edge_index.shape[1] == 0:
        return edge_index
    forward = edge_index
    backward = edge_index[::-1]
    both = np.concatenate([forward, backward], axis=1)
    # Deduplicate columns.
    order = np.lexsort((both[1], both[0]))
    both = both[:, order]
    keep = np.ones(both.shape[1], dtype=bool)
    keep[1:] = (np.diff(both[0]) != 0) | (np.diff(both[1]) != 0)
    return both[:, keep]


def netlist_to_networkx(netlist: Netlist) -> nx.DiGraph:
    """Directed :class:`networkx.DiGraph` view of the netlist graph.

    Nodes carry ``cell``, ``instance`` and ``sequential`` attributes;
    handy for visualization and for explainer subgraph extraction.
    networkx is an optional dependency (the ``graph`` extra), imported
    here so that no pipeline command pays for loading it.
    """
    try:
        import networkx as nx
    except ImportError as error:
        raise ImportError(
            "netlist_to_networkx needs networkx: "
            "pip install repro[graph]"
        ) from error
    graph = nx.DiGraph(name=netlist.name)
    for gate in netlist.gates:
        graph.add_node(
            gate.index,
            name=gate.node_name,
            cell=gate.cell.name,
            instance=gate.instance,
            sequential=gate.is_sequential,
        )
    edge_index = netlist_edges(netlist)
    graph.add_edges_from(zip(edge_index[0], edge_index[1]))
    return graph
