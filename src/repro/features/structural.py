"""Structural node features.

Covers the paper's two structure-derived features — the connection
count (§3.1.1) and the Boolean inverting tag (§3.1.4) — plus extra
structural descriptors (logic level, output distance, fanin/fanout
split) used by the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.netlist import Netlist
from repro.utils.arrays import sorted_unique


def connection_counts(netlist: Netlist) -> np.ndarray:
    """Per-gate total connections: fan-ins plus fan-outs (§3.1.1)."""
    adjacency = netlist.gate_adjacency()
    return (
        adjacency.fanin_connections + adjacency.fanout_connections
    ).astype(np.float64)


def fanin_counts(netlist: Netlist) -> np.ndarray:
    """Per-gate fan-in connection count."""
    return netlist.gate_adjacency().fanin_connections.astype(
        np.float64
    )


def fanout_counts(netlist: Netlist) -> np.ndarray:
    """Per-gate fan-out connection count."""
    return netlist.gate_adjacency().fanout_connections.astype(
        np.float64
    )


def inverting_tags(netlist: Netlist) -> np.ndarray:
    """Per-gate Boolean tag: 1 when the cell negates logic (§3.1.4)."""
    return netlist.gate_arrays().inverting.astype(np.float64)


def logic_levels(netlist: Netlist) -> np.ndarray:
    """Per-gate topological level (flops at level 0)."""
    return np.array(netlist.levelize(), dtype=np.float64)


def is_sequential_flags(netlist: Netlist) -> np.ndarray:
    """Per-gate flag: 1 for flip-flops."""
    return netlist.gate_arrays().sequential.astype(np.float64)


def output_distances(netlist: Netlist) -> np.ndarray:
    """Per-gate shortest forward distance (in gates) to any primary
    output, treating flip-flops as unit hops.  Gates that cannot reach
    an output get the design's gate count (should not happen in a
    validated netlist)."""
    n_gates = netlist.n_gates
    unreachable = float(n_gates)
    distance = np.full(n_gates, unreachable)
    if n_gates == 0:
        return distance

    arrays = netlist.gate_arrays()
    po_mask = np.zeros(netlist.n_nets, dtype=bool)
    for net, _ in netlist.primary_outputs:
        po_mask[net] = True

    # Level-synchronous reverse BFS over driving gates through the
    # cached CSR fanin rows: the whole frontier expands in one gather
    # per level instead of one Python loop iteration per edge.
    adjacency = netlist.gate_adjacency()
    visited = np.zeros(n_gates, dtype=bool)
    frontier = np.flatnonzero(po_mask[arrays.output_net])
    visited[frontier] = True
    level = 0.0
    while frontier.size:
        distance[frontier] = level
        drivers = adjacency.fanin_rows(frontier)
        if drivers.size:
            drivers = sorted_unique(drivers[~visited[drivers]])
        visited[drivers] = True
        frontier = drivers
        level += 1.0
    return distance
