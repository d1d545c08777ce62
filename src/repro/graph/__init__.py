"""Graph construction: netlist-to-graph translation, adjacency
normalization (Eq. 2), the GraphData container, and node splits."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adjacency": ("CSRMatrix", "adjacency_matrix",
                   "normalized_adjacency"),
    ".build": ("netlist_edges", "netlist_to_networkx", "undirected_edges"),
    ".data": ("GraphData", "build_graph_data"),
    ".split": ("Split", "kfold_splits", "stratified_split"),
})
