"""Gate-level netlist substrate: cells, data model, Verilog I/O."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cells": ("Cell", "LIBRARY", "combinational_cells", "get_cell",
               "sequential_cells"),
    ".netlist": ("Gate", "GateAdjacency", "Net", "Netlist"),
    ".diff": ("GateChange", "NetlistDiff", "diff_netlists"),
    ".stats": ("NetlistStats", "summarize"),
    ".equivalence": ("Counterexample", "EquivalenceResult",
                     "check_equivalence"),
    ".optimize": ("OptimizeReport", "optimize_netlist"),
    ".transform": ("harden_nodes", "hardened_node_names"),
    # The function shadows its module's name, as the eager import did.
    ".validate": ("check", "validate"),
    ".verilog": ("from_verilog", "read_verilog", "to_verilog",
                 "write_verilog"),
})
