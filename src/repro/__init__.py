"""repro — Graph learning-based fault-criticality analysis for E/E
functional safety.

A complete reproduction of the DAC 2024 paper "Graph Learning-based
Fault Criticality Analysis for Enhancing Functional Safety of E/E
Systems": gate-level netlist substrate, the three evaluation designs,
a bit-parallel stuck-at fault-injection engine, the paper's node
features, the Table 1 GCN classifier and regressor with five
baselines, and GNNExplainer-based interpretability — in pure Python on
numpy/scipy.

Quickstart::

    from repro import FaultCriticalityAnalyzer, build_design

    analyzer = FaultCriticalityAnalyzer(build_design("sdram"))
    print(analyzer.summary())
"""

import atexit
import gc

# numpy maps its OpenBLAS, which the budget below sizes to one thread.
import numpy  # noqa: F401

from repro._lazy import lazy_exports
from repro.utils.parallel import budget_blas_threads

__version__ = "1.0.0"

# Every entry point (the CLI, scripts on the public API, fork workers
# that inherit it) imports this package after numpy has mapped its
# OpenBLAS, so this is the one place the budget takes effect.
budget_blas_threads()

# Skip the interpreter's last full collection at exit: it walks every
# object alive, ~0.1 s once numpy and scipy.sparse are loaded.  Frozen
# at exit, not here, so a host program's garbage is still collected
# while it runs; atexit handlers and stdio flushes still run.
atexit.register(gc.freeze)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".circuits": ("build_design",),
    ".circuits.or1200_icfsm": ("build_or1200_icfsm",),
    ".circuits.or1200_if": ("build_or1200_if",),
    ".circuits.sdram": ("build_sdram_controller",),
    ".core.config": ("AnalyzerConfig",),
    ".core.analyzer": ("FaultCriticalityAnalyzer", "NodeReport"),
    ".explain.explanation": ("Explanation",),
    ".explain.aggregate": ("GlobalImportance",),
    ".explain.gnn_explainer": ("GNNExplainer",),
    ".features.extract": ("FEATURE_NAMES", "NodeFeatures",
                          "extract_features"),
    ".fi.dataset": ("CriticalityDataset", "dataset_from_campaign",
                    "generate_dataset"),
    ".fi.campaign": ("run_campaign",),
    ".graph.data": ("GraphData", "build_graph_data"),
    ".graph.split": ("stratified_split",),
    ".models.base": ("BASELINE_NAMES", "make_classifier"),
    ".models.gcn": ("GCNClassifier", "GCNRegressor"),
    ".store.store": ("ArtifactStore",),
    ".netlist.netlist": ("Netlist",),
    ".netlist.verilog": ("read_verilog", "write_verilog"),
    ".sim.simulator": ("Simulator",),
    ".sim.waveform": ("Workload",),
    ".sim.workloads": ("design_workloads",),
}, subpackages=(
    "circuits", "core", "explain", "features", "fi", "graph", "metrics",
    "models", "netlist", "nn", "reporting", "sim", "store", "utils",
))
__all__.append("__version__")
