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
import os
import sys

from repro._lazy import lazy_exports
from repro.utils.parallel import BLAS_THREAD_ENV, budget_blas_threads

# numpy maps its OpenBLAS, which starts as many threads as the host
# has cores unless told otherwise when it loads; a thread resized
# afterwards keeps spinning for a while.  So when this package loads
# numpy and the user sized no BLAS, OpenBLAS loads with one thread,
# and the variable is gone again before anything can inherit it.
if "numpy" not in sys.modules and not any(
        name in os.environ for name in BLAS_THREAD_ENV):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    import numpy  # noqa: F401

__version__ = "1.0.0"

# A process that imported numpy before this package (a script on the
# public API, a host program) has its OpenBLAS sized here instead; fork
# workers inherit either.
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
