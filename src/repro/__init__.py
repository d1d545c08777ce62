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

from repro.circuits import (
    build_design,
    build_or1200_icfsm,
    build_or1200_if,
    build_sdram_controller,
)
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer, NodeReport
from repro.explain import Explanation, GlobalImportance, GNNExplainer
from repro.features import FEATURE_NAMES, NodeFeatures, extract_features
from repro.fi import (
    CriticalityDataset,
    dataset_from_campaign,
    generate_dataset,
    run_campaign,
)
from repro.graph import GraphData, build_graph_data, stratified_split
from repro.models import (
    BASELINE_NAMES,
    GCNClassifier,
    GCNRegressor,
    make_classifier,
)
from repro.netlist import Netlist, read_verilog, write_verilog
from repro.sim import Simulator, Workload, design_workloads
from repro.store import ArtifactStore
from repro.utils.parallel import budget_blas_threads

__version__ = "1.0.0"

# Every entry point (the CLI, scripts on the public API, fork workers
# that inherit it) imports this package after numpy has mapped its
# OpenBLAS, so this is the one place the budget takes effect.
budget_blas_threads()

__all__ = [
    "build_design",
    "build_or1200_icfsm",
    "build_or1200_if",
    "build_sdram_controller",
    "AnalyzerConfig",
    "FaultCriticalityAnalyzer",
    "NodeReport",
    "Explanation",
    "GlobalImportance",
    "GNNExplainer",
    "FEATURE_NAMES",
    "NodeFeatures",
    "extract_features",
    "CriticalityDataset",
    "dataset_from_campaign",
    "generate_dataset",
    "run_campaign",
    "GraphData",
    "build_graph_data",
    "stratified_split",
    "BASELINE_NAMES",
    "GCNClassifier",
    "GCNRegressor",
    "make_classifier",
    "ArtifactStore",
    "Netlist",
    "read_verilog",
    "write_verilog",
    "Simulator",
    "Workload",
    "design_workloads",
    "__version__",
]
