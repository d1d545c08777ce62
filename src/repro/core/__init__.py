"""End-to-end pipeline (Figure 2): configuration and the
FaultCriticalityAnalyzer orchestrator."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analyzer": ("EcoAnalysis", "FaultCriticalityAnalyzer", "NodeReport"),
    ".config": ("AnalyzerConfig",),
})
