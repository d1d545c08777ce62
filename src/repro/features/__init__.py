"""Node feature extraction: structural descriptors and signal
probabilities (simulation-based and analytic COP)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".extract": ("EXTENDED_FEATURE_NAMES", "FEATURE_NAMES",
                 "NodeFeatures", "extract_features"),
    ".incremental": ("patch_features",),
    ".probability": ("ProbabilityFeatures", "cop_probabilities",
                     "from_golden_stats", "simulate_probabilities"),
    ".scoap": ("ScoapMeasures", "compute_scoap"),
    ".structural": ("connection_counts", "fanin_counts", "fanout_counts",
                    "inverting_tags", "is_sequential_flags",
                    "logic_levels", "output_distances"),
})
