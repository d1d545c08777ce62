"""Content-addressed artifact store: cross-invocation memoization of
every pipeline stage.

See :mod:`repro.store.store` for the on-disk contract,
:mod:`repro.store.keys` for the identity scheme, and
:mod:`repro.store.memo` for the analyzer glue.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".store": ("ArtifactStore", "DEFAULT_BYTE_BUDGET", "KIND_EXTENSIONS"),
    ".memo": ("AnalysisMemo", "memoized_campaign", "ensure_netlist_cached"),
    ".keys": ("STORE_SCHEMA", "stage_key", "netlist_key", "workloads_key",
              "campaign_key", "features_key", "dataset_key", "graph_key",
              "classifier_key", "regressor_key", "explanations_key",
              "gridsearch_key", "baselines_key"),
})
