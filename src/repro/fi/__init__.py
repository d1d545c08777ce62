"""Fault injection: stuck-at fault models, the bit-parallel campaign
runner (the Xcelium stand-in), per-workload reports, and Algorithm 1
dataset generation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": ("CampaignResult", "WorkloadFailure", "run_campaign"),
    ".runner": ("CampaignRunner", "RunnerPolicy", "PassTimeout"),
    ".checkpoint": ("CheckpointStore", "campaign_fingerprint"),
    ".dataset": ("DEFAULT_THRESHOLD", "CriticalityDataset",
                 "dataset_from_campaign", "generate_dataset"),
    ".analysis": ("always_latent_faults", "campaign_summary",
                  "coverage_by_workload", "criticality_by_cell_type",
                  "detection_latency_histogram", "undetected_faults"),
    ".diagnosis": ("DiagnosisCandidate", "FaultDictionary"),
    ".eco": ("DirtyRegion", "EcoResult", "compute_dirty_region",
             "extract_dirty_cone", "run_eco_campaign",
             "run_eco_transient_campaign"),
    ".collapse": ("CollapsedUniverse", "collapse_faults",
                  "expand_results", "expand_shard"),
    ".faults": ("Fault", "faults_for_nodes", "full_fault_universe",
                "sample_faults"),
    ".transient": ("TransientFault", "run_transient_campaign",
                   "transient_fault_universe"),
    ".testgen": ("CompactionResult", "generate_compact_workloads"),
    ".report": ("FaultClass", "FaultRecord", "WorkloadReport",
                "format_report"),
})
