"""Criticality dataset generation — Algorithm 1 of the paper.

Aggregates per-workload fault reports into per-node criticality scores
— the fraction of the node's fault experiments (its stuck-at pair
across the workload suite) classified Dangerous — and binary
Critical/Non-critical labels against a threshold (the paper uses 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fi.campaign import CampaignResult
from repro.fi.report import FaultClass, WorkloadReport
from repro.utils.errors import SimulationError

#: The paper's criticality threshold: a node is critical when faults in
#: it cause functional errors in at least half the workloads (§3.2.2).
DEFAULT_THRESHOLD = 0.5


@dataclass
class CriticalityDataset:
    """Ground-truth node criticality for one design.

    Attributes:
        design: Netlist name.
        node_names: Node (gate) names, aligned with ``scores``/``labels``.
        scores: Continuous criticality score per node in [0, 1].
        labels: 1 = Critical, 0 = Non-critical.
        threshold: The label cut-off applied to the scores.
        n_workloads: Number of aggregated workloads.
    """

    design: str
    node_names: List[str]
    scores: np.ndarray
    labels: np.ndarray
    threshold: float
    n_workloads: int
    #: per-node fault-experiment counts (workloads x node faults);
    #: enables confidence intervals when provided
    trials: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not (len(self.node_names) == len(self.scores)
                == len(self.labels)):
            raise SimulationError("dataset arrays are misaligned")

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def critical_fraction(self) -> float:
        """Share of nodes labeled Critical (class balance)."""
        return float(self.labels.mean()) if self.n_nodes else 0.0

    def score_of(self, node_name: str) -> float:
        """Criticality score of one named node."""
        try:
            return float(self.scores[self.node_names.index(node_name)])
        except ValueError:
            raise SimulationError(f"unknown node {node_name!r}") from None

    def label_of(self, node_name: str) -> int:
        """Label (1 = Critical) of one named node."""
        try:
            return int(self.labels[self.node_names.index(node_name)])
        except ValueError:
            raise SimulationError(f"unknown node {node_name!r}") from None

    def confidence_intervals(self, level: float = 0.95):
        """Wilson score intervals for the per-node criticality scores.

        Each score is an empirical fraction of Dangerous outcomes over
        the node's fault experiments (workloads x stuck-at pair); the
        interval quantifies the sampling uncertainty a finite workload
        suite leaves.  Requires ``trials`` (populated by
        :func:`dataset_from_campaign` / :func:`generate_dataset`).

        Returns ``(low, high)`` arrays aligned with ``scores``.
        """
        if self.trials is None:
            raise SimulationError(
                "dataset has no trial counts; rebuild it via "
                "dataset_from_campaign/generate_dataset"
            )
        from statistics import NormalDist

        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        n = np.asarray(self.trials, dtype=np.float64)
        p = self.scores
        denominator = 1.0 + z**2 / n
        center = (p + z**2 / (2 * n)) / denominator
        margin = (z / denominator) * np.sqrt(
            p * (1 - p) / n + z**2 / (4 * n**2)
        )
        return np.clip(center - margin, 0.0, 1.0), np.clip(
            center + margin, 0.0, 1.0
        )


def generate_dataset(
    reports: Sequence[WorkloadReport],
    threshold: float = DEFAULT_THRESHOLD,
    design: str = "",
) -> CriticalityDataset:
    """Algorithm 1: reports from N workloads -> scores and labels.

    Follows the paper's pseudocode: walk every (node, label) entry of
    every workload's fault report, accumulate Dangerous counts per node
    (lines 3-10), normalize into a score (line 12), and threshold into
    labels (lines 13-17).  Reports carry one entry per fault, so the
    normalizer is ``N_workloads * faults_per_node``: the score reads as
    "the fraction of the time a fault in this node causes a functional
    error" across the workload suite and the node's stuck-at pair.
    """
    if not reports:
        raise SimulationError("no fault reports supplied")
    node_critic: Dict[str, int] = {}
    node_faults: Dict[str, int] = {}
    node_order: List[str] = []
    for report in reports:                       # lines 3-10
        per_report_faults: Dict[str, int] = {}
        for record in report.records:
            node = record.node_name
            if node not in node_critic:
                node_critic[node] = 0
                node_order.append(node)
            per_report_faults[node] = per_report_faults.get(node, 0) + 1
            if record.classification is FaultClass.DANGEROUS:
                node_critic[node] += 1
        node_faults.update(per_report_faults)

    n_workloads = len(reports)
    scores = np.array([
        node_critic[node] / (n_workloads * node_faults[node])
        for node in node_order
    ])                                           # line 12
    labels = (scores >= threshold).astype(np.int64)  # lines 13-17
    return CriticalityDataset(
        design=design,
        node_names=node_order,
        scores=scores,
        labels=labels,
        threshold=threshold,
        n_workloads=n_workloads,
        trials=np.array([
            n_workloads * node_faults[node] for node in node_order
        ]),
    )


def dataset_from_campaign(
    campaign: CampaignResult,
    threshold: float = DEFAULT_THRESHOLD,
) -> CriticalityDataset:
    """Build the dataset directly from a campaign's matrices.

    Equivalent to ``generate_dataset(campaign.reports(), ...)`` but
    vectorized over the dangerous matrix.
    """
    scores = campaign.node_fraction_matrix().mean(axis=0)
    node_names = campaign.node_names
    fault_counts = {name: 0 for name in node_names}
    for fault in campaign.faults:
        fault_counts[fault.node_name] += 1
    return CriticalityDataset(
        design=campaign.netlist_name,
        node_names=node_names,
        scores=scores,
        labels=(scores >= threshold).astype(np.int64),
        threshold=threshold,
        n_workloads=campaign.n_workloads,
        trials=np.array([
            campaign.n_workloads * fault_counts[name]
            for name in node_names
        ]),
    )
