"""Fault-injection campaign runner.

A campaign replays every workload against the full fault universe on
the bit-parallel engine (all faults simulate simultaneously, one pass
per workload) and aggregates the per-(fault, workload) outcomes that
Algorithm 1 of the paper turns into node criticality scores and labels.

Classification follows FuSa practice: a fault is *Dangerous* under a
workload when the rate of functionally observed errors (cycles with a
strobed output mismatch over total cycles) meets the campaign's
severity threshold — a permanent fault that corrupts an isolated
transaction out of hundreds is a tolerable glitch, one that derails the
command stream is a functional failure.  A fault that corrupts internal
state without ever reaching an output is *Latent*; everything else is
*Benign*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fi.faults import Fault
from repro.fi.report import FaultClass, FaultRecord, WorkloadReport
from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload
from repro.utils.errors import SimulationError

#: Default functional-error-rate threshold for the Dangerous class.
DEFAULT_SEVERITY = 0.20


@dataclass(frozen=True)
class WorkloadFailure:
    """One failure-ledger entry: a workload whose fault pass exhausted
    its retries (or crashed with retries disabled).

    The campaign still completes — the row for this workload stays at
    its no-error initial state (zero error cycles, detection -1, not
    latent) and is excluded from :attr:`CampaignResult.completed_mask`.
    """

    workload: str
    #: ``"error"`` (the pass raised), ``"timeout"`` (the pass hung), or
    #: ``"worker_crash"`` (the unit was quarantined after repeatedly
    #: killing its host worker processes, or the pool's worker-restart
    #: budget ran out before the unit could run).
    status: str
    attempts: int
    elapsed_seconds: float
    error: str


@dataclass
class CampaignResult:
    """Aggregated outcome of a fault-injection campaign.

    Matrices are indexed ``[workload, fault]``; per-node views aggregate
    a node's SA0/SA1 pair (a node misbehaves under a workload when any
    of its faults does).
    """

    netlist_name: str
    faults: List[Fault]
    workload_names: List[str]
    workload_cycles: np.ndarray    # int64 (n_workloads,)
    error_cycles: np.ndarray       # int64 (n_workloads, n_faults)
    detection_cycle: np.ndarray    # int64 (n_workloads, n_faults), -1 = never
    latent: np.ndarray             # bool (n_workloads, n_faults)
    severity: float = DEFAULT_SEVERITY
    #: wall-clock seconds spent simulating (for the cost benchmarks)
    simulation_seconds: float = 0.0
    #: workloads whose pass never completed (graceful degradation)
    failures: List[WorkloadFailure] = field(default_factory=list)

    @property
    def n_workloads(self) -> int:
        return len(self.workload_names)

    @property
    def complete(self) -> bool:
        """True when every workload's fault pass finished."""
        return not self.failures

    @property
    def completed_mask(self) -> np.ndarray:
        """Bool (n_workloads,): workloads with real simulation results."""
        failed = {failure.workload for failure in self.failures}
        return np.array(
            [name not in failed for name in self.workload_names],
            dtype=bool,
        )

    @property
    def error_rate(self) -> np.ndarray:
        """Per-(workload, fault) functional-error-cycle rate."""
        return self.error_cycles / self.workload_cycles[:, None]

    @property
    def dangerous(self) -> np.ndarray:
        """Bool (n_workloads, n_faults): error rate meets severity."""
        return self.error_rate >= self.severity

    @property
    def observed(self) -> np.ndarray:
        """Bool: at least one functional mismatch occurred."""
        return self.error_cycles > 0

    @property
    def node_names(self) -> List[str]:
        """Distinct node names, in first-appearance (gate) order."""
        seen: Dict[str, None] = {}
        for fault in self.faults:
            seen.setdefault(fault.node_name, None)
        return list(seen)

    def fault_criticality(self) -> np.ndarray:
        """Per-fault score: fraction of workloads where it is dangerous."""
        return self.dangerous.mean(axis=0)

    def _fault_node_index(self) -> Tuple[List[str], np.ndarray]:
        """Node names plus the fault -> node-position index array that
        the vectorized per-node aggregations scatter through."""
        node_names = self.node_names
        position = {name: i for i, name in enumerate(node_names)}
        index = np.fromiter(
            (position[fault.node_name] for fault in self.faults),
            dtype=np.intp, count=len(self.faults),
        )
        return node_names, index

    def _node_dangerous_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(node, workload) Dangerous-fault counts and per-node
        fault counts, accumulated with one ``np.add.at`` scatter."""
        node_names, index = self._fault_node_index()
        totals = np.zeros((len(node_names), self.n_workloads))
        np.add.at(totals, index, self.dangerous.T)
        counts = np.bincount(index, minlength=len(node_names))
        return totals, counts

    def node_dangerous_matrix(self) -> np.ndarray:
        """Bool (n_workloads, n_nodes): any-fault-dangerous per node."""
        totals, _ = self._node_dangerous_totals()
        return (totals > 0).T

    def node_fraction_matrix(self) -> np.ndarray:
        """Float (n_workloads, n_nodes): per workload, the fraction of
        the node's faults (SA0/SA1) that are Dangerous."""
        totals, counts = self._node_dangerous_totals()
        return (totals / counts[:, None]).T

    def node_criticality(self) -> Dict[str, float]:
        """Algorithm 1's ``NodeCritic``: per-node criticality score.

        The score averages Dangerous outcomes over both the workload
        suite and the node's fault pair — "the fraction of the time a
        fault in the node leads to functional errors": a node whose
        SA1 breaks every workload but whose SA0 is always tolerated
        scores 0.5.
        """
        scores = self.node_fraction_matrix().mean(axis=0)
        return dict(zip(self.node_names, scores))

    def node_labels(self, threshold: float = 0.5) -> Dict[str, int]:
        """Algorithm 1's ``NodeLabel``: 1 when score >= threshold."""
        return {
            node: int(score >= threshold)
            for node, score in self.node_criticality().items()
        }

    def workload_report(self, workload: str) -> WorkloadReport:
        """Reconstruct the per-workload fault report."""
        try:
            row = self.workload_names.index(workload)
        except ValueError:
            raise SimulationError(
                f"unknown workload {workload!r}"
            ) from None
        dangerous = self.dangerous
        records = []
        for fault_index, fault in enumerate(self.faults):
            if dangerous[row, fault_index]:
                classification = FaultClass.DANGEROUS
            elif self.latent[row, fault_index]:
                classification = FaultClass.LATENT
            else:
                classification = FaultClass.BENIGN
            records.append(FaultRecord(
                fault=fault,
                classification=classification,
                detection_cycle=int(self.detection_cycle[row, fault_index]),
            ))
        return WorkloadReport(workload=workload, records=records)

    def reports(self) -> List[WorkloadReport]:
        """All per-workload reports."""
        return [self.workload_report(name) for name in self.workload_names]


def run_campaign(
    netlist: Netlist,
    workloads: Sequence[Workload],
    faults: Optional[Sequence[Fault]] = None,
    observation="auto",
    severity="auto",
    collapse: bool = False,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff=None,
    checkpoint_dir=None,
    resume: bool = False,
    jobs: int = 1,
    shard_size=0,
    max_worker_restarts: int = 8,
    heartbeat_interval: float = 5.0,
    poison_threshold: int = 2,
) -> CampaignResult:
    """Run the full fault-injection campaign.

    Execution is delegated to :class:`repro.fi.runner.CampaignRunner`,
    which packs workloads of one cycle count into one fault pass and
    supervises each (workload group, fault shard) pass as an
    independent unit of work.  Whatever the grouping, sharding or job
    count, a complete result is bit for bit that of a plain loop over
    the workloads.

    Args:
        netlist: Design under test.
        workloads: Stimulus suite (each replays from reset).
        faults: Fault list; defaults to the full stuck-at universe.
        observation: An :class:`~repro.fi.observation.ObservationSpec`,
            ``None`` to compare every output on every cycle, or
            ``"auto"`` (default) to use the design's registered
            functional-observation spec when one exists.
        severity: Functional-error-rate threshold for Dangerous — a
            float, or ``"auto"`` (default) to use the design's
            registered FuSa policy (falling back to
            :data:`DEFAULT_SEVERITY`).
        collapse: Simulate only one representative per structural
            fault-equivalence class and expand the results — same
            observable outcome, fewer machines (see
            :mod:`repro.fi.collapse`).
        timeout: Seconds allowed per attempt of one unit's fault
            pass (a group of same-length workloads packed into one
            pass, times one fault shard); ``None`` (default) never
            times out.
        retries: Extra attempts per unit after a failed or hung pass;
            every workload of a unit that exhausts them lands in the
            result's failure ledger instead of aborting the campaign.
        backoff: :class:`~repro.utils.retry.BackoffPolicy` between
            attempts (default: jittered exponential).
        checkpoint_dir: Directory for durable per-unit checkpoints;
            ``None`` disables checkpointing.
        resume: Load completed units from ``checkpoint_dir`` instead of
            re-simulating them.
        jobs: Worker processes executing (workload group x shard)
            units concurrently; ``1`` (default) runs serially
            in-process, ``0`` uses every core.  A group holds at most
            ``ceil(workloads / jobs)`` workloads, so every worker gets
            a unit.
        shard_size: Faults simulated per unit — ``0`` (default) keeps
            the whole universe in one pass per workload group,
            ``None``/``"auto"`` sizes shards so each unit's net values
            fit the shard budget.  Results are bitwise identical for every setting.
        max_worker_restarts: Dead pool workers respawned over the whole
            campaign before the pool is allowed to shrink (only
            meaningful with ``jobs > 1``).
        heartbeat_interval: Seconds between worker liveness stamps; a
            worker silent for several intervals is presumed wedged and
            replaced.
        poison_threshold: Consecutive host-worker kills after which a
            unit is quarantined into the failure ledger as
            ``worker_crash`` instead of crash-looping the pool.

    Returns:
        A :class:`CampaignResult` with per-(workload, fault) outcomes
        and a :attr:`~CampaignResult.failures` ledger for workloads
        that never completed.
    """
    from repro.fi.runner import CampaignRunner, RunnerPolicy

    policy = RunnerPolicy(
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        jobs=jobs,
        shard_size=shard_size,
        max_worker_restarts=max_worker_restarts,
        heartbeat_interval=heartbeat_interval,
        poison_threshold=poison_threshold,
    )
    runner = CampaignRunner(
        netlist,
        workloads,
        faults=faults,
        observation=observation,
        severity=severity,
        collapse=collapse,
        policy=policy,
    )
    return runner.run()
