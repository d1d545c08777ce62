"""Transient-fault (single-event upset) campaigns — extension.

The paper analyses permanent stuck-at faults; radiation-induced soft
errors are the other half of an ISO 26262 analysis.  This module adds
the standard SEU model on top of the same campaign machinery: a fault
is one state-bit flip in one flip-flop at one cycle, and a flop's
criticality is the fraction of injections (over flops' sampled cycles
and workloads) whose corruption becomes a functional failure — an
architectural-vulnerability-factor-style score the same GCN pipeline
can learn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.fi.campaign import DEFAULT_SEVERITY, CampaignResult
from repro.netlist.netlist import Netlist
from repro.sim.bitparallel import BitParallelSimulator, Upset, cycle_groups
from repro.sim.waveform import Workload
from repro.utils.errors import SimulationError
from repro.utils.rng import SeedLike, derive_rng


@dataclass(frozen=True)
class TransientFault:
    """A single-event upset: one flip-flop bit flip at one cycle."""

    gate_index: int
    net_index: int
    node_name: str
    cycle: int

    @property
    def name(self) -> str:
        return f"{self.node_name}/SEU@{self.cycle}"


def transient_fault_universe(
    netlist: Netlist,
    cycles: int,
    injections_per_flop: int = 8,
    seed: SeedLike = 0,
    warmup: int = 4,
) -> List[TransientFault]:
    """Sample SEU injections: per flip-flop, ``injections_per_flop``
    distinct cycles uniformly over the first half of the run (past a
    reset warm-up).

    The warm-up skips the reset pulse, where a flipped state would be
    immediately cleared; restricting injections to the first half keeps
    the campaign's error-rate severity meaningful — every upset has at
    least half the workload in which to manifest functionally.
    """
    flops = netlist.sequential_gates()
    if not flops:
        raise SimulationError("design has no flip-flops to upset")
    window_end = max(cycles // 2, warmup + 1)
    if window_end - warmup < injections_per_flop:
        raise SimulationError(
            f"cannot place {injections_per_flop} distinct injections in "
            f"cycles [{warmup}, {window_end})"
        )
    rng = derive_rng(seed, "transient-universe", netlist.name)
    faults: List[TransientFault] = []
    for gate in flops:
        chosen = rng.choice(
            np.arange(warmup, window_end), injections_per_flop,
            replace=False,
        )
        for cycle in sorted(int(c) for c in chosen):
            faults.append(TransientFault(
                gate_index=gate.index,
                net_index=gate.output,
                node_name=gate.node_name,
                cycle=cycle,
            ))
    return faults


def run_transient_campaign(
    netlist: Netlist,
    workloads: Sequence[Workload],
    faults: Optional[Sequence[TransientFault]] = None,
    injections_per_flop: int = 8,
    seed: SeedLike = 0,
    observation="auto",
    severity="auto",
) -> CampaignResult:
    """Run an SEU campaign; returns the standard
    :class:`~repro.fi.campaign.CampaignResult` (faults are
    :class:`TransientFault` instances, so node criticality aggregates
    over each flop's sampled injection cycles).

    A transient is Dangerous when it corrupts at least the severity
    fraction of the workload's cycles — a flipped FSM state that
    derails the machine scores high, an upset that is overwritten
    before reaching an output scores zero (injections are placed in
    the first half of the run so this rate is attainable).
    """
    from repro.fi.observation import (
        ObservationSpec,
        observation_for,
        severity_for,
    )

    if not workloads:
        raise SimulationError("campaign needs at least one workload")
    min_cycles = min(workload.cycles for workload in workloads)
    fault_list = list(faults) if faults is not None else (
        transient_fault_universe(
            netlist, min_cycles, injections_per_flop, seed
        )
    )
    if not fault_list:
        raise SimulationError("campaign needs at least one fault")
    if severity == "auto":
        severity = severity_for(netlist, DEFAULT_SEVERITY)
    if observation == "auto":
        observation = observation_for(netlist)
    compiled = (
        observation.compile(netlist)
        if isinstance(observation, ObservationSpec) else None
    )

    engine = BitParallelSimulator(netlist)
    upsets = Upset(
        np.array([fault.net_index for fault in fault_list],
                 dtype=np.intp),
        np.array([fault.cycle for fault in fault_list], dtype=np.int64),
    )

    n_workloads, n_faults = len(workloads), len(fault_list)
    error_cycles = np.zeros((n_workloads, n_faults), dtype=np.int64)
    detection = np.full((n_workloads, n_faults), -1, dtype=np.int64)
    latent = np.zeros((n_workloads, n_faults), dtype=bool)

    started = time.perf_counter()
    for rows in cycle_groups(workloads):
        packed = engine.run_pass([workloads[row] for row in rows], upsets,
                                 observation=compiled)
        error_cycles[rows] = packed.error_cycles
        detection[rows] = packed.detection_cycle
        latent[rows] = packed.latent
    elapsed = time.perf_counter() - started

    return CampaignResult(
        netlist_name=netlist.name,
        faults=fault_list,
        workload_names=[workload.name for workload in workloads],
        workload_cycles=np.array(
            [workload.cycles for workload in workloads], dtype=np.int64
        ),
        error_cycles=error_cycles,
        detection_cycle=detection,
        latent=latent,
        severity=severity,
        simulation_seconds=elapsed,
    )
