"""Coverage-driven workload generation (ATPG-lite) — extension.

Campaign cost scales with the workload count, so a compact suite that
still *detects* every detectable fault is valuable.  This module greedily
assembles one: generate candidate constrained-random workloads, simulate
each against the still-undetected fault population (cheap — the machine
count shrinks every round), and keep a candidate only if it observes new
faults, until a target detection coverage or the candidate budget is
reached.

This is test-set compaction in the classic random-ATPG sense:
"detected" means the fault produces any output mismatch, the criterion
test engineers use, independent of the FuSa severity threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.fi.faults import Fault, full_fault_universe
from repro.netlist.netlist import Netlist
from repro.sim.bitparallel import BitParallelSimulator, StuckAt
from repro.sim.waveform import Workload
from repro.sim.workloads import random_workload
from repro.utils.errors import SimulationError
from repro.utils.rng import SeedLike

#: candidate_generator(index) -> Workload
CandidateGenerator = Callable[[int], Workload]


@dataclass
class CompactionResult:
    """Outcome of greedy coverage-driven workload selection."""

    workloads: List[Workload]
    #: detection coverage after each *accepted* workload
    coverage_history: List[float]
    undetected: List[Fault]
    candidates_tried: int

    @property
    def coverage(self) -> float:
        """Final detection coverage."""
        return self.coverage_history[-1] if self.coverage_history else 0.0


def generate_compact_workloads(
    netlist: Netlist,
    target_coverage: float = 0.95,
    candidate_budget: int = 40,
    cycles: int = 100,
    seed: SeedLike = 0,
    faults: Optional[Sequence[Fault]] = None,
    candidate_generator: Optional[CandidateGenerator] = None,
) -> CompactionResult:
    """Greedily select workloads until ``target_coverage`` of faults is
    detected (observed at an output) or the candidate budget runs out.

    Args:
        netlist: Design under test.
        target_coverage: Fraction of the fault universe to detect.
        candidate_budget: Maximum candidates to try.
        cycles: Length of generated candidates.
        seed: Root seed for candidate generation.
        faults: Fault universe (defaults to all stuck-ats).
        candidate_generator: Custom candidate source; defaults to
            constrained-random workloads with varied hold/bias.

    Returns:
        A :class:`CompactionResult` with the selected suite.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise SimulationError(
            f"target coverage {target_coverage} outside (0, 1]"
        )
    fault_list = list(faults) if faults is not None else (
        full_fault_universe(netlist)
    )
    if not fault_list:
        raise SimulationError("empty fault universe")

    if candidate_generator is None:
        def candidate_generator(index: int) -> Workload:
            return random_workload(
                netlist, cycles=cycles, seed=(seed, "testgen", index),
                hold=1 + index % 3, bias=0.3 + 0.1 * (index % 5),
                name=f"compact[{index}]",
            )

    engine = BitParallelSimulator(netlist)
    n_faults = len(fault_list)
    detected = np.zeros(n_faults, dtype=bool)

    selected: List[Workload] = []
    history: List[float] = []
    tried = 0
    for index in range(candidate_budget):
        if detected.mean() >= target_coverage:
            break
        candidate = candidate_generator(index)
        tried += 1

        remaining = np.flatnonzero(~detected)
        fault_nets = np.array(
            [fault_list[i].net_index for i in remaining], dtype=np.intp
        )
        fault_values = np.array(
            [fault_list[i].stuck_at for i in remaining], dtype=np.uint8
        )
        error_cycles = engine.run_pass(
            [candidate], StuckAt(fault_nets, fault_values)
        ).error_cycles[0]
        newly = remaining[error_cycles > 0]
        if len(newly) == 0:
            continue
        detected[newly] = True
        selected.append(candidate)
        history.append(float(detected.mean()))

    return CompactionResult(
        workloads=selected,
        coverage_history=history,
        undetected=[fault_list[i] for i in np.flatnonzero(~detected)],
        candidates_tried=tried,
    )
