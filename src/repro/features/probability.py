"""Signal-probability node features.

The paper's §3.1.2/§3.1.3 features — intrinsic state probability and
intrinsic transition probability — are computed two ways:

* **Simulation-based** (default, what the paper's flow does): measured
  from golden-run activity over the workload suite via
  :class:`~repro.sim.bitparallel.GoldenStats`.
* **Analytic (COP)**: the classic controllability-observability-program
  propagation — assume independent inputs at P(1)=0.5, propagate exact
  per-cell output probabilities in topological order, and iterate the
  sequential feedback to a fixpoint.  Used by the ablation comparing
  feature sources, and available when no workloads exist yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload

if TYPE_CHECKING:
    from repro.sim.bitparallel import GoldenStats


@dataclass
class ProbabilityFeatures:
    """Per-gate probability features (aligned with gate indices)."""

    state_probability_one: np.ndarray
    state_probability_zero: np.ndarray
    transition_probability: np.ndarray


def from_golden_stats(netlist: Netlist,
                      stats: GoldenStats) -> ProbabilityFeatures:
    """Map per-net golden statistics onto gates (via output nets)."""
    output_nets = np.array([gate.output for gate in netlist.gates],
                           dtype=np.intp)
    p_one = stats.state_probability_one[output_nets]
    return ProbabilityFeatures(
        state_probability_one=p_one,
        state_probability_zero=1.0 - p_one,
        transition_probability=stats.transition_probability[output_nets],
    )


def simulate_probabilities(
    netlist: Netlist,
    workloads: Sequence[Workload],
) -> ProbabilityFeatures:
    """Simulation-based probabilities from golden runs of ``workloads``."""
    from repro.sim.bitparallel import BitParallelSimulator

    stats = BitParallelSimulator(netlist).golden_stats(workloads)
    return from_golden_stats(netlist, stats)


def cop_probabilities(
    netlist: Netlist,
    input_probability: float = 0.5,
    iterations: int = 16,
    tolerance: float = 1e-6,
) -> ProbabilityFeatures:
    """Analytic COP signal probabilities.

    Primary inputs are independent with ``P(1) = input_probability``.
    Combinational cells propagate exact truth-table probabilities under
    an input-independence assumption; sequential feedback is resolved by
    fixpoint iteration (flop output probability this round = its
    next-state probability from the previous round, starting at the
    reset state, 0).

    The transition probability uses the temporal-independence
    approximation ``P_t = 2 p (1 - p)``.
    """
    n_nets = netlist.n_nets
    probability = np.zeros(n_nets)
    for net in netlist.input_nets():
        probability[net] = input_probability

    order = [
        netlist.gates[index]
        for index in netlist.topological_order()
        if not netlist.gates[index].is_sequential
    ]
    flops = netlist.sequential_gates()

    for _ in range(max(1, iterations)):
        previous = probability.copy()
        for gate in order:
            probability[gate.output] = gate.cell.output_probability(
                [probability[net] for net in gate.inputs]
            )
        next_state = [
            gate.cell.output_probability(
                [probability[net] for net in gate.inputs]
            )
            for gate in flops
        ]
        for gate, value in zip(flops, next_state):
            probability[gate.output] = value
        if np.max(np.abs(probability - previous)) < tolerance:
            break

    # One final combinational settle so combinational nets reflect the
    # converged state probabilities.
    for gate in order:
        probability[gate.output] = gate.cell.output_probability(
            [probability[net] for net in gate.inputs]
        )

    output_nets = np.array([gate.output for gate in netlist.gates],
                           dtype=np.intp)
    p_one = probability[output_nets]
    return ProbabilityFeatures(
        state_probability_one=p_one,
        state_probability_zero=1.0 - p_one,
        transition_probability=2.0 * p_one * (1.0 - p_one),
    )
