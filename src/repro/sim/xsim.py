"""Three-valued (0/1/X) simulation and reset verification.

Power-on state is unknown: every flip-flop starts at ``X`` and a design
is only safely resettable if its reset sequence drives every state
element (and output) to a known value regardless of the initial state.
The two-valued engines assume reset-to-0 start state; this module
checks that assumption instead of baking it in.

Values are encoded dual-rail: ``(can_be_0, can_be_1)`` — ``X`` is
``(1, 1)``.  Gate evaluation is exact per cell (both truth-table
completions are enumerated), so the analysis is *pessimistic only
through reconvergence* (an X XOR with itself stays X), the standard
behaviour of 3-valued logic simulators.

:func:`reset_analysis` is the user-facing check: apply the reset
sequence from the all-X state and report any net still unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.netlist.netlist import Netlist
from repro.utils.errors import SimulationError

#: Dual-rail constants: (can_be_0, can_be_1).
ZERO = (True, False)
ONE = (False, True)
X = (True, True)

XValue = Tuple[bool, bool]


class XSimulator:
    """Cycle-accurate 3-valued simulator (flops start at X)."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._order = [
            netlist.gates[index]
            for index in netlist.topological_order()
            if not netlist.gates[index].is_sequential
        ]
        self._flops = netlist.sequential_gates()
        self._pi_names = netlist.input_names()
        self._pi_nets = netlist.input_nets()
        self.reset_to_unknown()

    def reset_to_unknown(self) -> None:
        """All nets (in particular all flop states) become X."""
        self.values: List[XValue] = [X] * self.netlist.n_nets

    def _evaluate(self, gate) -> XValue:
        """Exact 3-valued cell evaluation: enumerate completions of the
        X inputs and merge the possible outputs."""
        inputs = [self.values[net] for net in gate.inputs]
        unknown = [i for i, value in enumerate(inputs) if value == X]
        if len(unknown) > 6:
            return X  # too many unknowns: pessimistic short-cut
        can_be = [False, False]
        base = [0 if value == ZERO else 1 for value in inputs]
        for assignment in range(1 << len(unknown)):
            bits = list(base)
            for position, input_index in enumerate(unknown):
                bits[input_index] = (assignment >> position) & 1
            out = int(gate.cell.function(tuple(bits), 1)) & 1
            can_be[out] = True
            if can_be[0] and can_be[1]:
                return X
        return (can_be[0], can_be[1])

    def step(self, inputs: Mapping[str, int]) -> Dict[str, XValue]:
        """Advance one cycle; unknown inputs may be passed as ``"x"``."""
        for name, net in zip(self._pi_names, self._pi_nets):
            if name in inputs:
                value = inputs[name]
                if value in ("x", "X", None):
                    self.values[net] = X
                else:
                    self.values[net] = ONE if value else ZERO
        unknown_names = set(inputs) - set(self._pi_names)
        if unknown_names:
            raise SimulationError(f"unknown inputs {sorted(unknown_names)}")

        for gate in self._order:
            self.values[gate.output] = self._evaluate(gate)

        outputs = {
            name: self.values[net]
            for net, name in self.netlist.primary_outputs
        }

        next_states = [self._evaluate(gate) for gate in self._flops]
        for gate, state in zip(self._flops, next_states):
            self.values[gate.output] = state
        return outputs

    def unknown_flops(self) -> List[str]:
        """Node names of flops whose state is still X."""
        return [
            gate.node_name for gate in self._flops
            if self.values[gate.output] == X
        ]

    def unknown_nets(self) -> List[str]:
        """Names of all nets currently X."""
        return [
            net.name for net in self.netlist.nets
            if self.values[net.index] == X
        ]


@dataclass
class ResetReport:
    """Outcome of :func:`reset_analysis`."""

    design: str
    reset_cycles: int
    settle_cycles: int
    unknown_flops: List[str]
    unknown_outputs: List[str]

    @property
    def resettable(self) -> bool:
        """True when reset fully initializes state and outputs."""
        return not self.unknown_flops and not self.unknown_outputs


def reset_analysis(
    netlist: Netlist,
    reset_input: str = "reset",
    reset_cycles: int = 2,
    settle_cycles: int = 4,
    idle_inputs: Optional[Mapping[str, int]] = None,
) -> ResetReport:
    """Verify the reset sequence initializes the design from all-X.

    Applies ``reset_cycles`` of asserted reset with every other input
    X (the harshest environment — reset must not depend on them), then
    ``settle_cycles`` of deasserted reset in a *quiescent* environment
    (inputs at 0, overridable via ``idle_inputs``, e.g. an idle-high
    serial line), and reports flops and outputs still unknown.

    Unreset data-path registers (enable-only ``DFFE`` holding request
    attributes until first use) legitimately stay X — a finding, not
    necessarily a bug; control state should always initialize.
    """
    if reset_input not in netlist.input_names():
        raise SimulationError(
            f"design has no reset input {reset_input!r}"
        )
    simulator = XSimulator(netlist)
    simulator.reset_to_unknown()

    harsh: Dict[str, object] = {
        name: "x" for name in netlist.input_names()
    }
    quiescent: Dict[str, object] = {
        name: 0 for name in netlist.input_names()
    }
    if idle_inputs:
        harsh.update(idle_inputs)
        quiescent.update(idle_inputs)

    outputs: Dict[str, XValue] = {}
    for _ in range(reset_cycles):
        outputs = simulator.step({**harsh, reset_input: 1})
    for _ in range(settle_cycles):
        outputs = simulator.step({**quiescent, reset_input: 0})

    unknown_outputs = [
        name for name, value in outputs.items() if value == X
    ]
    return ResetReport(
        design=netlist.name,
        reset_cycles=reset_cycles,
        settle_cycles=settle_cycles,
        unknown_flops=simulator.unknown_flops(),
        unknown_outputs=unknown_outputs,
    )
