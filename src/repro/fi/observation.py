"""Functional observation specifications.

A stuck-at fault is *Dangerous* only when it corrupts an
architecturally visible transaction, not when it wiggles a pin nobody
samples: an address-bus mismatch during a NOP command is invisible to
the SDRAM, and a wrong instruction word is harmless while ``if_valid``
is low.  Commercial FuSa fault classification (and the paper's
"functional errors") follows the same strobed-comparison principle.

An :class:`ObservationSpec` assigns each primary output a *strobe*: the
output participates in golden-vs-faulty comparison only on cycles where
the strobe output is at its active value **in the golden run** (the
golden machine defines when transactions happen).  Outputs without a
strobe are compared every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.utils.errors import SimulationError


@dataclass
class ObservationSpec:
    """Per-output comparison strobes for one design.

    ``strobes`` maps an output name (or a bus prefix covering
    ``prefix_0..prefix_{w-1}``) to ``(strobe_output, active_value)``.
    """

    strobes: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    def compile(self, netlist: Netlist) -> "CompiledObservation":
        """Resolve names against a netlist's output list."""
        output_names = netlist.output_names()
        position = {name: i for i, name in enumerate(output_names)}

        strobe_index = np.full(len(output_names), -1, dtype=np.int64)
        strobe_active = np.ones(len(output_names), dtype=np.uint8)
        for target, (strobe, active) in self.strobes.items():
            if strobe not in position:
                raise SimulationError(
                    f"strobe output {strobe!r} not found in design"
                )
            matched = [
                name for name in output_names
                if name == target or name.startswith(target + "_")
            ]
            if not matched:
                raise SimulationError(
                    f"observation target {target!r} matches no output"
                )
            for name in matched:
                strobe_index[position[name]] = position[strobe]
                strobe_active[position[name]] = 1 if active else 0
        return CompiledObservation(
            output_names=output_names,
            strobe_index=strobe_index,
            strobe_active=strobe_active,
        )


@dataclass
class CompiledObservation:
    """Numeric form of an :class:`ObservationSpec` for the engine."""

    output_names: List[str]
    strobe_index: np.ndarray   # per output: strobing output index or -1
    strobe_active: np.ndarray  # per output: strobe's active value

    def compare_mask(self, golden_bits: np.ndarray) -> np.ndarray:
        """Per-output compare-enable for one cycle.

        ``golden_bits`` is the golden machine's output vector (bool per
        output), or one column per golden machine when several
        workloads share a pass.  Outputs whose strobe is inactive this
        cycle are excluded from the mismatch comparison.
        """
        mask = np.ones(golden_bits.shape, dtype=bool)
        gated = self.strobe_index >= 0
        strobe_values = golden_bits[self.strobe_index[gated]]
        # Transposing lines the outputs up on the last axis, so one
        # comparison serves a vector and a per-machine matrix alike.
        mask[gated] = (
            strobe_values.T == self.strobe_active[gated].astype(bool)
        ).T
        return mask


#: Observation specs for the three evaluation designs.  Datapath buses
#: are strobed by their transaction-valid signals; control/handshake
#: outputs are always architecturally visible.
DESIGN_OBSERVATION: Dict[str, ObservationSpec] = {
    "sdram_controller": ObservationSpec(strobes={
        # The DRAM samples address/bank/mask pins only while a command
        # is driven (cs_n low); the host samples ba with commands too.
        "a": ("cs_n", 0),
        "ba": ("cs_n", 0),
        "dqm": ("cs_n", 0),
    }),
    "or1200_if": ObservationSpec(strobes={
        # Decode consumes instruction/PC only when the fetch is valid.
        "if_insn": ("if_valid", 1),
        "if_pc": ("if_valid", 1),
        "if_branch_op": ("if_valid", 1),
        "if_nop_op": ("if_valid", 1),
        # The cache samples the fetch address only while requested.
        "icpu_adr": ("icpu_req", 1),
    }),
    "uart": ObservationSpec(strobes={
        # The host consumes the received byte only on rx_valid.
        "rx_data": ("rx_valid", 1),
    }),
    "or1200_icfsm": ObservationSpec(strobes={
        # Memory samples the bus address only during a bus request.
        "biu_adr": ("biu_req", 1),
        "refill_word": ("data_we", 1),
        # The CPU consumes the hit indication only while strobing, and
        # the data array samples the way select only while written.
        "hit": ("ack", 1),
        "way_sel": ("data_we", 1),
    }),
}


def observation_for(netlist: Netlist) -> Optional[ObservationSpec]:
    """The standard observation spec for a known design, else None."""
    return DESIGN_OBSERVATION.get(netlist.name)


#: Per-design Dangerous severity thresholds (fraction of cycles with a
#: functional error).  The paper notes the criticality policy "is
#: contingent upon the unique application context"; these defaults
#: encode each design's tolerance: the fetch stage feeds a pipeline
#: that absorbs isolated wrong fetches (flushes/refetches), so only
#: sustained corruption is dangerous there, while the memory
#: controller's command stream has no such recovery.
DESIGN_SEVERITY: Dict[str, float] = {
    "sdram_controller": 0.20,
    "uart": 0.20,
    "or1200_if": 0.30,
    "or1200_icfsm": 0.20,
}


def resolve_policy(
    netlist: Netlist, severity="auto", observation="auto",
) -> Tuple[float, Optional[ObservationSpec]]:
    """Settle ``"auto"`` severity and observation against the design.

    ``"auto"`` severity is the design's registered threshold, else
    :data:`~repro.fi.campaign.DEFAULT_SEVERITY`; ``"auto"`` observation
    is the design's registered spec, else ``None`` (every output on
    every cycle).  Other values pass through, severity as a float.
    Every campaign, ECO run, checkpoint fingerprint and store key
    settles its policy here, so each reads the same values.
    """
    from repro.fi.campaign import DEFAULT_SEVERITY

    if severity == "auto":
        severity = DESIGN_SEVERITY.get(netlist.name, DEFAULT_SEVERITY)
    if observation == "auto":
        observation = observation_for(netlist)
    return float(severity), observation
