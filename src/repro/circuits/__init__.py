"""Design generators: the RTL-to-gates substrate, the paper's three
evaluation designs (SDRAM controller, OR1200 IF, OR1200 ICFSM), and
the additional UART validation subject."""

import sys

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".builder": ("Bus", "CircuitBuilder"),
    ".fsm": ("FsmInstance", "FsmSpec", "parse_guard", "synthesize_fsm"),
    ".library": ("CounterPorts", "FifoPorts", "fifo_controller",
                 "TimerPorts", "down_timer", "lfsr", "shift_register",
                 "up_counter"),
    ".grid": ("build_fsm_grid",),
    ".or1200_icfsm": ("build_or1200_icfsm",),
    ".or1200_if": ("build_or1200_if",),
    ".random_circuits": ("random_netlist",),
    ".sdram": ("build_sdram_controller",),
    ".uart": ("build_uart",),
})

#: The bundled designs' builders by short name.
_BUILDERS = {
    "sdram": "build_sdram_controller",
    "or1200_if": "build_or1200_if",
    "or1200_icfsm": "build_or1200_icfsm",
    "uart": "build_uart",
}


def build_design(name: str, **kwargs):
    """Build a bundled design by short name.

    Accepted names: ``"sdram"``, ``"or1200_if"``, ``"or1200_icfsm"``
    (the paper's three evaluation designs) and ``"uart"`` (the
    additional validation subject).  Only that design's builder is
    imported.
    """
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown design {name!r}; choose from {sorted(_BUILDERS)}"
        )
    return getattr(sys.modules[__name__], _BUILDERS[name])(**kwargs)
