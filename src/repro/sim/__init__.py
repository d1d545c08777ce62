"""Logic simulation: scalar reference engine, compiled bit-parallel
engine, stimulus containers, and per-design workload generators."""

from repro.sim.bitparallel import (
    BitParallelSimulator,
    GoldenStats,
    StuckAt,
    Upset,
)
from repro.sim.simulator import Driver, Simulator
from repro.sim.vcd import dump_vcd, trace_to_vcd
from repro.sim.xsim import ResetReport, XSimulator, reset_analysis
from repro.sim.waveform import Trace, Workload
from repro.sim.workloads import (
    DEFAULT_CYCLES,
    design_workloads,
    icfsm_workload,
    or1200_if_workload,
    random_workload,
    sdram_workload,
    uart_workload,
)

__all__ = [
    "BitParallelSimulator",
    "GoldenStats",
    "StuckAt",
    "Upset",
    "Driver",
    "Simulator",
    "ResetReport",
    "XSimulator",
    "reset_analysis",
    "dump_vcd",
    "trace_to_vcd",
    "Trace",
    "Workload",
    "DEFAULT_CYCLES",
    "design_workloads",
    "icfsm_workload",
    "or1200_if_workload",
    "random_workload",
    "sdram_workload",
    "uart_workload",
]
