"""Logic simulation: scalar reference engine, compiled bit-parallel
engine, stimulus containers, and per-design workload generators."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bitparallel": ("BitParallelSimulator", "GoldenStats", "StuckAt",
                     "Upset"),
    ".simulator": ("Driver", "Simulator"),
    ".xsim": ("ResetReport", "XSimulator", "reset_analysis"),
    ".vcd": ("dump_vcd", "trace_to_vcd"),
    ".waveform": ("Trace", "Workload"),
    ".workloads": ("DEFAULT_CYCLES", "design_workloads", "icfsm_workload",
                   "or1200_if_workload", "random_workload",
                   "sdram_workload", "uart_workload"),
})
