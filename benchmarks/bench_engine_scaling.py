"""Substrate performance — bit-parallel fault simulation scaling.

Not a paper artifact, but the property that makes the reproduction
tractable: the fault-injection engine evaluates every stuck-at machine
simultaneously, one lane per machine in each net's Python int, with
every gate one statement of the netlist's compiled straight-line code.
This benchmark measures throughput (fault-experiments per second)
against the scalar reference path and across design sizes, and is the
regression guard for the compiled evaluator.  CI runs it with
``--benchmark-disable`` (each case once, no timing) so the compiler
and kernel run on designs up to 1,600 gates on every push.
"""

import numpy as np
import pytest

from repro.circuits import random_netlist
from repro.fi.faults import full_fault_universe
from repro.sim import (
    BitParallelSimulator,
    Simulator,
    StuckAt,
    random_workload,
)


@pytest.mark.parametrize("n_gates", [100, 400, 1600])
def test_fault_pass_scaling(benchmark, n_gates):
    netlist = random_netlist(
        n_inputs=12, n_gates=n_gates, n_flops=max(4, n_gates // 16),
        n_outputs=8, seed=5,
    )
    workload = random_workload(netlist, cycles=100, seed=1,
                               reset_input="in_0")
    faults = full_fault_universe(netlist)
    engine = BitParallelSimulator(netlist)
    fault_nets = np.array([fault.net_index for fault in faults])
    fault_values = np.array([fault.stuck_at for fault in faults])

    result = benchmark(
        engine.run_pass, [workload], StuckAt(fault_nets, fault_values)
    )
    assert result.error_cycles.shape == (1, len(faults))
    benchmark.extra_info["fault_experiments"] = len(faults)
    benchmark.extra_info["cycles"] = workload.cycles


def test_golden_bitparallel_vs_scalar(benchmark):
    netlist = random_netlist(n_inputs=10, n_gates=400, n_flops=24,
                             n_outputs=8, seed=6)
    workload = random_workload(netlist, cycles=100, seed=2,
                               reset_input="in_0")
    engine = BitParallelSimulator(netlist)
    outputs = benchmark(engine.golden_outputs, workload)
    # random_netlist exports dangling nets as auxiliary outputs, so the
    # output count is at least the requested eight.
    assert outputs.shape[0] == 100 and outputs.shape[1] >= 8


def test_scalar_reference_speed(benchmark):
    netlist = random_netlist(n_inputs=10, n_gates=400, n_flops=24,
                             n_outputs=8, seed=6)
    workload = random_workload(netlist, cycles=100, seed=2,
                               reset_input="in_0")
    simulator = Simulator(netlist)
    trace = benchmark(simulator.run, workload)
    assert trace.cycles == 100
