"""Bitwise guardrail for the single bit-parallel fault kernel.

``BitParallelSimulator.run_pass`` (lane layout x injector x sink)
replaced three separate passes: the per-workload stuck-at pass, the
packed multi-workload trace pass and the transient (SEU) pass.  The
ground truth is ``tests/_reference_sim`` — a frozen copy of the engine
with the stuck-at and transient passes (see that package's docstring).  On randomized
designs, 1-4 workloads with uniform or mixed cycle counts, stuck-at
and SEU faults, with and without a strobed observation spec, and fault
counts that cross 64-lane word boundaries, every per-fault array must
equal the reference's per-workload pass bit for bit, packed or one
workload at a time.  Golden statistics, packed one lane per workload,
must equal the reference's one-workload-at-a-time counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_netlist
from repro.fi.faults import full_fault_universe
from repro.fi.observation import ObservationSpec, observation_for
from repro.sim import (
    BitParallelSimulator,
    StuckAt,
    Upset,
    design_workloads,
    random_workload,
)
from repro.utils.errors import SimulationError

from tests._reference_sim.ref_bitparallel import (
    BitParallelSimulator as RefSimulator,
)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def build_case(data, n_flops_min=0):
    """A random design, a workload suite, and an optional strobe."""
    netlist = random_netlist(
        n_inputs=data.draw(st.integers(2, 6), "n_inputs"),
        n_gates=data.draw(st.integers(4, 40), "n_gates"),
        n_flops=data.draw(st.integers(n_flops_min, 5), "n_flops"),
        n_outputs=data.draw(st.integers(2, 5), "n_outputs"),
        seed=data.draw(st.integers(0, 2**31 - 1), "design_seed"),
    )
    n_workloads = data.draw(st.integers(1, 4), "n_workloads")
    uniform = data.draw(st.booleans(), "uniform")
    workloads = [
        random_workload(
            netlist,
            cycles=12 if uniform else data.draw(st.integers(6, 14)),
            seed=data.draw(st.integers(0, 2**16)),
            reset_input="in_0",
            name=f"w{index}",
        )
        for index in range(n_workloads)
    ]
    compiled = None
    if data.draw(st.booleans(), "strobed"):
        # Every ``out_*`` port (the strobe included) compares only
        # while the golden ``out_0`` sits at the active value.
        spec = ObservationSpec(strobes={
            "out": ("out_0", data.draw(st.integers(0, 1), "active")),
        })
        compiled = spec.compile(netlist)
    return netlist, workloads, compiled


def by_cycles(workloads):
    """Workload positions grouped by cycle count (the kernel's unit)."""
    groups = {}
    for position, workload in enumerate(workloads):
        groups.setdefault(workload.cycles, []).append(position)
    return list(groups.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stuck_at_matches_reference(data):
    netlist, workloads, compiled = build_case(data)
    universe = full_fault_universe(netlist)
    # Sampling with replacement reaches 1..150 faults, so spans cross
    # 64-lane word boundaries inside and between workloads.
    picks = np.array(data.draw(st.lists(
        st.integers(0, len(universe) - 1), min_size=1, max_size=150,
    ), "faults"))
    nets = np.array([universe[i].net_index for i in picks], dtype=np.intp)
    values = np.array([universe[i].stuck_at for i in picks],
                      dtype=np.uint8)

    kernel = BitParallelSimulator(netlist)
    reference = RefSimulator(netlist)
    for group in by_cycles(workloads):
        suite = [workloads[position] for position in group]
        packed = kernel.run_pass(suite, StuckAt(nets, values),
                                 observation=compiled)
        assert packed.error_cycles.shape == (len(suite), len(nets))
        for span, workload in enumerate(suite):
            expected = reference.run_fault_pass(
                workload, nets, values, observation=compiled,
            )
            for actual, wanted in zip(packed.row(span), expected):
                assert_bitwise(actual, wanted)

            single = kernel.run_pass([workload], StuckAt(nets, values),
                                     observation=compiled)
            for actual, wanted in zip(single.row(0), expected):
                assert_bitwise(actual, wanted)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_upsets_match_reference(data):
    netlist, workloads, compiled = build_case(data, n_flops_min=1)
    flops = [gate.output for gate in netlist.sequential_gates()]
    shortest = min(workload.cycles for workload in workloads)
    n_faults = data.draw(st.integers(1, 150), "n_faults")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    nets = rng.choice(flops, size=n_faults).astype(np.intp)
    cycles = rng.integers(0, shortest, size=n_faults)

    kernel = BitParallelSimulator(netlist)
    reference = RefSimulator(netlist)
    for group in by_cycles(workloads):
        suite = [workloads[position] for position in group]
        packed = kernel.run_pass(suite, Upset(nets, cycles),
                                 observation=compiled)
        for span, workload in enumerate(suite):
            expected = reference.run_transient_pass(
                workload, nets, cycles, observation=compiled,
            )
            for actual, wanted in zip(packed.row(span), expected):
                assert_bitwise(actual, wanted)


def assert_golden_stats_equal(actual, expected):
    assert actual.net_names == expected.net_names
    assert_bitwise(actual.ones_count, expected.ones_count)
    assert_bitwise(actual.transition_count, expected.transition_count)
    assert actual.cycles == expected.cycles
    assert actual.workloads == expected.workloads


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_golden_stats_match_reference(data):
    """One lane per workload, one pass per cycle-count group, against
    the frozen one-workload-at-a-time golden run."""
    netlist, workloads, _ = build_case(data)
    assert_golden_stats_equal(
        BitParallelSimulator(netlist).golden_stats(workloads),
        RefSimulator(netlist).golden_stats(workloads),
    )


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_golden_stats_across_word_boundary(data):
    """65-130 same-length workloads fill more than one 64-lane word;
    a few of another length make a second, one-word group."""
    netlist = random_netlist(
        n_inputs=4, n_gates=30, n_flops=4, n_outputs=3,
        seed=data.draw(st.integers(0, 2**31 - 1), "design_seed"),
    )
    n_long = data.draw(st.integers(65, 130), "n_long")
    n_short = data.draw(st.integers(1, 3), "n_short")
    workloads = [
        random_workload(netlist, cycles=9 if index < n_long else 5,
                        seed=index, reset_input="in_0",
                        name=f"w{index}")
        for index in range(n_long + n_short)
    ]
    assert_golden_stats_equal(
        BitParallelSimulator(netlist).golden_stats(workloads),
        RefSimulator(netlist).golden_stats(workloads),
    )


def test_strobed_design_suite_matches_reference(icfsm):
    """A real design with real strobes: four workloads packed into one
    pass against the reference's per-workload passes."""
    workloads = design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                                 seed=5)
    compiled = observation_for(icfsm).compile(icfsm)
    faults = full_fault_universe(icfsm)
    nets = np.array([fault.net_index for fault in faults], dtype=np.intp)
    values = np.array([fault.stuck_at for fault in faults],
                      dtype=np.uint8)
    packed = BitParallelSimulator(icfsm).run_pass(
        workloads, StuckAt(nets, values), observation=compiled,
    )
    reference = RefSimulator(icfsm)
    for span, workload in enumerate(workloads):
        expected = reference.run_fault_pass(workload, nets, values,
                                            observation=compiled)
        for actual, wanted in zip(packed.row(span), expected):
            assert_bitwise(actual, wanted)


def test_mixed_cycle_counts_rejected():
    netlist = random_netlist(n_inputs=3, n_gates=10, n_flops=2,
                             n_outputs=2, seed=3)
    workloads = [
        random_workload(netlist, cycles=cycles, seed=0,
                        reset_input="in_0")
        for cycles in (8, 9)
    ]
    faults = full_fault_universe(netlist)
    injection = StuckAt(
        np.array([fault.net_index for fault in faults]),
        np.array([fault.stuck_at for fault in faults]),
    )
    with pytest.raises(SimulationError, match="one cycle count"):
        BitParallelSimulator(netlist).run_pass(workloads, injection)
