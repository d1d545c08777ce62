"""Tests for the transient-fault (SEU) extension."""

import numpy as np
import pytest

from repro.fi import (
    TransientFault,
    dataset_from_campaign,
    run_transient_campaign,
    transient_fault_universe,
)
from repro.netlist import Netlist
from repro.sim import (
    BitParallelSimulator,
    Simulator,
    Upset,
    Workload,
    design_workloads,
    random_workload,
)
from repro.utils.errors import SimulationError


def toggle_counter_netlist():
    """A 2-bit counter observed directly: upsets are architecturally
    permanent (the wrong count persists), so effects are predictable."""
    from repro.circuits import CircuitBuilder, up_counter

    builder = CircuitBuilder("ctr")
    reset = builder.input("rst")
    ports = up_counter(builder, 2, reset)
    builder.output_bus(ports.value, "q")
    return builder.netlist


class TestTransientEngine:
    def test_upset_flips_exactly_from_injection(self):
        netlist = toggle_counter_netlist()
        flop = netlist.sequential_gates()[0]  # counter bit 0
        workload = Workload.from_dicts(
            "w", netlist,
            [{"rst": 1}] + [{"rst": 0}] * 9,
        )
        engine = BitParallelSimulator(netlist)
        error_cycles, detection, latent = engine.run_pass(
            [workload], Upset(np.array([flop.output]), np.array([4])),
        ).row(0)
        # Bit 0 of a free-running counter: flipping it changes q_0 on
        # every subsequent cycle and q_1 thereafter — detected at the
        # injection cycle, erroneous until the end.
        assert detection[0] == 4
        assert error_cycles[0] == 10 - 4

    def test_golden_machine_clean(self, icfsm):
        workload = random_workload(icfsm, cycles=40, seed=0)
        flops = icfsm.sequential_gates()
        engine = BitParallelSimulator(icfsm)
        error_cycles, detection, latent = engine.run_pass(
            [workload], Upset(
                np.array([gate.output for gate in flops[:10]]),
                np.full(10, 5),
            ),
        ).row(0)
        assert len(error_cycles) == 10
        assert (error_cycles >= 0).all()

    def test_rejects_combinational_targets(self, tiny_netlist):
        workload = Workload.from_dicts("w", tiny_netlist,
                                       [{"a": 1, "b": 1}] * 4)
        engine = BitParallelSimulator(tiny_netlist)
        gate = tiny_netlist.gates[0]  # AN2 — not a flop
        with pytest.raises(SimulationError, match="flip-flop"):
            engine.run_pass(
                [workload], Upset(np.array([gate.output]), np.array([1]))
            )

    def test_rejects_out_of_range_cycle(self):
        netlist = toggle_counter_netlist()
        flop = netlist.sequential_gates()[0]
        workload = Workload.from_dicts("w", netlist, [{"rst": 0}] * 5)
        engine = BitParallelSimulator(netlist)
        with pytest.raises(SimulationError, match="injection cycle"):
            engine.run_pass(
                [workload], Upset(np.array([flop.output]), np.array([9]))
            )

    def test_matches_scalar_flip(self):
        """Cross-check against the scalar simulator with a manual state
        flip at the injection cycle."""
        netlist = toggle_counter_netlist()
        flop = netlist.sequential_gates()[1]  # counter bit 1
        rows = [{"rst": 1}] + [{"rst": 0}] * 11
        workload = Workload.from_dicts("w", netlist, rows)

        golden = Simulator(netlist).run(workload).outputs

        reference = Simulator(netlist)
        reference.reset()
        outputs = []
        for cycle, row in enumerate(rows):
            if cycle == 6:
                reference._values[flop.output] ^= 1
            observed = reference.step(row)
            outputs.append([observed["q_0"], observed["q_1"]])
        outputs = np.array(outputs, dtype=np.uint8)

        engine = BitParallelSimulator(netlist)
        error_cycles, detection, latent = engine.run_pass(
            [workload], Upset(np.array([flop.output]), np.array([6]))
        ).row(0)
        expected_errors = int((outputs != golden).any(axis=1).sum())
        assert error_cycles[0] == expected_errors
        mismatch_cycles = np.flatnonzero((outputs != golden).any(axis=1))
        assert detection[0] == mismatch_cycles[0]


class TestTransientUniverse:
    def test_universe_shape(self, icfsm):
        faults = transient_fault_universe(icfsm, cycles=100,
                                          injections_per_flop=6, seed=0)
        flops = icfsm.sequential_gates()
        assert len(faults) == 6 * len(flops)
        by_node = {}
        for fault in faults:
            by_node.setdefault(fault.node_name, set()).add(fault.cycle)
        assert all(len(cycles) == 6 for cycles in by_node.values())
        # injections restricted to the first half past warm-up
        assert all(4 <= fault.cycle < 50 for fault in faults)

    def test_universe_validation(self, tiny_netlist, icfsm):
        with pytest.raises(SimulationError, match="no flip-flops"):
            transient_fault_universe(tiny_netlist, cycles=100)
        with pytest.raises(SimulationError, match="cannot place"):
            transient_fault_universe(icfsm, cycles=20,
                                     injections_per_flop=50)

    def test_fault_name(self):
        fault = TransientFault(gate_index=0, net_index=1,
                               node_name="DFF_U1", cycle=7)
        assert fault.name == "DFF_U1/SEU@7"


class TestTransientCampaign:
    def test_campaign_and_dataset(self, icfsm):
        workloads = design_workloads(icfsm.name, icfsm, count=4,
                                     cycles=100, seed=0)
        campaign = run_transient_campaign(
            icfsm, workloads, injections_per_flop=4, seed=0
        )
        flops = icfsm.sequential_gates()
        assert len(campaign.faults) == 4 * len(flops)
        dataset = dataset_from_campaign(campaign)
        assert dataset.n_nodes == len(flops)
        assert dataset.scores.min() >= 0.0
        assert dataset.scores.max() <= 1.0
        # Permanent stuck-ats strictly dominate single upsets.
        from repro.fi import run_campaign

        permanent = dataset_from_campaign(run_campaign(icfsm, workloads))
        flop_names = {gate.node_name for gate in flops}
        permanent_scores = {
            name: score for name, score in
            zip(permanent.node_names, permanent.scores)
            if name in flop_names
        }
        assert dataset.scores.mean() <= (
            np.mean(list(permanent_scores.values())) + 1e-9
        )

    def test_campaign_empty_workloads(self, icfsm):
        with pytest.raises(SimulationError):
            run_transient_campaign(icfsm, [])
