"""Tests for VCD export and coverage-driven workload compaction."""

import re

import numpy as np
import pytest

from repro.fi import full_fault_universe
from repro.fi.testgen import generate_compact_workloads
from repro.sim import (
    BitParallelSimulator,
    Simulator,
    StuckAt,
    Workload,
    random_workload,
)
from repro.sim.vcd import dump_vcd, trace_to_vcd
from repro.utils.errors import SimulationError


class TestVcd:
    def test_structure_and_roundtrip(self, tiny_netlist, tmp_path):
        workload = Workload.from_dicts(
            "w", tiny_netlist,
            [{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 1, "b": 1}],
        )
        path = tmp_path / "wave.vcd"
        trace = dump_vcd(tiny_netlist, workload, path)
        text = path.read_text()

        assert "$timescale 1ns $end" in text
        assert "$enddefinitions $end" in text
        assert "clk" in text
        # Every input/output declared.
        for name in ("a", "b", "y", "yn"):
            assert re.search(rf"\$var wire 1 \S+ {name} \$end", text)

        # Replay the dump for output 'y' and compare with the trace.
        var_match = re.search(r"\$var wire 1 (\S+) y \$end", text)
        code = re.escape(var_match.group(1))
        changes = re.findall(rf"^([01]){code}$", text, flags=re.M)
        # y: 1 -> 0 -> 1 means three change records.
        assert [int(c) for c in changes] == [1, 0, 1]
        assert list(trace.output("y")) == [1, 0, 1]

    def test_value_change_semantics(self, tiny_netlist):
        """Only changes are dumped; constant signals appear once."""
        workload = Workload.from_dicts(
            "w", tiny_netlist,
            [{"a": 1, "b": 1}] * 4,
        )
        trace = Simulator(tiny_netlist).run(workload)
        text = trace_to_vcd(trace, workload)
        var_match = re.search(r"\$var wire 1 (\S+) y \$end", text)
        code = re.escape(var_match.group(1))
        changes = re.findall(rf"^([01]){code}$", text, flags=re.M)
        assert len(changes) == 1  # constant after the first cycle

    def test_internal_nets_included(self, icfsm, tmp_path):
        workload = random_workload(icfsm, cycles=10, seed=0)
        path = tmp_path / "icfsm.vcd"
        dump_vcd(icfsm, workload, path, record_nets=True)
        text = path.read_text()
        assert "$scope module internal $end" in text
        # All nets present: timestep count matches cycles.
        last_time = max(
            int(t) for t in re.findall(r"^#(\d+)$", text, flags=re.M)
        )
        assert last_time == 2 * workload.cycles

    def test_length_mismatch_rejected(self, tiny_netlist):
        workload = Workload.from_dicts("w", tiny_netlist,
                                       [{"a": 1, "b": 0}] * 3)
        trace = Simulator(tiny_netlist).run(workload)
        short = Workload.from_dicts("w2", tiny_netlist,
                                    [{"a": 1, "b": 0}] * 2)
        with pytest.raises(SimulationError):
            trace_to_vcd(trace, short)


class TestCompaction:
    def test_reaches_coverage_on_small_design(self, icfsm):
        # Random vectors cannot excite the tag-match path (an 8-bit
        # coincidence), so ~0.55 is the realistic random-ATPG ceiling
        # here; protocol-aware candidates go much higher (next test).
        result = generate_compact_workloads(
            icfsm, target_coverage=0.5, candidate_budget=20,
            cycles=80, seed=0,
        )
        assert result.coverage >= 0.5
        assert len(result.workloads) <= result.candidates_tried
        # History is monotonically increasing.
        assert all(
            later > earlier
            for earlier, later in zip(result.coverage_history,
                                      result.coverage_history[1:])
        )

    def test_selected_suite_actually_detects(self, icfsm):
        """Re-simulating the selected suite reproduces the coverage."""
        result = generate_compact_workloads(
            icfsm, target_coverage=0.6, candidate_budget=15,
            cycles=80, seed=1,
        )
        faults = full_fault_universe(icfsm)
        engine = BitParallelSimulator(icfsm)
        detected = np.zeros(len(faults), dtype=bool)
        for workload in result.workloads:
            errors = engine.run_pass(
                [workload], StuckAt(
                    np.array([fault.net_index for fault in faults]),
                    np.array([fault.stuck_at for fault in faults]),
                ),
            ).error_cycles[0]
            detected |= errors > 0
        assert detected.mean() == pytest.approx(result.coverage)

    def test_budget_respected(self, icfsm):
        result = generate_compact_workloads(
            icfsm, target_coverage=1.0, candidate_budget=3,
            cycles=40, seed=2,
        )
        assert result.candidates_tried <= 3
        assert len(result.undetected) > 0  # 100% not reachable in 3

    def test_validation(self, icfsm):
        with pytest.raises(SimulationError):
            generate_compact_workloads(icfsm, target_coverage=0.0)
        with pytest.raises(SimulationError):
            generate_compact_workloads(icfsm, faults=[])

    def test_custom_candidate_generator(self, icfsm):
        from repro.sim import icfsm_workload

        def protocol_candidates(index):
            return icfsm_workload(icfsm, cycles=80, seed=(9, index),
                                  name=f"proto[{index}]")

        result = generate_compact_workloads(
            icfsm, target_coverage=0.8, candidate_budget=12,
            candidate_generator=protocol_candidates,
        )
        assert all(w.name.startswith("proto[") for w in result.workloads)
        # Protocol awareness reaches coverage random vectors cannot.
        assert result.coverage >= 0.8
