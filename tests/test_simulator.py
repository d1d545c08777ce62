"""Tests for the scalar simulator and stimulus containers."""

import numpy as np
import pytest

from repro.circuits import random_netlist
from repro.netlist import Netlist
from repro.sim import Simulator, Workload, random_workload
from repro.utils.errors import SimulationError


def test_step_combinational(tiny_netlist):
    sim = Simulator(tiny_netlist)
    assert sim.step({"a": 1, "b": 1}) == {"y": 1, "yn": 0}
    assert sim.step({"a": 1, "b": 0}) == {"y": 0, "yn": 1}


def test_step_holds_missing_inputs(tiny_netlist):
    sim = Simulator(tiny_netlist)
    sim.step({"a": 1, "b": 1})
    assert sim.step({})["y"] == 1  # both inputs held
    assert sim.step({"b": 0})["y"] == 0


def test_step_unknown_input(tiny_netlist):
    sim = Simulator(tiny_netlist)
    with pytest.raises(SimulationError, match="unknown inputs"):
        sim.step({"zz": 1})


def test_rejected_step_applies_no_input(sdram):
    """A step naming an unknown input raises before it drives anything:
    the known input it also named must not be held into the next step."""
    rejected, clean = Simulator(sdram), Simulator(sdram)
    with pytest.raises(SimulationError, match="no_such_input"):
        rejected.step({"req": 1, "no_such_input": 1})
    assert rejected._values == clean._values
    assert rejected.step({}) == clean.step({})


def test_reset_clears_state():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    flop = netlist.add_gate("DFF", [a])
    netlist.add_output(flop, "q")
    sim = Simulator(netlist)
    sim.step({"a": 1})
    assert sim.step({"a": 0})["q"] == 1
    sim.reset()
    assert sim.step({"a": 0})["q"] == 0


def test_run_workload_and_trace(tiny_netlist):
    workload = Workload.from_dicts(
        "w", tiny_netlist,
        [{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 1, "b": 1}],
    )
    trace = Simulator(tiny_netlist).run(workload)
    assert trace.cycles == 3
    assert list(trace.output("y")) == [1, 0, 1]
    assert list(trace.output("yn")) == [0, 1, 0]
    with pytest.raises(SimulationError):
        trace.output("nope")


def test_run_records_net_values(tiny_netlist):
    workload = Workload.from_dicts("w", tiny_netlist, [{"a": 1, "b": 1}])
    trace = Simulator(tiny_netlist).run(workload, record_nets=True)
    assert trace.net_values.shape == (1, tiny_netlist.n_nets)
    index = tiny_netlist.net_index("a")
    assert trace.net_values[0, index] == 1


def test_run_rejects_misaligned_workload(tiny_netlist, small_random_netlist):
    workload = random_workload(small_random_netlist, cycles=5, seed=0)
    with pytest.raises(SimulationError, match="input order"):
        Simulator(tiny_netlist).run(workload)


def test_run_driver_records_replayable_stimulus(icfsm):
    sim = Simulator(icfsm)
    observed_acks = []

    def driver(cycle, outputs):
        observed_acks.append(outputs.get("ack", 0))
        return {"reset": 1 if cycle < 2 else 0, "ic_en": 1, "cycstb": 1,
                "tag0_v_in": 1, "tag1_v_in": 1}

    workload = sim.run_driver(driver, 30, name="closed-loop")
    assert workload.cycles == 30
    replay = Simulator(icfsm).run(workload)
    # The recorded workload reproduces the closed-loop run exactly:
    # acks seen by the driver (delayed one cycle) match the trace.
    assert list(replay.output("ack")[:-1]) == observed_acks[1:]


def test_run_driver_rejects_unknown_inputs(tiny_netlist):
    sim = Simulator(tiny_netlist)
    with pytest.raises(SimulationError, match="unknown input"):
        sim.run_driver(lambda cycle, outputs: {"zz": 1}, 3)


def test_workload_from_dicts_validation(tiny_netlist):
    with pytest.raises(SimulationError, match="unknown input"):
        Workload.from_dicts("w", tiny_netlist, [{"zz": 1}])


def test_workload_shape_validation():
    with pytest.raises(SimulationError):
        Workload("w", ["a"], np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(SimulationError):
        Workload("w", ["a"], np.full((3, 1), 2, dtype=np.uint8))


def test_workload_column(tiny_netlist):
    workload = Workload.from_dicts(
        "w", tiny_netlist, [{"a": 1}, {"a": 0}, {"a": 1}]
    )
    assert list(workload.column("a")) == [1, 0, 1]
    with pytest.raises(SimulationError):
        workload.column("zz")


def test_trace_output_word(icfsm):
    workload = random_workload(icfsm, cycles=20, seed=3)
    trace = Simulator(icfsm).run(workload)
    word = trace.output_word("refill_word")
    bits0 = trace.output("refill_word_0")
    bits1 = trace.output("refill_word_1")
    assert np.array_equal(word, bits0 + 2 * bits1)
    with pytest.raises(SimulationError):
        trace.output_word("nope")


def test_random_workload_reset_pulse(icfsm):
    workload = random_workload(icfsm, cycles=30, seed=0, reset_cycles=3)
    reset = workload.column("reset")
    assert list(reset[:3]) == [1, 1, 1]
    assert reset[3:].sum() == 0


def test_random_workload_hold(icfsm):
    workload = random_workload(icfsm, cycles=21, seed=0, hold=3)
    vectors = workload.vectors[3:]  # past the reset pulse... rows repeat
    # With hold=3 consecutive triples repeat (modulo boundary effects).
    repeats = sum(
        np.array_equal(vectors[i], vectors[i + 1])
        for i in range(len(vectors) - 1)
    )
    assert repeats >= len(vectors) // 2
