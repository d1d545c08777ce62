"""Behavioural and pipeline tests for the UART design."""

import numpy as np

from repro.circuits.uart import BAUD_DIVISOR, DATA_BITS, FRAME_CYCLES
from repro.netlist import validate
from repro.sim import Simulator, design_workloads, uart_workload


def loopback(sim, byte, corrupt_at=None, break_stop=False):
    """Drive one frame with txd looped into rxd; returns the outcome."""
    row = {"tx_start": 1, "rxd": 1, "reset": 0}
    row.update({f"tx_data_{i}": (byte >> i) & 1 for i in range(DATA_BITS)})
    out = sim.step(row)
    row["tx_start"] = 0
    for cycle in range(FRAME_CYCLES + 20):
        line = out["txd"]
        if corrupt_at is not None and cycle == corrupt_at:
            line ^= 1
        if break_stop and out["tx_busy"] and cycle > FRAME_CYCLES - 6:
            line = 0  # stomp the stop bit
        row["rxd"] = line
        out = sim.step(row)
        if out["rx_valid"]:
            return ("ok", sum(out[f"rx_data_{i}"] << i
                              for i in range(DATA_BITS)))
        if out["rx_parity_err"]:
            return ("parity", None)
        if out["rx_frame_err"]:
            return ("frame", None)
    return ("timeout", None)


class TestUartBehaviour:
    def test_validates(self, uart):
        validate(uart)
        assert uart.n_gates > 150

    def test_loopback_all_walking_patterns(self, uart):
        sim = Simulator(uart)
        sim.step({"reset": 1, "rxd": 1})
        sim.step({"reset": 0, "rxd": 1})
        for byte in [0x00, 0xFF] + [1 << i for i in range(8)] + [0xA5]:
            status, received = loopback(sim, byte)
            assert status == "ok" and received == byte, hex(byte)

    def test_tx_busy_covers_frame(self, uart):
        sim = Simulator(uart)
        sim.step({"reset": 1, "rxd": 1})
        sim.step({"reset": 0, "rxd": 1})
        row = {"tx_start": 1, "rxd": 1}
        row.update({f"tx_data_{i}": 1 for i in range(DATA_BITS)})
        out = sim.step(row)
        busy_cycles = 0
        row["tx_start"] = 0
        done_seen = False
        for _ in range(FRAME_CYCLES + 10):
            row["rxd"] = out["txd"]
            out = sim.step(row)
            busy_cycles += out["tx_busy"]
            done_seen |= bool(out["tx_done"])
        assert done_seen
        # start + 8 data + parity + stop bit periods
        assert busy_cycles == BAUD_DIVISOR * (DATA_BITS + 3)

    def test_corrupted_data_bit_raises_parity_error(self, uart):
        sim = Simulator(uart)
        sim.step({"reset": 1, "rxd": 1})
        sim.step({"reset": 0, "rxd": 1})
        # Flip the line exactly at a receiver sampling instant (the
        # mid-bit sample lands every BAUD_DIVISOR cycles at offset 3);
        # glitches between sampling points are correctly ignored.
        corrupt = BAUD_DIVISOR * 3 + 3  # a data-bit sample point
        status, _ = loopback(sim, 0x5A, corrupt_at=corrupt)
        assert status in ("parity", "frame")
        # The receiver recovers: a following clean frame succeeds.
        for _ in range(FRAME_CYCLES):
            sim.step({"rxd": 1, "tx_start": 0})
        status, received = loopback(sim, 0x3C)
        assert status == "ok" and received == 0x3C

    def test_line_idle_high(self, uart):
        sim = Simulator(uart)
        sim.step({"reset": 1, "rxd": 1})
        for _ in range(10):
            out = sim.step({"reset": 0, "rxd": 1, "tx_start": 0})
            assert out["txd"] == 1
            assert out["rx_valid"] == 0


class TestUartWorkloads:
    def test_loopback_workload_delivers_bytes(self, uart):
        workload = uart_workload(uart, cycles=300, seed=1,
                                 send_rate=0.8)
        trace = Simulator(uart).run(workload)
        assert trace.output("rx_valid").sum() >= 3
        assert trace.output("rx_parity_err").sum() == 0

    def test_noisy_workload_raises_errors(self, uart):
        workload = uart_workload(uart, cycles=400, seed=2,
                                 send_rate=0.9, noise_rate=0.05)
        trace = Simulator(uart).run(workload)
        errors = (trace.output("rx_parity_err").sum()
                  + trace.output("rx_frame_err").sum())
        assert errors >= 1

    def test_suite_registered(self, uart):
        suite = design_workloads("uart", uart, count=6, cycles=120,
                                 seed=0)
        assert len(suite) == 6
        assert all(w.name.startswith("uart[") for w in suite)


class TestUartPipeline:
    def test_full_analysis(self, uart):
        from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer

        analyzer = FaultCriticalityAnalyzer(
            uart, AnalyzerConfig(n_workloads=10, workload_cycles=250,
                                 seed=0),
        )
        dataset = analyzer.dataset
        assert 0.05 < dataset.critical_fraction < 0.95
        accuracy = analyzer.validation_accuracy()
        majority = max(dataset.critical_fraction,
                       1 - dataset.critical_fraction)
        assert accuracy >= majority - 0.1
