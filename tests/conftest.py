"""Shared fixtures.

Expensive artifacts (designs, workload suites, campaigns, trained
analyzers) are session-scoped so the suite stays fast while integration
tests exercise the real pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    build_or1200_icfsm,
    build_or1200_if,
    build_sdram_controller,
    build_uart,
    random_netlist,
)
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.fi import run_campaign
from repro.netlist import Netlist
from repro.sim import Workload, design_workloads


@pytest.fixture(scope="session")
def sdram():
    return build_sdram_controller()


@pytest.fixture(scope="session")
def or1200_if():
    return build_or1200_if()


@pytest.fixture(scope="session")
def icfsm():
    return build_or1200_icfsm()


@pytest.fixture(scope="session")
def icfsm_mixed_suite(icfsm):
    """Four or1200_icfsm workloads of 60, 40, 60 and 40 cycles.

    A campaign packs same-length workloads into one unit, so this suite
    runs as two units even serially: rows 0 and 2, then rows 1 and 3.
    """
    suite = design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                             seed=0)
    return [
        Workload(workload.name, workload.input_names,
                 workload.vectors[:40] if row % 2 else workload.vectors)
        for row, workload in enumerate(suite)
    ]


@pytest.fixture(scope="session")
def icfsm_mixed_baseline(icfsm, icfsm_mixed_suite):
    """Serial, unsharded campaign over :func:`icfsm_mixed_suite`."""
    return run_campaign(icfsm, icfsm_mixed_suite)


@pytest.fixture(scope="session")
def uart():
    return build_uart()


@pytest.fixture(scope="session")
def all_designs(sdram, or1200_if, icfsm):
    return [sdram, or1200_if, icfsm]


@pytest.fixture(scope="session")
def small_random_netlist():
    return random_netlist(n_inputs=6, n_gates=40, n_flops=5,
                          n_outputs=4, seed=11)


@pytest.fixture()
def tiny_netlist():
    """a AND b -> y, with an inverter tap: fresh per test (mutable)."""
    netlist = Netlist("tiny")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.add_gate("AN2", [a, b], instance="U1")
    inv = netlist.add_gate("IV", [y], instance="U2")
    netlist.add_output(y, "y")
    netlist.add_output(inv, "yn")
    return netlist


@pytest.fixture(scope="session")
def icfsm_analyzer(icfsm):
    """A fully-run analyzer on the smallest design (session-cached)."""
    config = AnalyzerConfig(n_workloads=12, workload_cycles=150, seed=0)
    analyzer = FaultCriticalityAnalyzer(icfsm, config)
    analyzer.classifier  # force the expensive stages once
    analyzer.regressor
    return analyzer
