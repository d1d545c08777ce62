"""Tests for selective TMR hardening."""

import numpy as np
import pytest

from repro.fi import dataset_from_campaign, faults_for_nodes, run_campaign
from repro.netlist import validate
from repro.netlist.transform import harden_nodes, hardened_node_names
from repro.sim import (
    BitParallelSimulator,
    Simulator,
    StuckAt,
    random_workload,
)


def test_hardening_preserves_behaviour(icfsm):
    targets = [icfsm.node_names()[i] for i in (5, 20, 40)]
    hardened = harden_nodes(icfsm, targets)
    validate(hardened)
    assert hardened.n_gates == icfsm.n_gates + 3 * 6  # 2 replicas + 4 voter gates per node
    workload = random_workload(icfsm, cycles=60, seed=3)
    original = Simulator(icfsm).run(workload).outputs
    protected = Simulator(hardened).run(workload).outputs
    assert np.array_equal(original, protected)


def test_hardening_is_non_destructive(icfsm):
    before = icfsm.n_gates
    harden_nodes(icfsm, [icfsm.node_names()[0]])
    assert icfsm.n_gates == before


def test_single_fault_on_replica_is_masked(icfsm):
    """A stuck-at on the hardened gate's own output is outvoted."""
    workload = random_workload(icfsm, cycles=80, seed=1)

    # Pick a node whose faults are actually observed under this
    # workload, so masking is demonstrable.
    plain_engine = BitParallelSimulator(icfsm)
    target = None
    for candidate in icfsm.node_names()[5:60]:
        plain_faults = faults_for_nodes(icfsm, [candidate])
        plain_errors = plain_engine.run_pass(
            [workload], StuckAt(
                np.array([fault.net_index for fault in plain_faults]),
                np.array([fault.stuck_at for fault in plain_faults]),
            ),
        ).error_cycles[0]
        if plain_errors.min() > 0:  # both polarities observable
            target = candidate
            break
    assert target is not None, "no observable node found"

    hardened = harden_nodes(icfsm, [target])
    faults = faults_for_nodes(hardened, [target])
    engine = BitParallelSimulator(hardened)
    error_cycles, detection, latent = engine.run_pass(
        [workload], StuckAt(
            np.array([fault.net_index for fault in faults]),
            np.array([fault.stuck_at for fault in faults]),
        ),
    ).row(0)
    assert (error_cycles == 0).all()


def test_hardening_flops_preserves_behaviour(icfsm):
    flop_nodes = [gate.node_name
                  for gate in icfsm.sequential_gates()[:4]]
    hardened = harden_nodes(icfsm, flop_nodes)
    validate(hardened)
    workload = random_workload(icfsm, cycles=60, seed=7)
    original = Simulator(icfsm).run(workload).outputs
    protected = Simulator(hardened).run(workload).outputs
    assert np.array_equal(original, protected)


def test_hardened_node_names_reported(icfsm):
    target = icfsm.node_names()[3]
    hardened = harden_nodes(icfsm, [target])
    added = hardened_node_names(icfsm, hardened)
    assert len(added) == 6
    assert all("tmr_" in name for name in added)


def test_hardening_reduces_design_failure_probability(icfsm):
    """Closing the loop: hardening the measured-most-critical nodes
    lowers the design's expected failure rate under a random fault."""
    from repro.sim import design_workloads

    workloads = design_workloads(icfsm.name, icfsm, count=6,
                                 cycles=120, seed=0)
    baseline = run_campaign(icfsm, workloads)
    baseline_dataset = dataset_from_campaign(baseline)
    order = np.argsort(-baseline_dataset.scores)
    worst = [baseline_dataset.node_names[i] for i in order[:12]]

    hardened = harden_nodes(icfsm, worst)
    protected = run_campaign(hardened, workloads)
    protected_dataset = dataset_from_campaign(protected)

    # Expected failures per uniformly-random single fault.
    assert protected_dataset.scores.mean() < (
        baseline_dataset.scores.mean()
    )
    # The hardened nodes themselves became benign.
    for name in worst:
        assert protected_dataset.score_of(name) <= (
            baseline_dataset.score_of(name)
        )
