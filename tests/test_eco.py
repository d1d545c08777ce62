"""ECO mode: netlist diffing, the CSR adjacency cache, dirty-region
computation, and bitwise incremental-vs-full campaign equality."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_netlist
from repro.core import AnalyzerConfig, EcoAnalysis, FaultCriticalityAnalyzer
from repro.features import extract_features, patch_features
from repro.fi import (
    EcoTraces,
    WorkloadFailure,
    compute_dirty_region,
    run_campaign,
    run_campaign_with_traces,
    run_eco_campaign,
    run_eco_transient_campaign,
    run_transient_campaign,
)
from repro.fi.eco import ECO_TRACES_NAME
from repro.netlist import (
    Netlist,
    check_equivalence,
    diff_netlists,
    from_verilog,
    to_verilog,
)
from repro.sim import design_workloads
from repro.utils.errors import EcoError, NetlistError

TWO_INPUT_CELLS = ("AN2", "ND2", "NR2", "OR2", "XOR2", "XNR2")


def _cell_swap(text: str, occurrence: int = 0) -> str:
    """Swap the Nth two-input combinational instance to the next cell
    in the rotation — a single-gate functional ECO, applied as text so
    the edited design goes through the real Verilog reader."""
    pattern = rf"\b({'|'.join(TWO_INPUT_CELLS)}) (\w+) "
    matches = list(re.finditer(pattern, text))
    assert matches, "no two-input combinational gates to edit"
    match = matches[occurrence % len(matches)]
    old_cell = match.group(1)
    new_cell = TWO_INPUT_CELLS[
        (TWO_INPUT_CELLS.index(old_cell) + 1) % len(TWO_INPUT_CELLS)
    ]
    return (
        text[: match.start()]
        + f"{new_cell} {match.group(2)} "
        + text[match.end():]
    )


def _assert_campaigns_bitwise(result, reference):
    assert [f.node_name for f in result.faults] == [
        f.node_name for f in reference.faults
    ]
    assert np.array_equal(result.error_cycles, reference.error_cycles)
    assert np.array_equal(
        result.detection_cycle, reference.detection_cycle
    )
    assert np.array_equal(result.latent, reference.latent)
    assert not result.failures and not reference.failures


@pytest.fixture(scope="module")
def eco_pair():
    """(old, new, workloads): a random sequential design and a
    single-gate cell-swap ECO of it, both via the Verilog reader."""
    built = random_netlist(n_inputs=6, n_gates=36, n_flops=5,
                           n_outputs=4, seed=23, name="ecokit")
    text = to_verilog(built)
    old = from_verilog(text)
    new = from_verilog(_cell_swap(text, occurrence=5))
    workloads = design_workloads(old.name, old, count=3, cycles=32,
                                 seed=1)
    return old, new, workloads


@pytest.fixture(scope="module")
def base_campaign(eco_pair):
    old, _, workloads = eco_pair
    return run_campaign(old, workloads)


@pytest.fixture(scope="module")
def full_new_campaign(eco_pair):
    _, new, workloads = eco_pair
    return run_campaign(new, workloads)


# ----------------------------------------------------------------------
# netlist diffing
# ----------------------------------------------------------------------
def _tiny() -> Netlist:
    netlist = Netlist("tiny_eco")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.add_gate("AN2", [a, b], instance="U1")
    z = netlist.add_gate("IV", [a], instance="U2")
    netlist.add_output(y, "y")
    netlist.add_output(z, "z")
    return netlist


def test_diff_identical_designs_is_empty(eco_pair):
    old, _, _ = eco_pair
    again = from_verilog(to_verilog(old))
    diff = diff_netlists(old, again)
    assert diff.is_empty
    assert diff.n_edits == 0
    assert "no structural differences" in diff.summary()


def test_diff_reports_cell_swap(eco_pair):
    old, new, _ = eco_pair
    diff = diff_netlists(old, new)
    assert not diff.is_empty
    assert len(diff.changed_gates) == 1
    change = diff.changed_gates[0]
    assert change.cell_changed
    assert change.old_inputs == change.new_inputs
    assert change.instance in diff.summary()


def test_diff_reports_added_and_removed_gates():
    old = _tiny()
    new = _tiny()
    extra = new.add_gate("IV", [new.net_index("n_U1")], instance="U9")
    diff = diff_netlists(old, new)
    assert diff.added_gates == ("U9",)
    assert not diff.removed_gates
    reverse = diff_netlists(new, old)
    assert reverse.removed_gates == ("U9",)
    assert extra is not None


def test_diff_reports_redriven_output():
    old = _tiny()
    new = Netlist("tiny_eco")
    a = new.add_input("a")
    b = new.add_input("b")
    y = new.add_gate("AN2", [a, b], instance="U1")
    z = new.add_gate("IV", [a], instance="U2")
    new.add_output(z, "y")        # port y now bound to the inverter
    new.add_output(y, "z")
    diff = diff_netlists(old, new)
    assert set(diff.redriven_outputs) == {"y", "z"}


# ----------------------------------------------------------------------
# CSR adjacency cache (satellite: shared fanin/fanout substrate)
# ----------------------------------------------------------------------
def test_adjacency_matches_list_scan(eco_pair):
    old, _, _ = eco_pair
    adjacency = old.gate_adjacency()
    for gate in old.gates:
        drivers = []
        for net in gate.inputs:
            driver = old.nets[net].driver
            if (driver is not None and driver != gate.index
                    and driver not in drivers):
                drivers.append(driver)
        readers = []
        for sink_gate, _ in old.nets[gate.output].sinks:
            if sink_gate != gate.index and sink_gate not in readers:
                readers.append(sink_gate)
        assert old.fanin_gates(gate) == drivers
        assert old.fanout_gates(gate) == readers
        assert adjacency.fanin_row(gate.index).tolist() == drivers


def test_adjacency_cache_invalidated_by_mutation():
    netlist = _tiny()
    u1 = netlist.gate_by_instance("U1")
    assert netlist.fanout_gates(u1) == []
    first = netlist.gate_adjacency()
    assert netlist.gate_adjacency() is first        # cached
    netlist.add_gate("IV", [netlist.net_index("n_U1")], instance="U3")
    assert netlist.gate_adjacency() is not first    # invalidated
    u3 = netlist.gate_by_instance("U3")
    assert netlist.fanout_gates(u1) == [u3.index]
    # add_output changes fanout connection counts (PO ports count).
    before = netlist.fanout_count(u3)
    netlist.add_output(u3.output, "tap")
    assert netlist.fanout_count(u3) == before + 1


# ----------------------------------------------------------------------
# check_equivalence(outputs=...) (satellite)
# ----------------------------------------------------------------------
def test_equivalence_output_subset():
    old = _tiny()
    new = Netlist("tiny_eco")
    a = new.add_input("a")
    b = new.add_input("b")
    y = new.add_gate("AN2", [a, b], instance="U1")
    z = new.add_gate("BUF", [a], instance="U2")   # was an inverter
    new.add_output(y, "y")
    new.add_output(z, "z")
    full = check_equivalence(old, new, workloads=2, cycles=16)
    assert not full.equivalent
    assert full.counterexample.output == "z"
    subset = check_equivalence(old, new, workloads=2, cycles=16,
                               outputs=["y"])
    assert subset.equivalent
    with pytest.raises(NetlistError):
        check_equivalence(old, new, outputs=["nope"])


# ----------------------------------------------------------------------
# dirty regions
# ----------------------------------------------------------------------
def test_dirty_region_empty_for_identical(eco_pair):
    old, _, _ = eco_pair
    region = compute_dirty_region(old, from_verilog(to_verilog(old)))
    assert region.n_dirty == 0
    assert not region.affected_outputs
    assert set(region.clean_outputs) == set(old.output_names())


def test_dirty_region_covers_edit(eco_pair):
    old, new, _ = eco_pair
    diff = diff_netlists(old, new)
    region = compute_dirty_region(old, new, diff=diff)
    change = diff.changed_gates[0]
    edited = new.gate_by_instance(change.instance)
    assert region.is_dirty(edited.node_name)
    # affected + clean outputs partition the edited design's ports
    assert (set(region.affected_outputs) | set(region.clean_outputs)
            == set(new.output_names()))
    assert not (set(region.affected_outputs)
                & set(region.clean_outputs))
    assert "dirty" in region.summary()


# ----------------------------------------------------------------------
# incremental campaigns: bitwise equality against a full rerun
# ----------------------------------------------------------------------
def test_eco_campaign_bitwise_serial(eco_pair, base_campaign,
                                     full_new_campaign):
    old, new, workloads = eco_pair
    eco = run_eco_campaign(old, new, workloads, base=base_campaign)
    _assert_campaigns_bitwise(eco.result, full_new_campaign)
    assert eco.n_dirty + eco.n_reused == eco.n_faults
    assert 0.0 <= eco.reuse_fraction <= 1.0
    assert "re-simulated" in eco.summary()


def test_eco_campaign_bitwise_parallel_sharded(
        eco_pair, base_campaign, full_new_campaign, tmp_path):
    old, new, workloads = eco_pair
    eco = run_eco_campaign(
        old, new, workloads, base=base_campaign,
        jobs=2, shard_size=8,
        checkpoint_dir=tmp_path / "dirty",
    )
    _assert_campaigns_bitwise(eco.result, full_new_campaign)
    # resume of the dirty sub-campaign replays from checkpoints
    resumed = run_eco_campaign(
        old, new, workloads, base=base_campaign,
        jobs=2, shard_size=8,
        checkpoint_dir=tmp_path / "dirty", resume=True,
    )
    _assert_campaigns_bitwise(resumed.result, full_new_campaign)


def test_eco_campaign_collapsed_dirty_pass(eco_pair, base_campaign,
                                           full_new_campaign):
    old, new, workloads = eco_pair
    eco = run_eco_campaign(old, new, workloads, base=base_campaign,
                           collapse=True)
    _assert_campaigns_bitwise(eco.result, full_new_campaign)


@pytest.mark.parametrize("collapse", [False, True])
def test_eco_campaign_from_checkpoint_store(
        eco_pair, full_new_campaign, tmp_path, collapse):
    old, new, workloads = eco_pair
    store = tmp_path / f"base-{collapse}"
    run_campaign(old, workloads, collapse=collapse,
                 checkpoint_dir=store)
    eco = run_eco_campaign(old, new, workloads,
                           base_checkpoint_dir=store)
    _assert_campaigns_bitwise(eco.result, full_new_campaign)
    assert eco.base_seconds > 0.0


# ----------------------------------------------------------------------
# typed refusals — never a silent merge
# ----------------------------------------------------------------------
def test_eco_requires_exactly_one_baseline(eco_pair, base_campaign,
                                           tmp_path):
    old, new, workloads = eco_pair
    with pytest.raises(EcoError, match="exactly one"):
        run_eco_campaign(old, new, workloads)
    with pytest.raises(EcoError, match="exactly one"):
        run_eco_campaign(old, new, workloads, base=base_campaign,
                         base_checkpoint_dir=tmp_path)


def test_eco_refuses_interface_change(eco_pair, base_campaign):
    old, _, workloads = eco_pair
    widened = random_netlist(n_inputs=7, n_gates=20, n_flops=3,
                             n_outputs=3, seed=2, name="ecokit")
    with pytest.raises(EcoError, match="primary-input"):
        run_eco_campaign(old, widened, workloads, base=base_campaign)


def test_eco_refuses_failed_base(eco_pair, base_campaign):
    old, new, workloads = eco_pair
    failed = replace(base_campaign, failures=[WorkloadFailure(
        workload=workloads[0].name, status="timeout", attempts=1,
        elapsed_seconds=0.0, error="synthetic",
    )])
    with pytest.raises(EcoError, match="incomplete"):
        run_eco_campaign(old, new, workloads, base=failed)


def test_eco_refuses_wrong_base_design(eco_pair):
    old, new, workloads = eco_pair
    other = random_netlist(n_inputs=6, n_gates=20, n_flops=3,
                           n_outputs=3, seed=9, name="elsewhere")
    other_workloads = design_workloads(other.name, other, count=3,
                                       cycles=32, seed=1)
    foreign = run_campaign(other, other_workloads)
    with pytest.raises(EcoError, match="was run on"):
        run_eco_campaign(old, new, workloads, base=foreign)


def test_eco_refuses_bad_checkpoint_store(eco_pair, tmp_path):
    old, new, workloads = eco_pair
    with pytest.raises(EcoError, match="no manifest"):
        run_eco_campaign(old, new, workloads,
                         base_checkpoint_dir=tmp_path / "empty")
    # a store from a different stimulus suite: fingerprint mismatch
    other_suite = design_workloads(old.name, old, count=3, cycles=48,
                                   seed=1)
    store = tmp_path / "other"
    run_campaign(old, other_suite, checkpoint_dir=store)
    with pytest.raises(EcoError, match="different campaign"):
        run_eco_campaign(old, new, workloads,
                         base_checkpoint_dir=store)


# ----------------------------------------------------------------------
# transient (SEU) incremental campaigns
# ----------------------------------------------------------------------
def test_eco_transient_bitwise(eco_pair):
    old, new, workloads = eco_pair
    base = run_transient_campaign(old, workloads,
                                  injections_per_flop=2, seed=7)
    full = run_transient_campaign(new, workloads,
                                  injections_per_flop=2, seed=7)
    eco = run_eco_transient_campaign(old, new, workloads, base=base,
                                     injections_per_flop=2, seed=7)
    _assert_campaigns_bitwise(eco.result, full)


# ----------------------------------------------------------------------
# incremental features
# ----------------------------------------------------------------------
def test_patch_features_bitwise(eco_pair):
    old, new, workloads = eco_pair
    region = compute_dirty_region(old, new)
    base = extract_features(old, workloads=workloads)
    fresh = extract_features(new, workloads=workloads)
    patched = patch_features(base, new, region.dirty_nodes,
                             workloads=workloads)
    assert patched.feature_names == fresh.feature_names
    assert patched.node_names == fresh.node_names
    assert np.array_equal(patched.matrix, fresh.matrix)


def test_patch_features_refuses_foreign_region(eco_pair):
    old, _, workloads = eco_pair
    base = extract_features(old, workloads=workloads)
    stranger = random_netlist(n_inputs=6, n_gates=20, n_flops=3,
                              n_outputs=3, seed=31, name="ecokit")
    with pytest.raises(EcoError, match="missing from the feature"):
        patch_features(base, stranger, frozenset(),
                       workloads=design_workloads(
                           stranger.name, stranger, count=2,
                           cycles=16, seed=0))


# ----------------------------------------------------------------------
# analyzer integration
# ----------------------------------------------------------------------
def test_analyzer_eco_update(eco_pair):
    old, new, workloads = eco_pair
    config = AnalyzerConfig(n_workloads=3, workload_cycles=32, seed=1)
    analyzer = FaultCriticalityAnalyzer(old, config,
                                        workloads=workloads)
    update = analyzer.eco_update(new)
    assert isinstance(update, EcoAnalysis)

    reference = FaultCriticalityAnalyzer(new, config,
                                         workloads=workloads)
    _assert_campaigns_bitwise(update.campaign, reference.campaign)
    assert np.array_equal(update.features.matrix,
                          reference.features.matrix)
    assert np.array_equal(update.data.x, reference.data.x)
    assert np.array_equal(update.data.y_score, reference.data.y_score)
    # transferred weights, not retrained: identical parameter tensors
    for moved, trained in zip(update.classifier.model.parameters(),
                              analyzer.classifier.model.parameters()):
        assert np.array_equal(moved.value, trained.value)
    assert update.predictions().shape == (new.n_gates,)
    assert update.scores().shape == (new.n_gates,)
    summary = update.summary()
    assert summary["edits"] == 1
    assert summary["faults_reused"] == update.eco.n_reused

    seeded = update.as_analyzer(config=config, workloads=workloads)
    assert seeded.campaign is update.campaign
    assert seeded.features is update.features


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_campaign_eco(tmp_path, capsys):
    from repro.__main__ import main

    base_dir = tmp_path / "ckpt"
    common = ["campaign", "or1200_icfsm", "--workloads", "2",
              "--cycles", "40"]
    assert main(common + ["--checkpoint-dir", str(base_dir)]) == 0
    capsys.readouterr()

    text = to_verilog(
        __import__("repro.circuits", fromlist=["build_or1200_icfsm"]
                   ).build_or1200_icfsm()
    )
    edited = tmp_path / "edited.v"
    edited.write_text(_cell_swap(text, occurrence=3),
                      encoding="utf-8")

    assert main(common + ["--eco", str(edited),
                          "--base-checkpoint-dir", str(base_dir)]) == 0
    out = capsys.readouterr().out
    assert "ECO diff" in out
    assert "fault reuse" in out

    # --eco without a baseline store is a usage error
    assert main(common + ["--eco", str(edited)]) == 2
    # incompatible store (different cycle count) is refused, exit 2
    assert main(["campaign", "or1200_icfsm", "--workloads", "2",
                 "--cycles", "60", "--eco", str(edited),
                 "--base-checkpoint-dir", str(base_dir)]) == 2
    err = capsys.readouterr().err
    assert "cannot reuse baseline" in err


# ----------------------------------------------------------------------
# trace-merge fast path: baseline traces + packed support-cone pass
# ----------------------------------------------------------------------
def test_campaign_with_traces_bitwise(eco_pair, tmp_path):
    """Recording traces must not perturb the campaign itself."""
    old, _, workloads = eco_pair
    plain = run_campaign(old, workloads, collapse=False)
    traced, traces = run_campaign_with_traces(
        old, workloads, checkpoint_dir=tmp_path / "base",
    )
    _assert_campaigns_bitwise(traced, plain)
    assert traces.output_names == old.output_names()
    assert traces.flop_names == [
        gate.node_name for gate in old.sequential_gates()
    ]
    assert len(traces.output_diff) == len(workloads)
    assert (tmp_path / "base" / ECO_TRACES_NAME).exists()


def test_eco_trace_merge_bitwise(eco_pair, full_new_campaign,
                                 tmp_path, monkeypatch):
    """With a trace sidecar the ECO never re-simulates the full cone:
    the dirty rows come from the packed support-cone pass, so the
    fallback CampaignRunner must never be instantiated."""
    old, new, workloads = eco_pair
    store = tmp_path / "base"
    run_campaign_with_traces(old, workloads, checkpoint_dir=store)

    from repro.fi import runner as runner_module

    def _no_fallback(*args, **kwargs):
        raise AssertionError("trace merge fell back to a cone rerun")

    monkeypatch.setattr(runner_module, "CampaignRunner", _no_fallback)
    eco = run_eco_campaign(old, new, workloads,
                           base_checkpoint_dir=store)
    _assert_campaigns_bitwise(eco.result, full_new_campaign)


def test_eco_trace_merge_nonuniform_cycles(tmp_path):
    """Mixed workload lengths skip the packed pass but stay bitwise."""
    built = random_netlist(n_inputs=5, n_gates=30, n_flops=4,
                           n_outputs=4, seed=41, name="mixedlen")
    text = to_verilog(built)
    old = from_verilog(text)
    new = from_verilog(_cell_swap(text, occurrence=3))
    short = design_workloads(old.name, old, count=2, cycles=24, seed=2)
    long = [
        replace(w, name=f"long-{w.name}")
        for w in design_workloads(old.name, old, count=1, cycles=40,
                                  seed=3)
    ]
    workloads = short + long

    base, traces = run_campaign_with_traces(old, workloads)
    full = run_campaign(new, workloads, collapse=False)
    eco = run_eco_campaign(old, new, workloads, base=base,
                           base_traces=traces)
    _assert_campaigns_bitwise(eco.result, full)


def test_eco_trace_merge_strobed_design(tmp_path):
    """The packed pass must reproduce per-workload strobe gating on a
    real evaluation design with golden-gated observation windows."""
    from repro.circuits import build_or1200_icfsm
    from repro.fi.observation import DESIGN_OBSERVATION, DESIGN_SEVERITY

    text = to_verilog(build_or1200_icfsm())
    old = from_verilog(text)
    new = from_verilog(_cell_swap(text, occurrence=11))
    workloads = design_workloads("or1200_icfsm", old, count=2,
                                 cycles=48, seed=4)
    spec = DESIGN_OBSERVATION["or1200_icfsm"]
    severity = DESIGN_SEVERITY["or1200_icfsm"]

    store = tmp_path / "base"
    run_campaign_with_traces(old, workloads, observation=spec,
                             severity=severity, checkpoint_dir=store)
    full = run_campaign(new, workloads, observation=spec,
                        severity=severity, collapse=False)
    eco = run_eco_campaign(old, new, workloads, observation=spec,
                           severity=severity,
                           base_checkpoint_dir=store)
    _assert_campaigns_bitwise(eco.result, full)


def test_eco_traces_roundtrip_and_corruption(eco_pair, tmp_path):
    old, _, workloads = eco_pair
    _, traces = run_campaign_with_traces(old, workloads)
    path = tmp_path / ECO_TRACES_NAME
    traces.save(path)
    loaded = EcoTraces.load(path)
    assert loaded.fingerprint == traces.fingerprint
    assert loaded.output_names == traces.output_names
    assert loaded.fault_keys() == traces.fault_keys()
    for left, right in zip(loaded.output_diff, traces.output_diff):
        assert np.array_equal(left, right)
    for left, right in zip(loaded.flop_end_diff, traces.flop_end_diff):
        assert np.array_equal(left, right)

    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(path.read_bytes()[:100])
    with pytest.raises(EcoError, match="corrupt or truncated"):
        EcoTraces.load(truncated)

    # Hand-edited sidecars whose arrays disagree with their own name
    # lists are refused on load, not left to an IndexError at merge.
    edits = {
        "output_diff_0": traces.output_diff[0][:, :, :-1],
        "flop_end_diff_1": traces.flop_end_diff[1][1:],
        "fault_stuck": traces.fault_stuck[1:],
    }
    for key, value in edits.items():
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload[key] = value
        edited = tmp_path / f"edited_{key}.npz"
        np.savez(edited, **payload)
        with pytest.raises(EcoError, match="inconsistent"):
            EcoTraces.load(edited)


def test_eco_refuses_foreign_trace_sidecar(eco_pair, tmp_path):
    """A sidecar whose fingerprint does not match the baseline store
    is a typed refusal, never a silent merge."""
    old, new, workloads = eco_pair
    store = tmp_path / "base"
    base, traces = run_campaign_with_traces(
        old, workloads, checkpoint_dir=store,
    )
    foreign = replace(traces, fingerprint="not-this-campaign")
    with pytest.raises(EcoError, match="different campaign"):
        run_eco_campaign(old, new, workloads, base=base,
                         base_traces=foreign)


# ----------------------------------------------------------------------
# property: random edits round-trip bitwise (satellite d)
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 999), edits=st.integers(1, 3),
       collapse=st.booleans())
def test_eco_random_edit_roundtrip(seed, edits, collapse):
    built = random_netlist(n_inputs=5, n_gates=28, n_flops=4,
                           n_outputs=4, seed=seed, name="hyp")
    text = to_verilog(built)
    edited_text = text
    for i in range(edits):
        edited_text = _cell_swap(edited_text, occurrence=seed + 7 * i)
    old, new = from_verilog(text), from_verilog(edited_text)
    workloads = design_workloads("hyp", old, count=2, cycles=24,
                                 seed=seed)

    base = run_campaign(old, workloads)
    full = run_campaign(new, workloads)
    eco = run_eco_campaign(old, new, workloads, base=base,
                           collapse=collapse)
    _assert_campaigns_bitwise(eco.result, full)

    base_t = run_transient_campaign(old, workloads,
                                    injections_per_flop=2, seed=seed)
    full_t = run_transient_campaign(new, workloads,
                                    injections_per_flop=2, seed=seed)
    eco_t = run_eco_transient_campaign(
        old, new, workloads, base=base_t,
        injections_per_flop=2, seed=seed,
    )
    _assert_campaigns_bitwise(eco_t.result, full_t)
