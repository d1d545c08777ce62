"""Files the CLI and the ECO baseline publish: whole or absent.

The ECO trace sidecar and the CLI's ``--out``/``--save-campaign`` files
go through :func:`repro.io.publish`.  A write that dies midway leaves
no file behind, so the next run never trusts a torn one: without the
sidecar an ECO run falls back to the cone rerun and still matches a
full campaign.
"""

from __future__ import annotations

import io as stdio
import os
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.circuits import build_design, random_netlist
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.fi import run_campaign, run_campaign_with_traces, run_eco_campaign
from repro.fi import runner as runner_module
from repro.fi.eco import ECO_TRACES_NAME
from repro.io import load_campaign
from repro.netlist import from_verilog, read_verilog, to_verilog
from repro.sim import design_workloads
from tests.test_eco import _assert_campaigns_bitwise, _cell_swap


def _count_runners(monkeypatch) -> list:
    """Record every CampaignRunner built (the cone-rerun fallback)."""
    built = []
    real = runner_module.CampaignRunner

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, "CampaignRunner", counting)
    return built


def test_interrupted_sidecar_write_leaves_no_sidecar(tmp_path,
                                                      monkeypatch):
    built = random_netlist(n_inputs=6, n_gates=36, n_flops=5,
                           n_outputs=4, seed=23, name="ecokit")
    text = to_verilog(built)
    old, new = from_verilog(text), from_verilog(_cell_swap(text, 5))
    workloads = design_workloads(old.name, old, count=3, cycles=32,
                                 seed=0)
    real_savez = np.savez

    def torn_savez(file, **arrays):
        """Write half the archive, then fail as a full disk would."""
        buffer = stdio.BytesIO()
        real_savez(buffer, **arrays)
        half = buffer.getvalue()[: len(buffer.getvalue()) // 2]
        if hasattr(file, "write"):
            file.write(half)
        else:
            Path(os.fspath(file)).write_bytes(half)
        raise OSError(28, "No space left on device")

    store = tmp_path / "base"
    # Checkpoint units are compressed; only the sidecar uses np.savez.
    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="No space left"):
        run_campaign_with_traces(old, workloads, checkpoint_dir=store)
    monkeypatch.undo()

    assert not (store / ECO_TRACES_NAME).exists()
    assert sorted(path.name for path in store.iterdir()) == [
        "manifest.json", "workload_0000.npz", "workload_0001.npz",
        "workload_0002.npz",
    ]
    runners = _count_runners(monkeypatch)
    eco = run_eco_campaign(old, new, workloads, base_checkpoint_dir=store)
    assert runners, "no sidecar, so the cone rerun must run"
    _assert_campaigns_bitwise(
        eco.result, run_campaign(new, workloads, collapse=False))


def test_cli_eco_round_trip_takes_trace_merge(tmp_path, monkeypatch,
                                              capsys):
    """``campaign --eco-traces --checkpoint-dir D`` then ``campaign
    --eco EDITED.v --base-checkpoint-dir D`` merges from the sidecar:
    no CampaignRunner is built, and the result matches a full run."""
    design = build_design("or1200_icfsm")
    edited = tmp_path / "edited.v"
    edited.write_text(_cell_swap(to_verilog(design), occurrence=11),
                      encoding="utf-8")
    store = tmp_path / "base"
    common = ["campaign", "or1200_icfsm", "--workloads", "2",
              "--cycles", "48", "--seed", "0"]
    assert main(common + ["--eco-traces", "--checkpoint-dir",
                          str(store)]) == 0
    assert (store / ECO_TRACES_NAME).exists()

    runners = _count_runners(monkeypatch)
    assert main(common + ["--eco", str(edited), "--base-checkpoint-dir",
                          str(store), "--out", str(tmp_path / "eco")]) == 0
    assert runners == []
    out = capsys.readouterr().out
    assert "fault reuse:" in out
    assert f"campaign written to {tmp_path / 'eco.npz'}" in out

    workloads = design_workloads(design.name, design, count=2, cycles=48,
                                 seed=0)
    _assert_campaigns_bitwise(
        load_campaign(tmp_path / "eco.npz"),
        run_campaign(read_verilog(edited), workloads, collapse=False),
    )


def test_campaign_out_bare_name_round_trips(tmp_path, capsys):
    assert main(["campaign", "or1200_icfsm", "--workloads", "2",
                 "--cycles", "40", "--seed", "0", "--out",
                 str(tmp_path / "result")]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "result.npz"]
    design = build_design("or1200_icfsm")
    workloads = design_workloads(design.name, design, count=2, cycles=40,
                                 seed=0)
    _assert_campaigns_bitwise(load_campaign(tmp_path / "result.npz"),
                              run_campaign(design, workloads))


def test_analyze_save_campaign_round_trips(tmp_path, capsys):
    target = tmp_path / "analyzed.npz"
    assert main(["analyze", "sdram", "--workloads", "2", "--cycles",
                 "40", "--seed", "0", "--no-store", "--save-campaign",
                 str(target)]) == 0
    assert f"campaign written to {target}" in capsys.readouterr().out
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        target.name]
    expected = FaultCriticalityAnalyzer(
        build_design("sdram"),
        AnalyzerConfig(seed=0, n_workloads=2, workload_cycles=40),
    ).campaign
    loaded = load_campaign(target)
    assert loaded.workload_names == expected.workload_names
    _assert_campaigns_bitwise(loaded, expected)
