"""Files the CLI publishes: whole or absent.

The CLI's ``--out``/``--save-campaign`` files go through
:func:`repro.io.publish`, so a write that dies midway leaves no file
behind and the next run never trusts a torn one.  An ECO run's
``--out`` is the merged campaign, equal to a full rerun.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.__main__ import main
from repro.circuits import build_design
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.fi import run_campaign
from repro.fi import runner as runner_module
from repro.io import load_campaign
from repro.netlist import read_verilog, to_verilog
from repro.sim import design_workloads
from tests.test_eco import _assert_campaigns_bitwise, _cell_swap


def _count_runners(monkeypatch) -> list:
    """Record every CampaignRunner built (the dirty-cone rerun)."""
    built = []
    real = runner_module.CampaignRunner

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, "CampaignRunner", counting)
    return built


def test_cli_eco_round_trip_takes_cone_rerun(tmp_path, monkeypatch,
                                             capsys):
    """``campaign --checkpoint-dir D`` then ``campaign --eco EDITED.v
    --base-checkpoint-dir D --out F``: the dirty faults re-simulate on
    a ``CampaignRunner`` and ``F`` equals a full rerun."""
    design = build_design("or1200_icfsm")
    edited = tmp_path / "edited.v"
    edited.write_text(_cell_swap(to_verilog(design), occurrence=11),
                      encoding="utf-8")
    store = tmp_path / "base"
    common = ["campaign", "or1200_icfsm", "--workloads", "2",
              "--cycles", "48", "--seed", "0"]
    assert main(common + ["--checkpoint-dir", str(store)]) == 0

    runners = _count_runners(monkeypatch)
    assert main(common + ["--eco", str(edited), "--base-checkpoint-dir",
                          str(store), "--out", str(tmp_path / "eco")]) == 0
    assert runners
    out = capsys.readouterr().out
    assert "fault reuse:" in out
    assert f"campaign written to {tmp_path / 'eco.npz'}" in out

    workloads = design_workloads(design.name, design, count=2, cycles=48,
                                 seed=0)
    _assert_campaigns_bitwise(
        load_campaign(tmp_path / "eco.npz"),
        run_campaign(read_verilog(edited), workloads, collapse=False),
    )


def test_interrupted_out_write_leaves_no_file(tmp_path, monkeypatch):
    """An ``--out`` write that dies midway, as on a full disk, leaves
    neither the target nor its temp file."""
    def torn_savez(handle, **_arrays):
        handle.write(b"PK\x03\x04 half an archive")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez_compressed", torn_savez)
    with pytest.raises(OSError, match="No space left"):
        main(["campaign", "or1200_icfsm", "--workloads", "2", "--cycles",
              "40", "--seed", "0", "--out", str(tmp_path / "result")])
    assert list(tmp_path.iterdir()) == []


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
