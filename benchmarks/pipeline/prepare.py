"""Set-up steps of the pipeline benchmark, run as their own process.

    python benchmarks/pipeline/prepare.py --dir DIR --design NAME
        [--grid ROWS COLS] [--seed S] [--edit] [--fill ARG ...]
    python benchmarks/pipeline/prepare.py --dir DIR --design NAME
        --reference ARG ...

Writes into DIR: ``prepare.json`` (where the package was imported
from), the design as ``design.v`` for ``--grid``, the edited design as
``edited.v`` for ``--edit``, and for ``--fill`` a store in ``store/``
filled by the CLI's own ``analyze`` entry point with its stdout in
``fill.out``.  ``--reference`` instead computes the full campaign of
``edited.v`` under the design's generated workload suite and writes its
digest to ``reference.json``: the ground truth the ECO run must match
bitwise.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import sys
from pathlib import Path

#: The ECO edit per design: cell re-types that keep pins and drive.
#: or1200_if's five gates (~1% of 504) span the instruction mux and the
#: stall logic, so the dirty region crosses strobed outputs and state.
EDITS = {
    "or1200_if": {
        "U503": ("NR2", "OR2"),
        "U504": ("AN2", "ND2"),
        "U303": ("AN2", "ND2"),
        "U304": ("OR2", "NR2"),
        "U307": ("AN2", "ND2"),
    },
    # The smoke edit: sdram is densely connected, and these two gates
    # have its smallest dirty regions (about half the fault list).
    "sdram_controller": {
        "U318": ("OR2", "NR2"),
        "U323": ("AN2", "ND2"),
    },
}


def edited(netlist):
    """A deep copy of ``netlist`` with its design's ECO edit applied."""
    from repro.netlist.cells import get_cell

    edits = EDITS[netlist.name]
    result = copy.deepcopy(netlist)
    applied = 0
    for gate in result.gates:
        if gate.instance in edits:
            was, becomes = edits[gate.instance]
            if gate.cell.name != was:
                raise SystemExit(f"ECO edit: {gate.instance} is "
                                 f"{gate.cell.name}, expected {was}")
            gate.cell = get_cell(becomes)
            applied += 1
    if applied != len(edits):
        raise SystemExit(f"ECO edit: {applied} of {len(edits)} gates found")
    result.invalidate_structure()
    return result


def _analyze_args(args_text):
    """``--workloads N --cycles N --seed S`` from an ``analyze`` argv."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workloads", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    known, _ = parser.parse_known_args(args_text)
    return known


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--design", required=True)
    parser.add_argument("--grid", nargs=2, type=int, metavar=("ROWS", "COLS"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--edit", action="store_true")
    parser.add_argument("--fill", nargs=argparse.REMAINDER)
    parser.add_argument("--reference", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import repro
    from repro import build_design, read_verilog, write_verilog

    args.dir.mkdir(parents=True, exist_ok=True)
    (args.dir / "prepare.json").write_text(
        json.dumps({"repro": repro.__file__}), encoding="utf-8")

    if args.reference is not None:
        from child import campaign_digest
        from repro import AnalyzerConfig, FaultCriticalityAnalyzer

        known = _analyze_args(args.reference)
        config = AnalyzerConfig(seed=known.seed,
                                n_workloads=known.workloads,
                                workload_cycles=known.cycles)
        base = FaultCriticalityAnalyzer(build_design(args.design), config)
        full = FaultCriticalityAnalyzer(
            read_verilog(args.dir / "edited.v"), config,
            workloads=base.workloads,
        )
        (args.dir / "reference.json").write_text(json.dumps({
            "campaign_digest": campaign_digest(full.campaign),
            "failures": len(full.campaign.failures),
        }), encoding="utf-8")
        return 0

    if args.grid:
        from repro.circuits.grid import build_fsm_grid

        rows, cols = args.grid
        write_verilog(build_fsm_grid(rows, cols, seed=args.seed),
                      args.dir / "design.v")
    else:
        netlist = build_design(args.design)
        if args.edit:
            write_verilog(edited(netlist), args.dir / "edited.v")
    if args.fill is not None:
        from repro.__main__ import main as repro_main

        with open(args.dir / "fill.out", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            code = repro_main(["analyze", args.design, *args.fill,
                               "--store", str(args.dir / "store")])
        if code != 0:
            raise SystemExit(f"analyze exited {code} while filling the store")
    return 0


if __name__ == "__main__":
    sys.exit(main())
