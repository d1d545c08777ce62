"""ECO-mode incremental re-analysis vs full campaign rerun.

After a small netlist edit, ``run_eco_campaign`` reads the baseline's
rows back from its checkpoint directory, re-simulates only the dirty
faults on the edit's dirty cone, and merges the two — bitwise
identical to a full rerun, at a fraction of the cost.  This
benchmark commits the headline claim in machine-readable form:
``results/BENCH_eco.json`` records the full-rerun and incremental
wall clocks for a 5-gate (~1% of gates) edit on the largest
evaluation design, asserts the merged rows are bitwise identical, and
freezes the full-rerun reference measured when the benchmark was
introduced so later regressions show up as a ratio.

Runs two ways:

* ``pytest benchmarks/bench_eco.py`` — full measurement, writes the
  JSON artifact and asserts the >=10x acceptance bar.
* ``python benchmarks/bench_eco.py [--smoke]`` — standalone;
  ``--smoke`` shrinks the suite for the CI guard (exercises diff,
  checkpointed baseline, dirty-cone rerun, merge, and the bitwise
  check end to end, skips the artifact write and the 10x bar).
"""

import argparse
import copy
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.hostinfo import host_metadata  # pytest (package)
except ImportError:
    from hostinfo import host_metadata  # standalone script

RESULTS_DIR = Path(__file__).parent / "results"
ARTIFACT = "BENCH_eco.json"

DESIGN = "or1200_if"
WORKLOADS = 8
CYCLES = 200
REPEATS = 3

#: The benchmark ECO: five cell re-types (~1% of the 504 gates),
#: spread across the instruction mux and the stall logic so the dirty
#: region crosses strobed outputs and sequential state.
EDITS = {
    "U503": ("NR2", "OR2"),
    "U504": ("AN2", "ND2"),
    "U303": ("AN2", "ND2"),
    "U304": ("OR2", "NR2"),
    "U307": ("AN2", "ND2"),
}

#: Full-rerun wall clock on this exact suite, measured at the commit
#: that introduced ECO mode.  Frozen so the committed artifact keeps a
#: stable denominator: a later engine speedup (or regression) changes
#: ``full_rerun`` but not the avoided work the ECO path is judged
#: against.
FULL_RERUN_REFERENCE = {
    "design": "or1200_if",
    "n_faults": 1008,
    "workloads": 8,
    "cycles_per_workload": 200,
    "seconds": 2.096,
}


def _edited(netlist):
    """Apply the benchmark ECO to a deep copy of the design."""
    from repro.netlist.cells import get_cell

    edited = copy.deepcopy(netlist)
    applied = 0
    for gate in edited.gates:
        if gate.instance in EDITS:
            was, becomes = EDITS[gate.instance]
            assert gate.cell.name == was, (gate.instance, gate.cell.name)
            gate.cell = get_cell(becomes)
            applied += 1
    assert applied == len(EDITS)
    edited.invalidate_structure()
    return edited


def run_benchmark(n_workloads=WORKLOADS, cycles=CYCLES,
                  repeats=REPEATS, smoke=False):
    """Measure full rerun vs incremental, assemble the payload."""
    from repro import build_design
    from repro.fi import run_campaign, run_eco_campaign
    from repro.fi.observation import DESIGN_OBSERVATION, DESIGN_SEVERITY
    from repro.sim import design_workloads

    old = build_design(DESIGN)
    new = _edited(old)
    workloads = design_workloads(DESIGN, old, count=n_workloads,
                                 cycles=cycles, seed=0)
    spec = DESIGN_OBSERVATION[DESIGN]
    severity = DESIGN_SEVERITY[DESIGN]

    with tempfile.TemporaryDirectory() as base_dir:
        # Baseline prep (the investment, not part of the measurement):
        # the pre-edit campaign, checkpointed into the base directory.
        started = time.perf_counter()
        run_campaign(old, workloads, observation=spec, severity=severity,
                     collapse=False, checkpoint_dir=base_dir)
        prep_seconds = time.perf_counter() - started

        # Interleaved best-of-N: each round measures the full rerun
        # and the incremental path back to back so host-level drift
        # lands evenly on both sides.
        best_full = best_eco = None
        full = eco = None
        for _ in range(repeats):
            started = time.perf_counter()
            full = run_campaign(new, workloads, observation=spec,
                                severity=severity, collapse=False)
            elapsed = time.perf_counter() - started
            if best_full is None or elapsed < best_full:
                best_full = elapsed

            started = time.perf_counter()
            eco = run_eco_campaign(
                old, new, workloads, observation=spec,
                severity=severity, base_checkpoint_dir=base_dir,
            )
            elapsed = time.perf_counter() - started
            if best_eco is None or elapsed < best_eco:
                best_eco = elapsed

    merged = eco.result
    bitwise = (
        np.array_equal(merged.error_cycles, full.error_cycles)
        and np.array_equal(merged.detection_cycle,
                           full.detection_cycle)
        and np.array_equal(merged.latent, full.latent)
        and [(f.node_name, f.stuck_at) for f in merged.faults]
        == [(f.node_name, f.stuck_at) for f in full.faults]
    )

    payload = {
        "design": DESIGN,
        "n_gates": old.n_gates,
        "n_faults": eco.n_faults,
        "workloads": n_workloads,
        "cycles_per_workload": cycles,
        "edit": {
            "gates_edited": len(EDITS),
            "pct_of_gates": round(100 * len(EDITS) / old.n_gates, 2),
            "dirty_nodes": len(eco.region.dirty_nodes),
            "dirty_faults": eco.n_dirty,
            "affected_outputs": len(eco.region.affected_outputs),
        },
        "base_prep_seconds": round(prep_seconds, 3),
        "full_rerun_seconds": round(best_full, 3),
        "eco_seconds": round(best_eco, 3),
        "speedup": round(best_full / best_eco, 2),
        "bitwise_identical": bitwise,
        "host": host_metadata(best_of=repeats),
        "full_rerun_reference": FULL_RERUN_REFERENCE,
    }
    if not smoke:
        payload["speedup_vs_reference"] = round(
            FULL_RERUN_REFERENCE["seconds"] / best_eco, 2
        )
    return payload


def test_eco_speedup(benchmark, artifact):
    payload = {}

    def run():
        payload.update(run_benchmark())
        return payload

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert payload["bitwise_identical"]
    # The ECO acceptance bar: a ~1% edit re-analyzes >=10x faster
    # than a full rerun of the largest design.
    assert payload["speedup"] >= 10.0
    artifact(ARTIFACT, json.dumps(payload, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny suite, single repeat, no artifact, "
                             "no 10x bar: the diff, checkpointed "
                             "baseline, dirty-cone rerun and bitwise "
                             "check only (the CI guard)")
    parser.add_argument("--out", metavar="FILE.json",
                        help="write the payload here instead of "
                             f"results/{ARTIFACT}")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(n_workloads=2, cycles=60, repeats=1,
                                smoke=True)
    else:
        payload = run_benchmark()
    text = json.dumps(payload, indent=2)
    print(text)
    if not payload["bitwise_identical"]:
        print("FAIL: merged rows differ from the full rerun",
              file=sys.stderr)
        return 1
    if not args.smoke:
        if payload["speedup"] < 10.0:
            print(f"FAIL: speedup {payload['speedup']}x below the "
                  "10x acceptance bar", file=sys.stderr)
            return 1
        out = Path(args.out) if args.out else RESULTS_DIR / ARTIFACT
        out.parent.mkdir(exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
        print(f"\nartifact -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
