"""Campaign-engine throughput: serial vs sharded vs multi-core.

Fault-simulation throughput caps the size of the ground-truth dataset
Algorithm 1 can afford, so this benchmark tracks the engine's headline
numbers in machine-readable form: ``results/BENCH_campaign.json``
records cycles/sec, fault-experiment-cycles/sec, and the speedups of
the sharded/parallel configurations over serial — plus a frozen
``seed_reference`` (the pre-optimization engine measured on the same
workload shape) so inner-loop regressions show up as a ratio < 1.
The ``per_workload`` row times one ``run_pass([w])`` per workload on
the same inputs, so packed and per-workload fault-cycles/sec sit side
by side.

Runs two ways:

* ``pytest benchmarks/bench_campaign.py`` — full measurement, writes
  the JSON artifact next to the other rendered results.
* ``python benchmarks/bench_campaign.py [--smoke] [--jobs N]`` —
  standalone; ``--smoke`` shrinks the workload suite for the CI guard
  (exercises the parallel path end to end, skips the artifact write).
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.hostinfo import host_metadata  # pytest (package)
except ImportError:
    from hostinfo import host_metadata  # standalone script

RESULTS_DIR = Path(__file__).parent / "results"
ARTIFACT = "BENCH_campaign.json"

DESIGN = "or1200_icfsm"
WORKLOADS = 8
CYCLES = 200

#: Pre-optimization engine (per-cycle allocations, per-mismatch-cycle
#: unpackbits) measured on this exact workload shape at the commit that
#: introduced this benchmark.  Frozen so every later run reports the
#: cumulative inner-loop speedup, not just run-to-run noise.
SEED_REFERENCE = {
    "design": "or1200_icfsm",
    "n_faults": 526,
    "n_nets": 302,
    "workloads": 8,
    "cycles_per_workload": 200,
    "seconds": 1.385,
    "cycles_per_sec": 1155.3,
    "fault_cycles_per_sec": 607670.9,
}


def _per_workload_loop(design, workloads):
    """One ``run_pass([w])`` per workload over the full universe, with
    the observation ``run_campaign`` uses: the campaign before lane
    packing.  Returns ``(error_cycles, detection_cycle)`` matrices."""
    from repro.fi.faults import full_fault_universe
    from repro.fi.observation import observation_for
    from repro.sim import BitParallelSimulator, StuckAt

    faults = full_fault_universe(design)
    injection = StuckAt(
        np.array([fault.net_index for fault in faults], dtype=np.intp),
        np.array([fault.stuck_at for fault in faults], dtype=np.uint8),
    )
    spec = observation_for(design)
    compiled = spec.compile(design) if spec is not None else None
    engine = BitParallelSimulator(design)
    rows = [engine.run_pass([workload], injection,
                            observation=compiled).row(0)
            for workload in workloads]
    return (np.stack([row[0] for row in rows]),
            np.stack([row[1] for row in rows]))


def _measure_interleaved(configs, repeats=3):
    """Best-of-N wall clock per configuration, rounds interleaved.

    One full round measures every configuration back to back before
    the next round starts, so slow host-level drift (thermal
    throttling, cache pressure from neighbours on a shared box) lands
    evenly on all configurations instead of on whichever block ran
    last — on a timeshared single-core host that drift is larger than
    the differences being measured.
    """
    best = {name: None for name in configs}
    results = {}
    for _ in range(repeats):
        for name, run in configs.items():
            started = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - started
            results[name] = result
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    return best, results


def run_benchmark(design_name=DESIGN, n_workloads=WORKLOADS,
                  cycles=CYCLES, jobs=2, repeats=5):
    """Measure serial / sharded / parallel and assemble the payload."""
    from repro import build_design
    from repro.fi import run_campaign
    from repro.sim import design_workloads

    design = build_design(design_name)
    workloads = design_workloads(design.name, design,
                                 count=n_workloads, cycles=cycles,
                                 seed=0)
    total_cycles = n_workloads * cycles

    def campaign(**kwargs):
        return lambda: run_campaign(design, workloads, **kwargs)

    best, results = _measure_interleaved({
        "serial": campaign(),
        "sharded_serial": campaign(shard_size="auto"),
        "parallel": campaign(shard_size="auto", jobs=jobs),
        "per_workload": lambda: _per_workload_loop(design, workloads),
    }, repeats=repeats)
    serial_s, sharded_s, parallel_s, per_workload_s = (
        best["serial"], best["sharded_serial"], best["parallel"],
        best["per_workload"],
    )
    serial, sharded, parallel = (
        results["serial"], results["sharded_serial"],
        results["parallel"],
    )
    for other in (serial, sharded, parallel):
        assert not other.failures
    for other in (sharded, parallel):
        assert np.array_equal(serial.error_cycles, other.error_cycles)
        assert np.array_equal(serial.detection_cycle,
                              other.detection_cycle)
    loop_errors, loop_detection = results["per_workload"]
    assert np.array_equal(serial.error_cycles, loop_errors)
    assert np.array_equal(serial.detection_cycle, loop_detection)

    n_faults = len(serial.faults)

    def rates(seconds):
        return {
            "seconds": round(seconds, 3),
            "cycles_per_sec": round(total_cycles / seconds, 1),
            "fault_cycles_per_sec": round(
                n_faults * total_cycles / seconds, 1
            ),
        }

    return {
        "design": design.name,
        "n_faults": n_faults,
        "n_nets": design.n_nets,
        "workloads": n_workloads,
        "cycles_per_workload": cycles,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "host": host_metadata(best_of=repeats),
        "serial": rates(serial_s),
        "sharded_serial": rates(sharded_s),
        "parallel": rates(parallel_s),
        "per_workload": rates(per_workload_s),
        "parallel_speedup_vs_serial": round(serial_s / parallel_s, 2),
        "packed_speedup_vs_per_workload": round(
            per_workload_s / serial_s, 2
        ),
        "seed_reference": SEED_REFERENCE,
        "serial_speedup_vs_seed": round(
            (n_faults * total_cycles / serial_s)
            / SEED_REFERENCE["fault_cycles_per_sec"], 2
        ),
    }


def test_campaign_throughput(benchmark, artifact):
    payload = {}

    def run():
        payload.update(run_benchmark())
        return payload

    benchmark.pedantic(run, rounds=1, iterations=1)
    # jobs=1 must never regress against the pre-optimization engine.
    assert payload["serial_speedup_vs_seed"] >= 1.0
    artifact(ARTIFACT, json.dumps(payload, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny suite, single repeat, no artifact "
                             "(the CI guard)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", metavar="FILE.json",
                        help="write the payload here instead of "
                             f"results/{ARTIFACT}")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(n_workloads=2, cycles=60,
                                jobs=args.jobs, repeats=1)
    else:
        payload = run_benchmark(jobs=args.jobs)
    text = json.dumps(payload, indent=2)
    print(text)
    if not args.smoke:
        out = Path(args.out) if args.out else RESULTS_DIR / ARTIFACT
        out.parent.mkdir(exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
        print(f"\nartifact -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
