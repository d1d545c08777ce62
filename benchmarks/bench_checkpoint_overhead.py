"""Resilience tax — campaign checkpoint overhead.

The resilient runner durably writes one ``.npz`` per completed workload
so a killed campaign resumes instead of restarting.  Durability is only
free to adopt if the write path costs a small fraction of the
simulation it protects; this benchmark measures, per design, the
wall-clock of a plain campaign vs a checkpointed one vs a checkpoint
resume (which skips all simulation), and the bytes a checkpoint store
occupies on disk.

The campaigns take tens of milliseconds, so one timing of each says
more about the host than about checkpointing.  Every configuration
runs REPEATS times, interleaved (plain and checkpointed swap places
each round, and each resume reads the store its round just wrote), and
the table and the bars compare medians.
"""

import statistics
import time

import numpy as np

from benchmarks.conftest import DESIGNS
from repro.fi import run_campaign
from repro.reporting import render_table
from repro.sim import design_workloads

WORKLOADS = 8
CYCLES = 150
REPEATS = 7


def _timed(function):
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def test_checkpoint_overhead(benchmark, artifact, tmp_path_factory):
    from repro import build_design

    short = {"sdram_controller": "sdram", "or1200_if": "or1200_if",
             "or1200_icfsm": "or1200_icfsm"}
    rows = []

    def run():
        suites = {}
        for design_name in DESIGNS:
            design = build_design(short[design_name])
            suites[design_name] = (design, design_workloads(
                design.name, design, count=WORKLOADS, cycles=CYCLES,
                seed=0))
        seconds = {name: {"plain": [], "checkpointed": [], "resume": []}
                   for name in DESIGNS}
        store_bytes = {}
        for repeat in range(REPEATS):
            for design_name, (design, workloads) in suites.items():
                store = tmp_path_factory.mktemp(f"ckpt_{design_name}")
                runs = {
                    "plain": lambda: run_campaign(design, workloads),
                    "checkpointed": lambda: run_campaign(
                        design, workloads, checkpoint_dir=store),
                }
                order = (["plain", "checkpointed"] if repeat % 2 == 0
                         else ["checkpointed", "plain"])
                results = {}
                for kind in order:
                    results[kind], elapsed = _timed(runs[kind])
                    seconds[design_name][kind].append(elapsed)
                resumed, elapsed = _timed(lambda: run_campaign(
                    design, workloads, checkpoint_dir=store,
                    resume=True))
                seconds[design_name]["resume"].append(elapsed)
                assert np.array_equal(results["plain"].error_cycles,
                                      resumed.error_cycles)
                store_bytes[design_name] = sum(
                    path.stat().st_size for path in store.iterdir()
                )
        for design_name in DESIGNS:
            median = {kind: statistics.median(values) for kind, values
                      in seconds[design_name].items()}
            rows.append({
                "design": design_name,
                "plain ms": round(median["plain"] * 1e3, 1),
                "checkpointed ms": round(median["checkpointed"] * 1e3, 1),
                "overhead": (
                    f"{median['checkpointed'] / median['plain'] - 1:+.1%}"
                ),
                "resume ms": round(median["resume"] * 1e3, 1),
                "resume speedup": (
                    f"{median['plain'] / median['resume']:,.0f}x"
                ),
                "store KiB": round(store_bytes[design_name] / 1024, 1),
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = render_table(
        rows,
        title="Campaign checkpoint overhead "
              f"({WORKLOADS} workloads x {CYCLES} cycles, "
              f"full fault universe; medians of {REPEATS} interleaved "
              "runs)",
    )
    artifact("checkpoint_overhead.txt", table)

    # Shape: durability costs a small fraction of the simulation it
    # protects, and resuming a finished campaign is pure I/O.
    for row in rows:
        assert row["checkpointed ms"] < row["plain ms"] * 1.5
        assert row["resume ms"] < row["plain ms"]
