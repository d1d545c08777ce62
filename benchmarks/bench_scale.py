"""Analyzer stages at 7.6k gates under a memory bound.

No stage after ingestion is measured above ~1.4k gates by the pipeline
benchmark, whose per-invocation budget cannot hold a larger run.  This
benchmark runs the analyzer's stages one at a time on
``build_fsm_grid(8, 8)`` (7,652 gates) with 2 workloads of 100 cycles,
in one fresh interpreter, and records each stage's wall time and
``ru_maxrss`` growth: workload generation, the fault-injection
campaign, features, the graph, the GCN classifier and regressor, each
feature-vector baseline, and GNNExplainer on 2 nodes.
``results/BENCH_scale.json`` holds that record with the host block,
and the whole run's peak RSS is asserted below
``RSS_BOUND_MIB``.  ``ru_maxrss`` is a high-water mark, so a stage
shows growth only where it lifts the process's peak.

Runs two ways:

* ``pytest benchmarks/bench_scale.py`` — tier-2: the full run in a
  fresh interpreter (so the peak is the pipeline's, not pytest's),
  writes the JSON artifact and asserts the RSS bound (~1 minute).
* ``python benchmarks/bench_scale.py [--smoke] [--out FILE.json]`` —
  standalone; ``--smoke`` runs a 2 × 2 grid for the CI guard, with no
  artifact and no bound.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

try:
    from benchmarks.hostinfo import host_metadata  # pytest (package)
except ImportError:
    from hostinfo import host_metadata  # standalone script

RESULTS_DIR = Path(__file__).parent / "results"
ARTIFACT = "BENCH_scale.json"

GRID = (8, 8)
SMOKE_GRID = (2, 2)
WORKLOADS = 2
CYCLES = 100
EXPLAIN_PER_CLASS = 1  # one node per predicted class: 2 nodes

#: Whole-run peak RSS bar.  Before the SVM baseline stopped building an
#: n × n Gram matrix, its fit alone lifted the peak from 175 to
#: 1,319 MiB on this grid (``REFERENCE_GRAM_SVM``).
RSS_BOUND_MIB = 512.0

#: The ``baseline.SVM`` stage as this script measured it on the source
#: of commit ``679f33b``, the last whose SVM built the n × n Gram
#: matrix (2 vCPUs), frozen so the record shows what the blocked fit
#: replaced.  That run's whole-process peak was 1,319.0 MiB.
REFERENCE_GRAM_SVM = {"commit": "679f33b", "wall_s": 18.294,
                      "rss_growth_mib": 1143.9}


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(grid=GRID):
    from repro import AnalyzerConfig, FaultCriticalityAnalyzer
    from repro.circuits import build_fsm_grid
    from repro.models import BASELINE_NAMES

    stages = []

    def stage(name, thunk):
        before = _peak_rss_mib()
        started = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - started
        after = _peak_rss_mib()
        stages.append({
            "stage": name,
            "wall_s": round(elapsed, 3),
            "rss_growth_mib": round(after - before, 1),
            "peak_rss_mib": round(after, 1),
        })
        return result

    start_rss = _peak_rss_mib()
    netlist = stage("netlist", lambda: build_fsm_grid(*grid))
    # One process: ``ru_maxrss`` of this interpreter must see every
    # stage, and each stage must train only what it names.
    analyzer = FaultCriticalityAnalyzer(
        netlist,
        AnalyzerConfig(n_workloads=WORKLOADS, workload_cycles=CYCLES,
                       seed=0),
        jobs=1,
    )
    stage("workloads", lambda: analyzer.workloads)
    stage("campaign", lambda: analyzer.campaign)
    stage("features", lambda: analyzer.features)
    stage("graph", lambda: analyzer.data)
    for name in ("classifier", "regressor"):
        model = stage(name, lambda name=name: getattr(analyzer, name))
        stages[-1]["epochs"] = len(model.history.train_loss)
    accuracies = {}
    for name in BASELINE_NAMES:
        accuracies.update(stage(
            f"baseline.{name}",
            lambda name=name: analyzer.baseline_accuracies([name]),
        ))
    nodes = analyzer.sample_explain_nodes(per_class=EXPLAIN_PER_CLASS)
    stage("explain", lambda: analyzer.explain_nodes(nodes))

    host = host_metadata(best_of=1)
    host["measurement"] = "one run of each stage in a fresh interpreter"
    return {
        "design": f"fsm_grid{grid}",
        "n_gates": netlist.n_gates,
        "train_rows": int(analyzer.split.train_mask.sum()),
        "workloads": WORKLOADS,
        "cycles": CYCLES,
        "explained_nodes": len(nodes),
        "start_rss_mib": round(start_rss, 1),
        "peak_rss_mib": round(_peak_rss_mib(), 1),
        "rss_bound_mib": RSS_BOUND_MIB,
        "total_wall_s": round(sum(row["wall_s"] for row in stages), 3),
        "stages": stages,
        "reference_gram_svm": REFERENCE_GRAM_SVM,
        "accuracy": {
            "GCN": round(analyzer.validation_accuracy(), 4),
            **{name: round(value, 4)
               for name, value in accuracies.items()},
        },
        "host": host,
    }


def test_scale_rss_bound(benchmark, artifact, tmp_path):
    """Tier-2 pytest entry: the 7.6k-gate run stays under the RSS bar."""
    out = tmp_path / ARTIFACT

    def run():
        return subprocess.run(
            [sys.executable, str(Path(__file__)), "--out", str(out)],
            capture_output=True, text=True,
        )

    completed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert completed.returncode == 0, completed.stderr[-2000:]
    artifact(ARTIFACT, out.read_text(encoding="utf-8").rstrip("\n"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="2 x 2 grid, no artifact, no bound "
                             "(the CI guard)")
    parser.add_argument("--out", metavar="FILE.json",
                        help="write the payload here instead of "
                             f"results/{ARTIFACT}")
    args = parser.parse_args(argv)

    if args.smoke:
        print(json.dumps(run_benchmark(grid=SMOKE_GRID), indent=2))
        return 0

    payload = run_benchmark()
    text = json.dumps(payload, indent=2)
    print(text)
    if payload["peak_rss_mib"] >= RSS_BOUND_MIB:
        print(f"FAIL: peak RSS {payload['peak_rss_mib']} MiB >= "
              f"{RSS_BOUND_MIB} MiB", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else RESULTS_DIR / ARTIFACT
    out.parent.mkdir(exist_ok=True)
    out.write_text(text + "\n", encoding="utf-8")
    print(f"\nartifact -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
