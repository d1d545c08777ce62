"""GNNExplainer throughput: batched single-core vs multi-core.

Explaining every node of a design is what makes the paper's Table 2
and Figure 5 affordable, so this benchmark tracks the explainer
engine's headline numbers in machine-readable form:
``results/BENCH_explain.json`` records nodes/sec for the batched
engine on one core and fanned over fork workers — plus a frozen
``seed_reference`` (the pre-optimization per-node loop measured on the
same design) so regressions show up as a ratio < 1.  Both timed
configurations are also checked bitwise-identical per node, the
engine's core contract.

Runs two ways:

* ``pytest benchmarks/bench_explain.py`` — full measurement over all
  nodes of the largest design, writes the JSON artifact.
* ``python benchmarks/bench_explain.py [--smoke] [--jobs N]`` —
  standalone; ``--smoke`` explains a strided node sample for the CI
  guard (exercises batching + the fork path end to end, skips the
  artifact write).
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
ARTIFACT = "BENCH_explain.json"

DESIGN = "or1200_if"

#: Pre-optimization explainer (one dense optimization per node, fresh
#: subgraph extraction and per-epoch array allocations) measured on a
#: stratified 51-node sample of or1200_if at the commit that introduced
#: this benchmark.  Frozen so every later run reports the cumulative
#: engine speedup, not just run-to-run noise.
SEED_REFERENCE = {
    "design": "or1200_if",
    "n_nodes": 504,
    "sample_nodes": 51,
    "sample_stride": 10,
    "seconds": 28.339,
    "nodes_per_sec": 1.7996,
    "epochs": 200,
}


def _build_analyzer():
    from repro import build_design
    from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer

    # Only the classifier is used: with more jobs the regressor would
    # train beside it for nothing.
    analyzer = FaultCriticalityAnalyzer(
        build_design(DESIGN), AnalyzerConfig(seed=0), jobs=1
    )
    analyzer.classifier  # materialize the expensive stages untimed
    return analyzer


def _measure(analyzer, nodes, jobs):
    """Wall clock for one explainer configuration, cold caches."""
    from repro.explain import GNNExplainer

    explainer = GNNExplainer(
        analyzer.classifier, analyzer.data,
        seed=(analyzer.config.seed, "explainer"),
    )
    started = time.perf_counter()
    explanations = explainer.explain_many(nodes, jobs=jobs)
    elapsed = time.perf_counter() - started
    return elapsed, explanations


def run_benchmark(analyzer=None, stride=1, jobs=2, repeats=2):
    """Measure single-core and parallel runs, assemble the payload.

    Rounds are interleaved (single, parallel, single, parallel) and
    each configuration keeps its best, so slow host-level drift lands
    evenly on both configurations instead of on whichever ran last.
    """
    if analyzer is None:
        analyzer = _build_analyzer()
    nodes = list(range(0, analyzer.data.n_nodes, stride))

    single_s = parallel_s = None
    single = parallel = None
    for _ in range(repeats):
        elapsed, single = _measure(analyzer, nodes, jobs=1)
        if single_s is None or elapsed < single_s:
            single_s = elapsed
        elapsed, parallel = _measure(analyzer, nodes, jobs=jobs)
        if parallel_s is None or elapsed < parallel_s:
            parallel_s = elapsed
    for left, right in zip(single, parallel):
        assert np.array_equal(left.feature_scores, right.feature_scores)
        assert left.edge_importance == right.edge_importance

    def rates(seconds):
        return {
            "seconds": round(seconds, 3),
            "nodes_per_sec": round(len(nodes) / seconds, 3),
        }

    single_rate = len(nodes) / single_s
    return {
        "design": analyzer.data.design,
        "n_nodes": analyzer.data.n_nodes,
        "explained_nodes": len(nodes),
        "epochs": analyzer.explainer.config.epochs,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "host": host_metadata(best_of=repeats),
        "batched_single_core": rates(single_s),
        "batched_parallel": rates(parallel_s),
        "parallel_speedup_vs_single_core": round(
            single_s / parallel_s, 2
        ),
        "seed_reference": SEED_REFERENCE,
        "single_core_speedup_vs_seed": round(
            single_rate / SEED_REFERENCE["nodes_per_sec"], 2
        ),
    }


def test_explain_throughput(analyzers, benchmark, artifact):
    payload = {}

    def run():
        payload.update(run_benchmark(analyzer=analyzers[DESIGN]))
        return payload

    benchmark.pedantic(run, rounds=1, iterations=1)
    # The batched engine on ONE core must stay >= 3x the per-node loop.
    assert payload["single_core_speedup_vs_seed"] >= 3.0
    artifact(ARTIFACT, json.dumps(payload, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="strided node sample, no artifact "
                             "(the CI guard)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="fork workers for the parallel leg "
                             "(0 = all cores)")
    parser.add_argument("--out", metavar="FILE.json",
                        help="write the payload here instead of "
                             f"results/{ARTIFACT}")
    args = parser.parse_args(argv)

    stride = 25 if args.smoke else 1
    payload = run_benchmark(stride=stride, jobs=args.jobs,
                            repeats=1 if args.smoke else 2)
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
