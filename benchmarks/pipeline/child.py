"""One ``repro analyze`` run, rebuilt from the public API so that every
stage can be timed from outside the package.

    python benchmarks/pipeline/child.py (--design NAME | --verilog FILE)
        --workloads N --cycles N --seed S [--explain-sample N]
        [--store DIR] [--eco EDITED.v] [--record FILE] [--trace]

Standard output is what ``python -m repro analyze`` prints for the same
arguments: the benchmark asserts it byte for byte against the run that
filled a store, and up to the printed wall-clock readings against a
cold CLI run.  The stages are read in dependency order -- workloads, campaign, features,
dataset, data, classifier, regressor -- and then the report views, so
that with ``--trace`` each read is one span.  Store traffic is traced
through ``TimedStore``, a subclass passed as ``store=``; in ECO mode
the incremental campaign and the feature patch are traced by wrapping
the two functions the analyzer calls.  Nothing inside the package is
modified, and without ``--trace`` no wrapper is installed.

``--record FILE`` writes one JSON object after the report: the facts
the benchmark checks (failure ledger size, model quality, the merged
ECO campaign's digest) and, when traced, the spans and work counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time


def _maxrss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans (name, parent, wall, CPU, peak RSS) and counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "cpu_start": time.process_time(),
            "rss_start_mib": _maxrss_mib(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            record["cpu_end"] = time.process_time()
            record["rss_end_mib"] = _maxrss_mib()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class NullTracer:
    """The untraced run: a span is an empty ``with`` block."""

    spans: list = []
    counts: dict = {}

    def span(self, _name: str):
        return contextlib.nullcontext()

    def count(self, _name: str, _amount: float = 1) -> None:
        pass


def _open_store(directory: str, tracer):
    from repro.store import ArtifactStore

    if isinstance(tracer, NullTracer):
        return ArtifactStore(directory)

    class TimedStore(ArtifactStore):
        """An ``ArtifactStore`` whose get/put/find are spans."""

        def get(self, key, kind, reader):
            with tracer.span("store.get") as span:
                value = super().get(key, kind, reader)
                span["kind"] = kind
                span["hit"] = value is not None
            if value is None:
                tracer.count("store.misses")
            else:
                tracer.count("store.hits")
                tracer.count("store.bytes_read",
                             self.object_path(key, kind).stat().st_size)
            return value

        def put(self, key, kind, writer, *, meta=None):
            with tracer.span("store.put"):
                path = super().put(key, kind, writer, meta=meta)
            tracer.count("store.bytes_written", path.stat().st_size)
            return path

        def find(self, kind, **meta_filter):
            with tracer.span("store.find"):
                return super().find(kind, **meta_filter)

    return TimedStore(directory)


def _trace_eco_calls(tracer) -> None:
    """Span the incremental campaign and the feature patch inside
    ``eco_update``: both are module-level names the analyzer calls."""
    import repro.core.analyzer as analyzer_module

    def spanned(name, function):
        def call(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)
        return call

    analyzer_module.run_eco_campaign = spanned(
        "fi.eco", analyzer_module.run_eco_campaign)
    analyzer_module.patch_features = spanned(
        "features.patch", analyzer_module.patch_features)


def campaign_digest(campaign) -> str:
    """sha256 over the fault list and the per-fault result matrices."""
    digest = hashlib.sha256()
    for array in (campaign.error_cycles, campaign.detection_cycle,
                  campaign.latent):
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    for fault in campaign.faults:
        digest.update(f"{fault.node_name}/{fault.stuck_at};".encode())
    return digest.hexdigest()


def _quality(classifier, regressor, data, val_mask) -> dict:
    """Held-out GCN accuracy, ROC AUC and score Pearson, unrounded."""
    from repro.metrics import pearson, roc_curve
    from repro.utils.errors import ModelError

    truth = data.y_class[val_mask]
    accuracy = float((classifier.predict()[val_mask] == truth).mean())
    try:
        auc = float(roc_curve(
            truth, classifier.predict_proba()[:, 1][val_mask]).auc)
    except ModelError:
        auc = None  # single-class validation fold
    return {
        "gcn_accuracy": accuracy,
        "gcn_auc": auc,
        "score_pearson": float(pearson(regressor.predict()[val_mask],
                                       data.y_score[val_mask])),
    }


def _epochs(model) -> int:
    """Epochs trained in this process (0 for a model read from the
    store, which carries no history)."""
    return len(model.history.train_loss) if model.history else 0


def run(args, tracer) -> dict:
    """Print the ``analyze`` report; return the facts for the record."""
    from repro import (
        AnalyzerConfig,
        FaultCriticalityAnalyzer,
        build_design,
        read_verilog,
    )
    from repro.graph import stratified_split
    from repro.reporting import bar_chart, render_table

    import repro

    facts: dict = {"repro": repro.__file__,
                   "import_end": time.perf_counter()}
    with tracer.span("netlist.read"):
        netlist = (read_verilog(args.verilog) if args.verilog
                   else build_design(args.design))
    store = _open_store(args.store, tracer) if args.store else None
    config = AnalyzerConfig(seed=args.seed, n_workloads=args.workloads,
                            workload_cycles=args.cycles)
    analyzer = FaultCriticalityAnalyzer(netlist, config, store=store)

    # Dependency order: each property is computed (or read from the
    # store) once here and cached on the analyzer for the views below.
    with tracer.span("sim.workloads"):
        workloads = analyzer.workloads
    with tracer.span("fi.campaign"):
        campaign = analyzer.campaign
    with tracer.span("features.extract"):
        analyzer.features
    with tracer.span("fi.dataset"):
        analyzer.dataset
    with tracer.span("graph.build"):
        analyzer.data
    with tracer.span("nn.classifier"):
        classifier = analyzer.classifier
    with tracer.span("nn.regressor"):
        regressor = analyzer.regressor

    tracer.count("netlist.gates", netlist.n_gates)
    tracer.count("sim.cycles", sum(len(w.vectors) for w in workloads))
    tracer.count("fi.faults", len(campaign.faults))
    tracer.count("nn.epochs", _epochs(classifier) + _epochs(regressor))

    if args.eco:
        # The CLI's own header printer, so the two reports cannot drift.
        from repro.__main__ import _print_eco_header

        if not isinstance(tracer, NullTracer):
            _trace_eco_calls(tracer)
        with tracer.span("netlist.read"):
            edited = read_verilog(args.eco)
        update = analyzer.eco_update(edited)
        _print_eco_header(update.eco)
        print()
        print(render_table([update.summary()],
                           title="Incremental (ECO) update"))
        split = stratified_split(update.data.y_class, config.val_fraction,
                                 seed=(config.seed, "split"))
        facts.update(_quality(update.classifier, update.regressor,
                              update.data, split.val_mask))
        facts["failures"] = len(update.campaign.failures)
        facts["campaign_digest"] = campaign_digest(update.campaign)
        tracer.count("fi.eco_resim_faults", update.eco.n_dirty)
        tracer.count("fi.eco_reused_faults", update.eco.n_reused)
        facts["end"] = time.perf_counter()
        return facts

    print(render_table([analyzer.summary()], title="Analysis summary"))
    accuracies = {"GCN": analyzer.validation_accuracy()}
    with tracer.span("models.baselines"):
        accuracies.update(analyzer.baseline_accuracies())
    print()
    print(bar_chart(accuracies,
                    title="Validation accuracy (GCN vs baselines)"))
    quality = analyzer.regression_quality()
    print("\nCriticality-score regression:")
    for key, value in quality.items():
        print(f"  {key}: {value:.3f}")
    if args.explain_sample:
        with tracer.span("explain"):
            nodes = analyzer.sample_explain_nodes(
                per_class=args.explain_sample)
            reports = analyzer.node_report(nodes)
        tracer.count("explain.nodes", len(nodes))
        print(f"\nGNNExplainer sample ({len(nodes)} held-out nodes, "
              "both predicted classes):")
        for report in reports:
            print(render_table([report.as_row()],
                               title=f"Node {report.node_name}"))
    facts.update(_quality(classifier, regressor, analyzer.data,
                          analyzer.split.val_mask))
    facts["failures"] = len(campaign.failures)
    facts["end"] = time.perf_counter()
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--design")
    source.add_argument("--verilog", metavar="FILE.v")
    parser.add_argument("--workloads", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--explain-sample", type=int, default=0)
    parser.add_argument("--store", metavar="DIR")
    parser.add_argument("--eco", metavar="EDITED.v")
    parser.add_argument("--record", metavar="FILE.json")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    facts = run(args, tracer)
    sys.stdout.flush()
    if args.record:
        facts["spans"] = tracer.spans
        facts["counts"] = tracer.counts
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(facts, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
