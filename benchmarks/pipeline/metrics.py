"""Statistics, regression bounds and span reduction for the pipeline
benchmark.  Pure functions on plain data, so the tests exercise them
without running the pipeline.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Absolute slack added to a relative bound: ``setup_s`` is one short
#: preparation, where half a second of host noise is not a regression.
ABSOLUTE_FLOOR = {"setup_s": 0.5}

#: Stage spans recorded by the child, in pipeline order.  ``store.*``
#: spans nest inside them; every other span is top level.
STAGES = (
    "netlist.read", "sim.workloads", "fi.campaign", "fi.eco",
    "features.extract", "features.patch", "fi.dataset", "graph.build",
    "nn.classifier", "nn.regressor", "models.baselines", "explain",
)
STORE_SPANS = ("store.get", "store.put")


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4), min/max, n.

    With fewer than ten samples no tail percentile is meaningful, so
    none is reported.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    if median == 0:
        return 0.0 if summary["q3"] == summary["q1"] else float("inf")
    return (summary["q3"] - summary["q1"]) / abs(median)


def allowed_change(metric: str, base_median: float, bound: float) -> float:
    """How far a metric may move the wrong way before it counts as a
    regression: ``bound`` as a share of the base median, but never less
    than the metric's absolute floor."""
    return max(bound * abs(base_median), ABSOLUTE_FLOOR.get(metric, 0.0))


def worsening(base_median: float, new_median: float, better: str) -> float:
    """Signed move from base to new, positive when new is worse."""
    if better == "lower":
        return new_median - base_median
    if better == "higher":
        return base_median - new_median
    raise ValueError(f"direction must be 'lower' or 'higher', not {better!r}")


def label(metric: str, base: dict, new: dict, *, better: str,
          bound: float) -> str:
    """``better``, ``same``, ``worse`` or ``unresolved`` for one
    metric on one workload (choosing-metrics §6.5).

    A pair whose run-to-run spread on either side exceeds the bound is
    unresolved, unless every new sample beats every base sample.
    """
    if better == "lower":
        all_better = new["max"] < base["min"]
    else:
        all_better = new["min"] > base["max"]
    if spread(base) > bound or spread(new) > bound:
        return "better" if all_better else "unresolved"
    move = worsening(base["median"], new["median"], better)
    slack = allowed_change(metric, base["median"], bound)
    if move > slack:
        return "worse"
    if -move > slack:
        return "better"
    return "same"


def compare(base: dict, new: dict, definitions: Sequence[dict]) -> dict:
    """Label every end-to-end metric on every workload both records
    share: ``{workload: {metric: label}}``."""
    labels: Dict[str, Dict[str, str]] = {}
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        row = {}
        for definition in definitions:
            name = definition["name"]
            if (name in base_entry["end_to_end"]
                    and name in new_entry["end_to_end"]):
                row[name] = label(
                    name, base_entry["end_to_end"][name],
                    new_entry["end_to_end"][name],
                    better=definition["better"], bound=definition["bound"],
                )
        labels[workload] = row
    return labels


# ----------------------------------------------------------------------
# span reduction
# ----------------------------------------------------------------------
def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Per span name: total duration minus the time of spans nested
    directly inside it (for a stage, its store spans)."""
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span["end"] - span["start"] - children[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def _sum_over(spans: Iterable[dict], names: Sequence[str], key_end: str,
              key_start: str) -> float:
    return sum(span[key_end] - span[key_start] for span in spans
               if span["name"] in names)


def _layer_metric(stage: str, suffix: str) -> str:
    """``fi.campaign`` -> ``fi.campaign_s``; ``explain`` -> ``explain.s``."""
    return f"{stage}_{suffix}" if "." in stage else f"{stage}.{suffix}"


def layer_metrics(record: dict, spawn: float, end: float) -> Dict[str, float]:
    """Per-layer numbers from one traced child run.

    ``record`` is the child's ``--record`` JSON; ``spawn`` and ``end``
    are the parent's ``perf_counter`` readings around the child process
    (the clock is system-wide, so they share the child's time base).
    ``import.s`` runs from the fork to the first pipeline call and
    ``exit.s`` from the end of the report to the reaped process
    (writing the record, then interpreter shutdown).
    """
    spans = record["spans"]
    counts = record["counts"]
    wall = end - spawn
    own = self_times(spans)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    import_s = record["import_end"] - spawn
    exit_s = end - record["end"]
    metrics: Dict[str, float] = {"import.s": import_s, "exit.s": exit_s}
    for stage in STAGES + STORE_SPANS:
        metrics[_layer_metric(stage, "s")] = own.get(stage, 0.0)
    for stage in STAGES:
        metrics[_layer_metric(stage, "rss_delta_mib")] = _sum_over(
            spans, (stage,), "rss_end_mib", "rss_start_mib")
    covered = import_s + top + exit_s
    metrics["core.other_s"] = wall - covered
    metrics["trace.coverage"] = covered / wall

    metrics["netlist.gates"] = counts.get("netlist.gates", 0)
    metrics["sim.cycles"] = counts.get("sim.cycles", 0)
    faults = counts.get("fi.faults", 0)
    fault_cycles = (0 if _read_from_store(spans, "campaign")
                    else faults * metrics["sim.cycles"])
    metrics["fi.faults"] = faults
    metrics["fi.fault_cycles"] = fault_cycles
    metrics["fi.fault_cycles_per_s"] = _rate(fault_cycles,
                                             metrics["fi.campaign_s"])
    metrics["fi.failed_units"] = record["failures"]
    for quality in ("gcn_accuracy", "gcn_auc", "score_pearson"):
        metrics[f"nn.{quality}"] = record[quality]
    resim = counts.get("fi.eco_resim_faults", 0)
    reused = counts.get("fi.eco_reused_faults", 0)
    metrics["fi.eco_resim_faults"] = resim
    metrics["fi.eco_reuse_frac"] = _rate(reused, resim + reused)

    epochs = counts.get("nn.epochs", 0)
    nn_spans = ("nn.classifier", "nn.regressor")
    nn_wall = metrics["nn.classifier_s"] + metrics["nn.regressor_s"]
    metrics["nn.epochs"] = epochs
    metrics["nn.epochs_per_s"] = _rate(epochs, nn_wall)
    metrics["nn.cpu_per_wall"] = _rate(
        _sum_over(spans, nn_spans, "cpu_end", "cpu_start"),
        _sum_over(spans, nn_spans, "end", "start"),
    )
    metrics["models.baselines_rss_mib"] = max(
        (s["rss_end_mib"] for s in spans if s["name"] == "models.baselines"),
        default=0.0,
    )
    nodes = (0 if _read_from_store(spans, "explanations")
             else counts.get("explain.nodes", 0))
    metrics["explain.nodes"] = nodes
    metrics["explain.nodes_per_s"] = _rate(nodes, metrics["explain.s"])

    hits = counts.get("store.hits", 0)
    misses = counts.get("store.misses", 0)
    metrics["store.hits"] = hits
    metrics["store.misses"] = misses
    metrics["store.hit_ratio"] = _rate(hits, hits + misses)
    metrics["store.bytes_read"] = counts.get("store.bytes_read", 0)
    metrics["store.bytes_written"] = counts.get("store.bytes_written", 0)
    return metrics


def _read_from_store(spans: Sequence[dict], kind: str) -> bool:
    """Whether a stage's result came from the store (no work done)."""
    return any(span["name"] == "store.get" and span.get("kind") == kind
               and span.get("hit") for span in spans)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def dominant_stage(layers: Dict[str, float]) -> str:
    """The time metric (import, a stage's self time, store I/O or the
    untraced remainder) with the largest share of the run."""
    times = {name: value for name, value in layers.items()
             if name.endswith(("_s", ".s")) and not name.endswith("per_s")}
    return max(times, key=times.get)


# ----------------------------------------------------------------------
# stdout normalisation
# ----------------------------------------------------------------------
_SECONDS = re.compile(r"\d+\.\d+s\b")


def normalise(stdout: str) -> str:
    """Mask the wall-clock readings ``analyze`` prints, so that two cold
    runs of the same inputs compare equal: every ``*_seconds`` column
    of a rendered table and every ``1.23s`` in running text."""
    lines: List[str] = []
    timing_columns: Optional[set] = None
    for line in stdout.splitlines():
        if line.startswith("|"):
            cells = line.split("|")
            names = [cell.strip() for cell in cells]
            if any(name.endswith("_seconds") for name in names):
                timing_columns = {index for index, name in enumerate(names)
                                  if name.endswith("_seconds")}
            elif timing_columns:
                line = "|".join("#" if index in timing_columns else cell
                                for index, cell in enumerate(cells))
        elif not line.startswith("+"):
            timing_columns = None
        lines.append(_SECONDS.sub("#s", line))
    return "\n".join(lines) + "\n"
