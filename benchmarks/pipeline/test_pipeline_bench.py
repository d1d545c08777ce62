"""Tests of the pipeline benchmark itself: ``pytest benchmarks/pipeline``.

The arithmetic tests run on synthetic data; ``test_smoke_end_to_end``
runs the whole benchmark on tiny inputs (about a minute).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import metrics as M
import run as R

HERE = Path(__file__).resolve().parent
DEFINITIONS = R.definitions()


# ----------------------------------------------------------------------
# statistics and bounds
# ----------------------------------------------------------------------
def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    summary = M.summarize(values)
    assert summary["median"] == q2 == 4.0
    assert (summary["q1"], summary["q3"]) == (q1, q3)
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 9.0, 7)
    assert M.spread(summary) == pytest.approx((q3 - q1) / 4.0)


def test_summary_of_one_sample_has_no_spread():
    summary = M.summarize([2.5])
    assert summary["q1"] == summary["q3"] == summary["median"] == 2.5
    assert M.spread(summary) == 0.0
    with pytest.raises(ValueError):
        M.summarize([])


def test_setup_bound_has_an_absolute_floor():
    # 25% of a 1 s set-up is 0.25 s, below the 0.5 s floor ...
    assert M.allowed_change("setup_s", 1.0, 0.25) == 0.5
    # ... while 25% of a 6 s set-up is above it.
    assert M.allowed_change("setup_s", 6.0, 0.25) == 1.5
    assert M.allowed_change("wall_s", 1.0, 0.25) == 0.25


def test_worsening_respects_direction():
    assert M.worsening(1.0, 1.2, "lower") == pytest.approx(0.2)
    assert M.worsening(0.9, 0.8, "higher") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        M.worsening(1.0, 1.0, "sideways")


@pytest.mark.parametrize("new, expected", [
    ([1.20, 1.21, 1.22], "worse"),      # +21% > 15% bound
    ([1.05, 1.06, 1.07], "same"),
    ([0.80, 0.81, 0.82], "better"),
])
def test_label_lower_is_better(new, expected):
    base = M.summarize([0.99, 1.00, 1.01])
    assert M.label("wall_s", base, M.summarize(new), better="lower",
                   bound=0.15) == expected


@pytest.mark.parametrize("new, expected", [
    ([0.70, 0.71, 0.72], "worse"),
    ([0.88, 0.89, 0.90], "same"),
    ([0.995, 0.996, 0.997], "better"),
])
def test_label_higher_is_better(new, expected):
    base = M.summarize([0.89, 0.90, 0.91])
    assert M.label("gcn_accuracy", base, M.summarize(new), better="higher",
                   bound=0.05) == expected


def test_label_setup_floor_absorbs_small_absolute_moves():
    base = M.summarize([1.0, 1.0, 1.0])
    slower = M.summarize([1.4, 1.4, 1.4])      # +40%, but only +0.4 s
    assert M.label("setup_s", base, slower, better="lower",
                   bound=0.25) == "same"
    assert M.label("setup_s", base, M.summarize([1.6, 1.6, 1.6]),
                   better="lower", bound=0.25) == "worse"


def test_label_unresolved_when_spread_exceeds_bound():
    noisy = M.summarize([0.5, 1.0, 1.5, 2.0])
    steady = M.summarize([1.0, 1.0, 1.0])
    assert M.label("wall_s", steady, noisy, better="lower",
                   bound=0.1) == "unresolved"
    assert M.label("wall_s", noisy, steady, better="lower",
                   bound=0.1) == "unresolved"
    # ... unless every new sample beats every base sample.
    fast = M.summarize([0.1, 0.2, 0.3])
    assert M.label("wall_s", noisy, fast, better="lower",
                   bound=0.1) == "better"


def _record(**walls):
    return {"workloads": {
        name: {"end_to_end": {"wall_s": M.summarize(values),
                              "setup_s": M.summarize([1.0, 1.0, 1.0])}}
        for name, values in walls.items()
    }}


def test_compare_labels_each_workload():
    definitions = [
        {"name": "wall_s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    base = _record(a=[1.0, 1.0, 1.0], b=[2.0, 2.0, 2.0])
    new = _record(a=[1.3, 1.3, 1.3], b=[2.0, 2.01, 2.02])
    assert M.compare(base, new, definitions) == {
        "a": {"wall_s": "worse", "setup_s": "same"},
        "b": {"wall_s": "same", "setup_s": "same"},
    }


def test_compare_command_exit_code(tmp_path):
    base = _record(**{"if-cold": [1.0, 1.0, 1.0]})
    slower = _record(**{"if-cold": [2.0, 2.0, 2.0]})
    paths = {}
    for name, record in (("base", base), ("slower", slower)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(record))
    assert R.main(["compare", str(paths["base"]), str(paths["base"])]) == 0
    assert R.main(["compare", str(paths["base"]),
                   str(paths["slower"])]) == 1


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None, **extra):
    return dict(name=name, parent=parent, start=start, end=end,
                cpu_start=start, cpu_end=start + 2 * (end - start),
                rss_start_mib=100.0, rss_end_mib=101.0, **extra)


def _traced_record():
    # spawn at t=0; import ends at 1.0; end of report at 9.0; reaped 9.5
    spans = [
        _span("fi.campaign", 1.0, 3.0),                    # 0
        _span("store.get", 1.0, 1.5, parent=0, kind="campaign",
              hit=False),                                  # 1
        _span("store.put", 2.5, 3.0, parent=0),            # 2
        _span("nn.classifier", 3.0, 4.5),                  # 3
        _span("nn.regressor", 4.5, 6.0),                   # 4
        _span("explain", 6.0, 8.5),                        # 5
        _span("store.get", 6.0, 6.5, parent=5, kind="explanations",
              hit=False),                                  # 6
    ]
    return {
        "spans": spans,
        "counts": {"fi.faults": 10, "sim.cycles": 100, "nn.epochs": 300,
                   "explain.nodes": 4, "store.misses": 2,
                   "store.bytes_written": 1000},
        "import_end": 1.0, "end": 9.0, "failures": 0,
        "gcn_accuracy": 0.9, "gcn_auc": 0.95, "score_pearson": 0.8,
    }


def test_self_time_subtracts_nested_store_spans():
    own = M.self_times(_traced_record()["spans"])
    assert own["fi.campaign"] == pytest.approx(1.0)     # 2.0 - 0.5 - 0.5
    assert own["explain"] == pytest.approx(2.0)         # 2.5 - 0.5
    assert own["store.get"] == pytest.approx(1.0)
    assert own["store.put"] == pytest.approx(0.5)


def test_layer_metrics_coverage_and_rates():
    layers = M.layer_metrics(_traced_record(), spawn=0.0, end=9.5)
    assert layers["import.s"] == pytest.approx(1.0)
    assert layers["exit.s"] == pytest.approx(0.5)
    # top-level spans cover 1.0..8.5; 8.5..9.0 is untraced
    assert layers["core.other_s"] == pytest.approx(0.5)
    assert layers["trace.coverage"] == pytest.approx(9.0 / 9.5)
    assert layers["fi.fault_cycles"] == 1000
    assert layers["fi.fault_cycles_per_s"] == pytest.approx(1000.0)
    assert layers["nn.epochs_per_s"] == pytest.approx(100.0)
    assert layers["nn.cpu_per_wall"] == pytest.approx(2.0)
    assert layers["explain.nodes_per_s"] == pytest.approx(2.0)
    assert layers["store.hit_ratio"] == 0.0
    assert layers["fi.campaign_rss_delta_mib"] == pytest.approx(1.0)
    names = {d["name"] for d in DEFINITIONS["per_layer"]} - {"trace.overhead"}
    assert names <= set(layers)
    assert M.dominant_stage(layers) == "explain.s"


def test_store_hits_mean_no_work_was_done():
    record = _traced_record()
    for span in record["spans"]:
        if span["name"] == "store.get":
            span["hit"] = True
    layers = M.layer_metrics(record, spawn=0.0, end=9.5)
    assert layers["fi.fault_cycles"] == 0
    assert layers["explain.nodes"] == 0


def test_normalise_masks_wall_clock_readings():
    table = ("Analysis summary\n"
             "+-----+------------+\n"
             "| gcn | fi_seconds |\n"
             "+=====+============+\n"
             "| 1.0 | {}       |\n"
             "+-----+------------+\n"
             "fault reuse: 36 re-simulated in {}s\n")
    first = table.format("2.5 ", "1.78")
    second = table.format("2.32", "0.91")
    assert first != second
    assert M.normalise(first) == M.normalise(second)
    assert M.normalise(first) != M.normalise(
        first.replace("| 1.0 |", "| 0.9 |"))


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(R.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "if-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_smoke_end_to_end(tmp_path):
    out = tmp_path / "smoke.json"
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-3000:]
    record = json.loads(out.read_text())
    assert record["fidelity"] == "child report == repro analyze"
    assert set(record["workloads"]) == {w.name for w in R.WORKLOADS}
    for name, entry in record["workloads"].items():
        assert entry["problems"] == [] and entry["failed_frac"] == 0
        for definition in DEFINITIONS["end_to_end"]:
            assert entry["end_to_end"][definition["name"]]["n"] >= 1
        layers = entry["per_layer"]
        assert layers["trace.coverage"]["value"] >= 0.95, name
    warm = record["workloads"]["if-warm"]["per_layer"]
    assert warm["store.hit_ratio"]["value"] == 1.0
    assert warm["fi.fault_cycles"]["value"] == 0
    eco = record["workloads"]["if-eco"]["per_layer"]
    assert eco["fi.eco_resim_faults"]["value"] > 0
