"""The model stages on the worker pool equal their in-process runs.

With more than one job the analyzer trains the two GCN heads, fits the
five baselines and runs the explainer's batches on fork workers.  What
it returns, stores and prints must be byte-equal to ``jobs=1``; a run
whose model stages all hit the store must fork nothing; a worker-side
failure must surface as a typed error naming its unit.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.fi import run_campaign
from repro.models import GCNClassifier, GCNRegressor
from repro.store import ArtifactStore
from repro.utils.errors import ModelError
from repro.utils.parallel import fork_context, resolve_jobs
from repro.utils.workerpool import (
    PoolPolicy,
    WorkerPool,
    run_supervised,
    worker_count,
)
from tests._fresh import run_fresh

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="the worker pool requires the fork start method",
)

#: ``jobs=2`` forks only where two CPUs are usable; on one it runs
#: in-process, and there is no pool to count or to fail in.
needs_pool = pytest.mark.skipif(
    worker_count(2, units=2) < 2,
    reason="needs a two-worker pool (two usable CPUs)",
)

SMALL = dict(n_workloads=2, workload_cycles=60, seed=0)
ANALYZE = ["analyze", "sdram", "--workloads", "2", "--cycles", "60",
           "--explain-sample", "1", "--no-store"]


def assert_same(left, right) -> None:
    """Equal types, and byte-equal arrays and floats, all the way down."""
    assert type(left) is type(right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
    elif dataclasses.is_dataclass(left):
        for field in dataclasses.fields(left):
            assert_same(getattr(left, field.name),
                        getattr(right, field.name))
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for mine, theirs in zip(left, right):
            assert_same(mine, theirs)
    elif isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            assert_same(left[key], right[key])
    else:
        assert repr(left) == repr(right)  # floats: bits, NaN included


def _head_state(model):
    return ([parameter.value for parameter in model.model.parameters()],
            model.history)


def _run(analyzer):
    """Every model-stage product the analyzer hands out."""
    nodes = analyzer.sample_explain_nodes(per_class=2)
    return {
        "classifier": _head_state(analyzer.classifier),
        "regressor": _head_state(analyzer.regressor),
        "accuracies": analyzer.baseline_accuracies(),
        "rocs": analyzer.baseline_rocs(),
        "explanations": analyzer.explain_nodes(nodes),
        "reports": [report.as_row()
                    for report in analyzer.node_report(nodes)],
        "summary": {key: value
                    for key, value in analyzer.summary().items()
                    if key != "fi_seconds"},
    }


@pytest.fixture(scope="module")
def serial_and_pooled(sdram):
    config = AnalyzerConfig(**SMALL)
    pools = []
    with pytest.MonkeyPatch.context() as patch:
        real_init = WorkerPool.__init__

        def counting(self, *args, **kwargs):
            pools.append(1)
            real_init(self, *args, **kwargs)

        patch.setattr(WorkerPool, "__init__", counting)
        serial = _run(FaultCriticalityAnalyzer(sdram, config, jobs=1))
        serial_pools = len(pools)
        pooled = _run(FaultCriticalityAnalyzer(sdram, config, jobs=2))
    return serial, pooled, serial_pools, len(pools) - serial_pools


@pytest.mark.parametrize("part", ["classifier", "regressor",
                                  "accuracies", "rocs", "explanations",
                                  "reports", "summary"])
def test_pooled_stage_matches_serial(serial_and_pooled, part):
    serial, pooled, _, _ = serial_and_pooled
    assert_same(pooled[part], serial[part])


@needs_pool
def test_only_the_pooled_analyzer_forks(serial_and_pooled):
    _, _, serial_pools, pooled_pools = serial_and_pooled
    assert serial_pools == 0
    # Both heads share one pool; the baselines and the ROC views one
    # each; the explainer one per call with more than one batch.
    assert pooled_pools >= 3


def _normalise():
    """The pipeline benchmark's ``normalise``: it masks the wall-clock
    readings ``analyze`` prints (``*_seconds`` columns, ``1.23s``)."""
    path = (Path(__file__).parent.parent / "benchmarks" / "pipeline"
            / "metrics.py")
    spec = importlib.util.spec_from_file_location("pipeline_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.normalise


def test_analyze_report_matches_serial(capsys):
    assert main(ANALYZE + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(ANALYZE + ["--jobs", "2"]) == 0
    pooled = capsys.readouterr().out
    assert main(ANALYZE) == 0
    default = capsys.readouterr().out
    assert "fi_seconds" in serial and "GNNExplainer sample" in serial
    normalise = _normalise()
    assert normalise(pooled) == normalise(serial)
    assert normalise(default) == normalise(serial)


def test_warm_store_run_forks_nothing(sdram, tmp_path, monkeypatch):
    config = AnalyzerConfig(**SMALL)
    directory = tmp_path / "store"
    cold = _run(FaultCriticalityAnalyzer(
        sdram, config, store=ArtifactStore(directory), jobs=2))

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a warm run constructed a WorkerPool")

    monkeypatch.setattr(WorkerPool, "__init__", forbidden)
    warm = FaultCriticalityAnalyzer(
        sdram, config, store=ArtifactStore(directory), jobs=2)
    nodes = warm.sample_explain_nodes(per_class=2)
    assert_same(warm.baseline_accuracies(), cold["accuracies"])
    assert_same(warm.explain_nodes(nodes), cold["explanations"])
    assert_same([report.as_row() for report in warm.node_report(nodes)],
                cold["reports"])
    assert_same([parameter.value
                 for parameter in warm.regressor.model.parameters()],
                cold["regressor"][0])


def _diverge(self, data, split):
    raise RuntimeError("diverged")


def _forbidden(self, data, split):
    raise AssertionError("a head was trained that should not be")


@needs_pool
def test_head_failing_in_worker_names_the_head(sdram, serial_and_pooled,
                                               monkeypatch):
    monkeypatch.setattr(GCNRegressor, "fit", _diverge)
    analyzer = FaultCriticalityAnalyzer(sdram, AnalyzerConfig(**SMALL),
                                        jobs=2)
    with pytest.raises(ModelError, match=r"GCN regressor training "
                       r"failed in a pool worker: RuntimeError: diverged"):
        analyzer.regressor
    # The classifier trained beside it is kept, not trained again.
    monkeypatch.setattr(GCNClassifier, "fit", _forbidden)
    serial = serial_and_pooled[0]
    assert_same(_head_state(analyzer.classifier), serial["classifier"])


def test_other_head_failing_spares_the_requested_one(
        sdram, serial_and_pooled, monkeypatch):
    monkeypatch.setattr(GCNRegressor, "fit", _diverge)
    analyzer = FaultCriticalityAnalyzer(sdram, AnalyzerConfig(**SMALL),
                                        jobs=2)
    serial = serial_and_pooled[0]
    assert_same(_head_state(analyzer.classifier), serial["classifier"])
    # The regressor that failed beside it was left untrained: asking
    # for it trains it again, alone and in-process, failing as it does
    # at jobs=1.
    with pytest.raises(RuntimeError, match="diverged"):
        analyzer.regressor


def test_harden_trains_only_the_regressor(monkeypatch, capsys):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("harden constructed a WorkerPool")

    monkeypatch.setattr(WorkerPool, "__init__", no_pool)
    monkeypatch.setattr(GCNClassifier, "fit", _forbidden)
    assert main(["harden", "sdram", "--workloads", "2", "--cycles",
                 "60"]) == 0
    assert "mission failure probability" in capsys.readouterr().out


def _campaign_rows(campaign):
    return (campaign.error_cycles, campaign.detection_cycle,
            campaign.latent, campaign.failures)


def test_one_cpu_runs_every_stage_in_process(sdram, monkeypatch):
    """On a one-CPU affinity mask an explicit ``jobs=2`` is clamped to
    one worker: no stage forks, no head trains that was not asked for,
    and every value equals ``jobs=1``."""
    grid = dict(hidden_dim_options=[(8,)], dropout_options=[0.0, 0.3],
                lr_options=[0.01], epochs=5)

    def products(analyzer):
        return {
            "campaign": _campaign_rows(analyzer.campaign),
            "classifier": _head_state(analyzer.classifier),
            "accuracies": analyzer.baseline_accuracies(),
            "explanations": analyzer.explain_nodes(
                analyzer.sample_explain_nodes(per_class=2)),
            "grid": repr(analyzer.grid_search(**grid)),
        }

    config = AnalyzerConfig(**SMALL)
    serial = FaultCriticalityAnalyzer(sdram, config, jobs=1)
    expected = products(serial)

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a one-CPU run constructed a WorkerPool")

    monkeypatch.setattr("os.sched_getaffinity", lambda _pid: {0})
    monkeypatch.setattr(WorkerPool, "__init__", no_pool)
    monkeypatch.setattr(GCNRegressor, "fit", _forbidden)
    assert_same(_campaign_rows(run_campaign(sdram, serial.workloads,
                                            jobs=2)),
                expected["campaign"])
    clamped = FaultCriticalityAnalyzer(sdram, config, jobs=2)
    assert clamped.jobs == clamped.fi_jobs == 1
    assert_same(products(clamped), expected)
    assert clamped._regressor is None


def test_default_jobs_is_serial_inside_a_pool_worker(sdram):
    assert worker_count(0) == resolve_jobs(0)
    assert FaultCriticalityAnalyzer(sdram).jobs == resolve_jobs(0)
    # Pool workers are daemonic, and daemonic processes may not fork:
    # a default and an explicit request both run in-process there.
    [inside] = run_supervised(
        lambda _unit: (FaultCriticalityAnalyzer(sdram).jobs,
                       FaultCriticalityAnalyzer(sdram, jobs=2).jobs),
        [0], PoolPolicy(jobs=1),
    )
    assert inside.ok and inside.value == (1, 1)


#: A default analyzer on ``sdram``, run stage by stage in a fresh
#: interpreter, recording the stage and the ``repro`` modules loaded
#: each time a ``WorkerPool`` is constructed.
_POOL_IMPORTS = """
import json, sys
from repro.utils.workerpool import WorkerPool

stage, seen, construct = None, [], WorkerPool.__init__

def recording(self, *args, **kwargs):
    seen.append([stage, sorted(name for name in sys.modules
                               if name.startswith("repro."))])
    construct(self, *args, **kwargs)

WorkerPool.__init__ = recording
from repro import AnalyzerConfig, FaultCriticalityAnalyzer, build_design
analyzer = FaultCriticalityAnalyzer(
    build_design("sdram"),
    AnalyzerConfig(n_workloads=2, workload_cycles=60, seed=0))
stage = "heads"
analyzer.classifier
stage = "baselines"
analyzer.baseline_accuracies()
stage = "explain"
analyzer.explain_nodes(analyzer.sample_explain_nodes(per_class=2),
                       batch_size=1)
print(json.dumps({"pools": seen}))
"""


@needs_pool
def test_pool_stages_import_their_code_before_forking():
    # Workers share code the parent imported copy-on-write; code first
    # imported in a worker is compiled again by every worker.
    pools = run_fresh(_POOL_IMPORTS)["pools"]
    expected = {
        "heads": {"repro.nn.engine"},
        "baselines": {"repro.models.mlp", "repro.models.logistic",
                      "repro.models.random_forest", "repro.models.svm",
                      "repro.models.ebm"},
        "explain": {"repro.explain.gnn_explainer"},
    }
    assert {stage for stage, _modules in pools} == set(expected)
    for stage, modules in pools:
        assert expected[stage] <= set(modules), stage
