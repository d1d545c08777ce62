"""Chaos harness: worker kills, poison units, and SIGINT resumability.

The supervised pool's contract is that violence against its workers
never changes results — a SIGKILLed worker's unit is re-run (per-unit
determinism makes the re-run bitwise identical), a unit that keeps
killing hosts is quarantined into the failure ledger, and a SIGINTed
campaign exits 130 with every completed unit durable on disk.  These
tests commit the violence and check the contract end to end on the
real campaign runner and GNNExplainer.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fi import run_campaign
from repro.fi.runner import CampaignRunner
from repro.graph import GraphData, stratified_split
from repro.models import GCNClassifier
from repro.nn import TrainingConfig
from repro.sim import design_workloads
from repro.utils.parallel import fork_context, shard_bounds
from repro.utils.workerpool import worker_count

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="chaos tests require the fork start method",
)

#: With one usable CPU the units run in this process, and a kill meant
#: for a pool worker would take the test run down instead.
needs_pool = pytest.mark.skipif(
    worker_count(2, units=2) < 2,
    reason="worker kills need a two-worker pool (two usable CPUs)",
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def suite(icfsm):
    return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                            seed=3)


@pytest.fixture(scope="module")
def baseline(icfsm, suite):
    return run_campaign(icfsm, suite)


def assert_campaigns_identical(left, right):
    assert left.workload_names == right.workload_names
    assert np.array_equal(left.error_cycles, right.error_cycles)
    assert np.array_equal(left.detection_cycle, right.detection_cycle)
    assert np.array_equal(left.latent, right.latent)


@needs_pool
class TestCampaignChaos:
    def test_worker_kills_mid_campaign_identical_results(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
    ):
        """SIGKILL the host worker on the first execution of two
        different units (rows 0-1 and rows 2-3 at two jobs): the pool
        requeues each onto a fresh worker and the campaign result
        stays bitwise identical to serial."""
        original = CampaignRunner._run_unit

        def chaotic(self, rows, shard):
            flag = tmp_path / f"killed_{rows[0]}_{shard}"
            if {0, 2} & set(rows) and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        # The pool forks after the patch, so workers inherit it.
        monkeypatch.setattr(CampaignRunner, "_run_unit", chaotic)
        survived = run_campaign(icfsm, suite, jobs=2)
        # Both kills actually happened.
        assert sorted(path.name for path in tmp_path.glob("killed_*")
                      ) == ["killed_0_0", "killed_2_0"]
        assert survived.complete
        assert_campaigns_identical(baseline, survived)

    def test_worker_kills_mid_sharded_campaign(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
    ):
        """Same chaos under the sharded engine + checkpointing: the
        killed units re-run, checkpoints land once, results match."""
        original = CampaignRunner._run_unit
        checkpoints = tmp_path / "ckpt"
        flag = tmp_path / "killed"

        def chaotic(self, rows, shard):
            if 1 in rows and shard == 0 and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        monkeypatch.setattr(CampaignRunner, "_run_unit", chaotic)
        survived = run_campaign(
            icfsm, suite, jobs=2, shard_size=None,
            checkpoint_dir=checkpoints,
        )
        assert flag.exists()  # the kill actually happened
        assert survived.complete
        assert_campaigns_identical(baseline, survived)
        # Every unit checkpoint landed exactly once, despite the kill.
        resumed = run_campaign(icfsm, suite, jobs=2, shard_size=None,
                               checkpoint_dir=checkpoints, resume=True)
        assert_campaigns_identical(baseline, resumed)

    def test_poison_unit_quarantined_into_ledger(
        self, icfsm, icfsm_mixed_suite, icfsm_mixed_baseline,
        monkeypatch,
    ):
        """A unit that SIGKILLs every host it is given puts each of its
        workloads in the failure ledger as ``worker_crash`` naming the
        signal; the other unit's workloads complete with
        bitwise-correct rows."""
        suite, baseline = icfsm_mixed_suite, icfsm_mixed_baseline
        original = CampaignRunner._run_unit

        def poison(self, rows, shard):
            if 1 in rows:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, rows, shard)

        monkeypatch.setattr(CampaignRunner, "_run_unit", poison)
        result = run_campaign(icfsm, suite, jobs=2)
        assert not result.complete
        # The poisoned unit packs both 40-cycle rows.
        assert [f.workload for f in result.failures] == [
            suite[1].name, suite[3].name,
        ]
        for failure in result.failures:
            assert failure.status == "worker_crash"
            assert "SIGKILL" in failure.error
            assert failure.attempts >= 2  # poison_threshold hosts died
        assert list(result.completed_mask) == [True, False, True, False]
        # The poisoned rows degrade to the documented no-error state...
        assert not result.error_cycles[[1, 3]].any()
        # ...and every healthy row is untouched by the chaos.
        healthy = [0, 2]
        assert np.array_equal(baseline.error_cycles[healthy],
                              result.error_cycles[healthy])
        assert np.array_equal(baseline.latent[healthy],
                              result.latent[healthy])


@needs_pool
class TestExplainerChaos:
    @pytest.fixture(scope="class")
    def trained(self):
        """Small irregular graph (cheap to explain many nodes on)."""
        rng = np.random.default_rng(9)
        n = 40
        x = rng.normal(size=(n, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        sources = list(range(n - 1)) + [0, 3, 7, 11, 20, 28]
        targets = list(range(1, n)) + [5, 14, 22, 30, 38, 35]
        data = GraphData(
            design="chaos-graph",
            node_names=[f"G_{i}" for i in range(n)],
            x=x, x_raw=x,
            edge_index=np.array([sources, targets]),
            y_class=y,
            y_score=y.astype(float),
            feature_names=["signal", "noise1", "noise2", "noise3"],
        )
        split = stratified_split(y, 0.2, seed=0)
        model = GCNClassifier(
            hidden_dims=(8,), dropout=0.0, seed=1,
            config=TrainingConfig(epochs=120, patience=40),
        ).fit(data, split)
        return data, model

    def test_worker_kill_mid_explain_many_identical(
        self, trained, tmp_path, monkeypatch,
    ):
        """SIGKILL the worker holding the first explanation batch: the
        batch re-runs on a fresh worker and every explanation matches
        the serial reference exactly (per-node derived RNG)."""
        import repro.explain.gnn_explainer as ge

        data, model = trained
        nodes = list(range(data.n_nodes))
        serial = ge.GNNExplainer(model, data, seed=3).explain_many(
            nodes, jobs=1, batch_size=4
        )

        original = ge.GNNExplainer._explain_batch
        flag = tmp_path / "killed_once"

        def chaotic(self, unit):
            if not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, unit)

        # The pool forks after the patch, so workers inherit it.
        monkeypatch.setattr(ge.GNNExplainer, "_explain_batch", chaotic)
        explainer = ge.GNNExplainer(model, data, seed=3)
        chaos = explainer.explain_many(nodes, jobs=2, batch_size=4)
        assert flag.exists()  # the kill actually happened
        assert len(chaos) == len(serial)
        for left, right in zip(serial, chaos):
            assert left.node_index == right.node_index
            assert left.predicted_class == right.predicted_class
            assert np.array_equal(left.feature_scores,
                                  right.feature_scores)
            assert left.edge_importance == right.edge_importance

    def test_poison_batch_raises_typed_error(
        self, trained, monkeypatch,
    ):
        """A batch that kills every host raises ModelError naming the
        nodes and the signal instead of a bare BrokenProcessPool."""
        import repro.explain.gnn_explainer as ge
        from repro.utils.errors import ModelError

        data, model = trained

        def poison(_self, _unit):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(ge.GNNExplainer, "_explain_batch", poison)
        explainer = ge.GNNExplainer(model, data, seed=3)
        with pytest.raises(ModelError,
                           match="worker_crash.*SIGKILL"):
            explainer.explain_many(list(range(8)), jobs=2,
                                   batch_size=2)


class TestSignalShutdown:
    @pytest.fixture(scope="class")
    def reference(self, icfsm):
        """Uninterrupted serial campaign matching the CLI invocation."""
        return run_campaign(
            icfsm,
            design_workloads(icfsm.name, icfsm, count=8, cycles=400,
                             seed=0),
        )

    #: 64-fault shards: 9 shards x 2 packed units each, so the signal
    #: lands while units are still pending.
    SHARD_SIZE = 64

    def _spawn_campaign(self, checkpoint_dir, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign",
             "or1200_icfsm", "--workloads", "8", "--cycles", "400",
             "--seed", "0", "--jobs", "2",
             "--shard-size", str(self.SHARD_SIZE),
             "--checkpoint-dir", str(checkpoint_dir), *extra],
            cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_exits_130_and_resumes_identically(
        self, tmp_path, signum, reference,
    ):
        """Interrupt a live pooled CLI campaign after its first durable
        checkpoint: it must exit 130 (resumable, not a crash), leave
        only whole unit files behind, and a --resume run must finish
        with results identical to an uninterrupted serial campaign."""
        checkpoint_dir = tmp_path / "ckpt"
        process = self._spawn_campaign(checkpoint_dir)
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                done = list(checkpoint_dir.glob("workload_*.npz"))
                if done:
                    break
                time.sleep(0.02)
            assert process.poll() is None, (
                "campaign finished before the signal could be sent: "
                + process.communicate()[0]
            )
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()
        assert process.returncode == 130, (stdout, stderr)
        assert "resume" in stderr
        completed = sorted(checkpoint_dir.glob("workload_*.npz"))
        assert completed  # durable progress survived the interrupt
        # ...but the run really was partial...
        n_units = 8 * len(shard_bounds(len(reference.faults),
                                       self.SHARD_SIZE))
        assert len(completed) < n_units
        for path in completed:  # ...and left only whole unit files.
            with np.load(path) as archive:
                assert archive["error_cycles"].size

        out = tmp_path / "resumed.npz"
        resumed = self._spawn_campaign(
            checkpoint_dir, extra=("--resume", "--out", str(out)),
        )
        stdout, stderr = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, (stdout, stderr)

        from repro.io import load_campaign

        final = load_campaign(out)
        assert final.complete
        assert_campaigns_identical(reference, final)
