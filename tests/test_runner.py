"""Tests for the resilient campaign runner: backoff/retry policies,
checkpoint/resume, timeout supervision, and graceful degradation."""

import json

import numpy as np
import pytest

from repro.fi import run_campaign
from repro.fi.checkpoint import MANIFEST_NAME
from repro.fi.faults import full_fault_universe
from repro.fi.observation import observation_for
from repro.fi.runner import CampaignRunner, PassTimeout, RunnerPolicy
from repro.sim import Workload, design_workloads
from repro.sim.bitparallel import BitParallelSimulator, StuckAt
from repro.utils.errors import (
    CampaignError,
    SerializationError,
    SimulationError,
)
from repro.utils.parallel import auto_shard_size
from repro.utils.retry import BackoffPolicy, retry_call

NO_WAIT = BackoffPolicy(base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def suite(icfsm):
    return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                            seed=0)


@pytest.fixture(scope="module")
def baseline(icfsm, suite):
    return run_campaign(icfsm, suite)


def assert_campaigns_identical(left, right):
    assert left.netlist_name == right.netlist_name
    assert left.workload_names == right.workload_names
    assert np.array_equal(left.workload_cycles, right.workload_cycles)
    assert np.array_equal(left.error_cycles, right.error_cycles)
    assert np.array_equal(left.detection_cycle, right.detection_cycle)
    assert np.array_equal(left.latent, right.latent)
    assert left.severity == right.severity


class TestBackoffPolicy:
    def test_exponential_growth_and_cap(self):
        policy = BackoffPolicy(base=1.0, multiplier=2.0, max_delay=5.0,
                               jitter=0.0)
        assert policy.delays(4) == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_bounds_and_determinism(self):
        policy = BackoffPolicy(base=1.0, multiplier=1.0, max_delay=10.0,
                               jitter=0.25, seed=7)
        delays = policy.delays(50)
        assert all(0.75 <= delay <= 1.25 for delay in delays)
        assert delays == policy.delays(50)  # seeded => reproducible
        assert delays != BackoffPolicy(
            base=1.0, multiplier=1.0, max_delay=10.0, jitter=0.25,
            seed=8,
        ).delays(50)

    def test_validation(self):
        with pytest.raises(SimulationError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(SimulationError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(max_elapsed=0.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(max_elapsed=-5.0)
        assert BackoffPolicy(max_elapsed=10.0).max_elapsed == 10.0
        assert BackoffPolicy().max_elapsed is None  # unbounded default


class TestRetryCall:
    def _fake_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        def sleep(seconds):
            state["now"] += seconds

        return clock, sleep, state

    def test_success_first_try(self):
        clock, sleep, _ = self._fake_clock()
        value, outcome = retry_call(lambda: 42, retries=3,
                                    sleep=sleep, clock=clock)
        assert value == 42
        assert outcome.succeeded and outcome.attempts == 1

    def test_succeeds_after_failures_with_backoff_schedule(self):
        clock, sleep, state = self._fake_clock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        policy = BackoffPolicy(base=1.0, multiplier=2.0,
                               max_delay=100.0, jitter=0.0)
        value, outcome = retry_call(flaky, retries=5, backoff=policy,
                                    sleep=sleep, clock=clock)
        assert value == "ok"
        assert outcome.attempts == 3
        assert state["now"] == 3.0  # slept 1s then 2s on the fake clock

    def test_exhaustion_returns_last_error(self):
        clock, sleep, _ = self._fake_clock()

        def always_broken():
            raise ValueError("permanent")

        value, outcome = retry_call(always_broken, retries=2,
                                    backoff=NO_WAIT, sleep=sleep,
                                    clock=clock)
        assert value is None
        assert not outcome.succeeded
        assert outcome.attempts == 3
        assert isinstance(outcome.error, ValueError)

    def test_kill_propagates(self):
        def killed():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            retry_call(killed, retries=5, backoff=NO_WAIT,
                       sleep=lambda _s: None)

    def test_negative_retries_rejected(self):
        with pytest.raises(SimulationError):
            retry_call(lambda: 1, retries=-1)

    def test_max_elapsed_stops_retrying_early(self):
        """The wall-clock deadline wins over remaining retries: a
        sleep that would overrun the budget is never taken."""
        clock, sleep, state = self._fake_clock()

        def always_broken():
            raise ValueError("permanent")

        policy = BackoffPolicy(base=1.0, multiplier=1.0,
                               max_delay=10.0, jitter=0.0,
                               max_elapsed=2.5)
        value, outcome = retry_call(always_broken, retries=10,
                                    backoff=policy, sleep=sleep,
                                    clock=clock)
        assert value is None
        assert not outcome.succeeded
        # Slept 1s twice (to t=2.0); the third 1s sleep would land at
        # t=3.0 >= 2.5, so the call gives up after 3 of 11 attempts.
        assert outcome.attempts == 3
        assert state["now"] == 2.0
        assert isinstance(outcome.error, ValueError)

    def test_max_elapsed_never_blocks_first_attempt(self):
        """A tiny budget still allows exactly one attempt — the
        deadline bounds *retrying*, not calling."""
        clock, sleep, _ = self._fake_clock()
        policy = BackoffPolicy(base=1.0, jitter=0.0, max_elapsed=0.5)
        value, outcome = retry_call(lambda: "ok", retries=5,
                                    backoff=policy, sleep=sleep,
                                    clock=clock)
        assert value == "ok"
        assert outcome.attempts == 1

        def broken():
            raise RuntimeError("nope")

        value, outcome = retry_call(broken, retries=5, backoff=policy,
                                    sleep=sleep, clock=clock)
        assert value is None
        assert outcome.attempts == 1  # no sleep fits inside 0.5s

    def test_runner_rejects_deadline_below_timeout(self, icfsm, suite):
        with pytest.raises(CampaignError, match="max_elapsed"):
            RunnerPolicy(
                timeout=10.0, retries=2,
                backoff=BackoffPolicy(max_elapsed=5.0),
            )

    def test_campaign_honours_retry_deadline(
        self, icfsm, icfsm_mixed_suite, monkeypatch,
    ):
        """With a deadline that only covers one backoff sleep, a
        permanently broken unit stops retrying early and each of its
        workloads lands in the ledger with fewer attempts than the
        retry budget allows."""
        suite = icfsm_mixed_suite
        original = BitParallelSimulator.run_pass
        broken = suite[1].name

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                raise RuntimeError("injected permanent fault")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            flaky)
        policy = BackoffPolicy(base=30.0, multiplier=1.0, jitter=0.0,
                               max_elapsed=1.0)
        result = run_campaign(icfsm, suite, retries=5, backoff=policy)
        # The broken workload's unit packs both 40-cycle rows.
        assert [f.workload for f in result.failures] == [
            suite[1].name, suite[3].name,
        ]
        for failure in result.failures:
            assert failure.status == "error"
            # 6 attempts allowed, but the first 30s sleep would overrun
            # the 1s budget — exactly one attempt happened.
            assert failure.attempts == 1
        assert list(result.completed_mask) == [True, False, True, False]


class TestPreflight:
    def test_zero_cycle_workload_rejected(self, icfsm):
        empty = Workload(
            "empty", icfsm.input_names(),
            np.zeros((0, icfsm.n_inputs), dtype=np.uint8),
        )
        with pytest.raises(SimulationError, match="zero-cycle"):
            run_campaign(icfsm, [empty])

    def test_duplicate_workload_names_rejected(self, icfsm, suite):
        with pytest.raises(SimulationError, match="duplicate"):
            run_campaign(icfsm, [suite[0], suite[0]])

    def test_policy_validation(self):
        with pytest.raises(CampaignError):
            RunnerPolicy(timeout=0.0)
        with pytest.raises(CampaignError):
            RunnerPolicy(retries=-1)
        with pytest.raises(CampaignError):
            RunnerPolicy(resume=True)  # no checkpoint_dir


class TestCheckpointResume:
    def test_uninterrupted_checkpointed_run_matches_plain(
        self, icfsm, suite, baseline, tmp_path,
    ):
        checkpointed = run_campaign(icfsm, suite,
                                    checkpoint_dir=tmp_path)
        assert_campaigns_identical(baseline, checkpointed)
        files = sorted(path.name for path in tmp_path.iterdir())
        assert MANIFEST_NAME in files
        assert sum(name.startswith("workload_") for name in files) == 4

    def test_killed_campaign_resumes_identically(
        self, icfsm, icfsm_mixed_suite, icfsm_mixed_baseline, tmp_path,
        monkeypatch,
    ):
        """Simulated SIGKILL after the first unit (two packed
        workloads) completed: the interrupt propagates (kills stay
        kills), checkpoints survive, and the resumed campaign is
        identical to an uninterrupted one."""
        suite, baseline = icfsm_mixed_suite, icfsm_mixed_baseline
        original = BitParallelSimulator.run_pass
        passes = {"n": 0}

        def dying(self, workloads, *args, **kwargs):
            if passes["n"] == 1:
                raise KeyboardInterrupt
            passes["n"] += 1
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            dying)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         retries=3, backoff=NO_WAIT)
        completed = [path for path in tmp_path.iterdir()
                     if path.name.startswith("workload_")]
        assert len(completed) == 2  # durable progress survived the kill

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            original)
        resumed = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               resume=True)
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete

    def test_resume_with_collapse(self, icfsm, suite, tmp_path):
        plain = run_campaign(icfsm, suite, collapse=True)
        run_campaign(icfsm, suite, collapse=True,
                     checkpoint_dir=tmp_path)
        resumed = run_campaign(icfsm, suite, collapse=True,
                               checkpoint_dir=tmp_path, resume=True)
        assert_campaigns_identical(plain, resumed)

    def test_fresh_run_refuses_populated_directory(
        self, icfsm, suite, tmp_path,
    ):
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        with pytest.raises(CampaignError, match="resume it"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path)

    def test_resume_without_manifest_rejected(
        self, icfsm, suite, tmp_path,
    ):
        with pytest.raises(CampaignError, match="nothing to resume"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         resume=True)

    def test_resume_different_campaign_rejected(
        self, icfsm, suite, tmp_path,
    ):
        """Same workload *names*, different stimulus bytes: the
        fingerprint must catch it."""
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        other = design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                                 seed=99)
        assert [w.name for w in other] == [w.name for w in suite]
        with pytest.raises(CampaignError, match="different campaign"):
            run_campaign(icfsm, other, checkpoint_dir=tmp_path,
                         resume=True)

    def test_torn_workload_checkpoint_resimulated(
        self, icfsm, suite, baseline, tmp_path,
    ):
        """A unit file truncated mid-write (the kill-during-save
        signature) is skipped and re-simulated on resume — resuming
        after a crash must never require manual file surgery."""
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        victim = tmp_path / "workload_0001.npz"
        victim.write_bytes(victim.read_bytes()[:40])  # torn bytes
        resumed = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               resume=True)
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete
        # The re-simulated unit was durably re-checkpointed intact.
        third = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                             resume=True)
        assert_campaigns_identical(baseline, third)

    def test_mismatched_workload_checkpoint_still_rejected(
        self, icfsm, suite, tmp_path,
    ):
        """A *well-formed* unit file that belongs to a different
        campaign configuration is an operator error, not a torn
        write — it must refuse loudly, never silently re-simulate."""
        from repro.io import save_workload_checkpoint

        campaign = run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        save_workload_checkpoint(
            tmp_path / "workload_0001.npz",
            fingerprint="0" * 64,  # some other campaign's digest
            workload_index=1,
            error_cycles=campaign.error_cycles[1],
            detection_cycle=campaign.detection_cycle[1],
            latent=campaign.latent[1],
            elapsed_seconds=0.0,
        )
        with pytest.raises(CampaignError, match="failed validation"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         resume=True)

    def test_corrupt_manifest_rejected(self, icfsm, suite, tmp_path):
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json",
                                              encoding="utf-8")
        with pytest.raises(CampaignError, match="corrupt"):
            run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                         resume=True)


class TestGracefulDegradation:
    def test_retry_exhaustion_yields_failure_ledger(
        self, icfsm, icfsm_mixed_suite, icfsm_mixed_baseline,
        monkeypatch,
    ):
        """A unit that exhausts its retries puts every workload it
        packed into the ledger, each with the unit's status, attempts
        and error; the other unit's rows are the real results."""
        suite, baseline = icfsm_mixed_suite, icfsm_mixed_baseline
        original = BitParallelSimulator.run_pass
        broken = suite[1].name

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                raise RuntimeError("injected harness fault")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            flaky)
        result = run_campaign(icfsm, suite, retries=2,
                              backoff=NO_WAIT)
        assert not result.complete
        assert [f.workload for f in result.failures] == [
            suite[1].name, suite[3].name,
        ]
        for failure in result.failures:
            assert failure.status == "error"
            assert failure.attempts == 3  # 1 try + 2 retries
            assert "injected harness fault" in failure.error
        assert list(result.completed_mask) == [True, False, True, False]
        # failed rows stay at the no-error initial state...
        for row in (1, 3):
            assert result.error_cycles[row].sum() == 0
            assert (result.detection_cycle[row] == -1).all()
            assert not result.latent[row].any()
        # ...and the other rows are the real results.
        for row in (0, 2):
            assert np.array_equal(result.error_cycles[row],
                                  baseline.error_cycles[row])
            assert np.array_equal(result.detection_cycle[row],
                                  baseline.detection_cycle[row])
            assert np.array_equal(result.latent[row],
                                  baseline.latent[row])

    def test_transient_failure_recovered_by_retry(
        self, icfsm, suite, baseline, monkeypatch,
    ):
        original = BitParallelSimulator.run_pass
        attempts = {"n": 0}

        def once_flaky(self, workloads, *args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            once_flaky)
        result = run_campaign(icfsm, suite, retries=1, backoff=NO_WAIT)
        assert result.complete
        assert_campaigns_identical(baseline, result)

    def test_hung_pass_times_out(self, icfsm, icfsm_mixed_suite,
                                 monkeypatch):
        import time as time_module

        # A 60-cycle and a 40-cycle workload: one unit each.
        suite = icfsm_mixed_suite
        original = BitParallelSimulator.run_pass
        hung = suite[0].name

        def hang(self, workloads, *args, **kwargs):
            if any(w.name == hung for w in workloads):
                time_module.sleep(5.0)
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            hang)
        result = run_campaign(icfsm, suite[:2], timeout=0.2)
        assert [f.status for f in result.failures] == ["timeout"]
        assert result.failures[0].workload == hung
        assert result.completed_mask[1]

    def test_failure_ledger_survives_save_load(
        self, icfsm, suite, monkeypatch, tmp_path,
    ):
        from repro.io import load_campaign, save_campaign

        original = BitParallelSimulator.run_pass

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == suite[0].name for w in workloads):
                raise RuntimeError("dead workload")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            flaky)
        result = run_campaign(icfsm, suite, backoff=NO_WAIT)
        target = tmp_path / "partial.npz"
        save_campaign(result, target)
        loaded = load_campaign(target)
        assert loaded.failures == result.failures
        assert list(loaded.completed_mask) == list(
            result.completed_mask
        )

    def test_timeout_failures_checkpoint_resume(
        self, icfsm, icfsm_mixed_suite, icfsm_mixed_baseline,
        monkeypatch, tmp_path,
    ):
        """A failed unit's workloads are NOT checkpointed: a later
        resume re-simulates them and recovers the full campaign."""
        suite, baseline = icfsm_mixed_suite, icfsm_mixed_baseline
        original = BitParallelSimulator.run_pass
        broken = suite[2].name

        def flaky(self, workloads, *args, **kwargs):
            if any(w.name == broken for w in workloads):
                raise RuntimeError("flaky box")
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            flaky)
        partial = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               backoff=NO_WAIT)
        assert [f.workload for f in partial.failures] == [
            suite[0].name, suite[2].name,
        ]
        assert sorted(path.name for path in tmp_path.glob("workload_*")
                      ) == ["workload_0001.npz", "workload_0003.npz"]

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            original)
        recovered = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                                 resume=True)
        assert recovered.complete
        assert_campaigns_identical(baseline, recovered)


def per_workload_rows(netlist, workloads):
    """The per-workload reference: one ``run_pass([w])`` per row over
    the full stuck-at universe, stacked ``(error, detection, latent)``.
    """
    faults = full_fault_universe(netlist)
    injection = StuckAt(
        np.array([fault.net_index for fault in faults], dtype=np.intp),
        np.array([fault.stuck_at for fault in faults], dtype=np.uint8),
    )
    engine = BitParallelSimulator(netlist)
    compiled = observation_for(netlist).compile(netlist)
    rows = [engine.run_pass([w], injection, observation=compiled).row(0)
            for w in workloads]
    return tuple(np.stack(part) for part in zip(*rows))


class TestLanePacking:
    """Same-length workloads share one pass per (group x shard) unit;
    every row must equal its own per-workload pass bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self, icfsm, icfsm_mixed_suite):
        return per_workload_rows(icfsm, icfsm_mixed_suite)

    @pytest.mark.parametrize("shard_size", [0, 63, 64, 65])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_packed_rows_match_per_workload_passes(
        self, icfsm, icfsm_mixed_suite, reference, shard_size, jobs,
    ):
        for collapse in (False, True):
            result = run_campaign(icfsm, icfsm_mixed_suite,
                                  collapse=collapse,
                                  shard_size=shard_size, jobs=jobs)
            assert result.complete
            for actual, expected in zip(
                (result.error_cycles, result.detection_cycle,
                 result.latent),
                reference,
            ):
                assert actual.dtype == expected.dtype
                assert np.array_equal(actual, expected)

    def test_resume_regroups_rows_a_per_workload_run_left(
        self, icfsm, suite, baseline, tmp_path, monkeypatch,
    ):
        """Rows 0 and 2 checkpointed one per file, as a per-workload
        runner writes them: the resume is bitwise identical and packs
        the still-pending rows 1 and 3 into one unit."""
        reference = per_workload_rows(icfsm, [suite[0], suite[2]])
        store = CampaignRunner(
            icfsm, suite, policy=RunnerPolicy(checkpoint_dir=tmp_path),
        )._open_store()
        store.open(resume=False)
        for position, row in enumerate((0, 2)):
            store.record(
                row, 0,
                error_cycles=reference[0][position],
                detection_cycle=reference[1][position],
                latent=reference[2][position],
                elapsed_seconds=0.5,
            )

        original = BitParallelSimulator.run_pass
        passes = []

        def spy(self, workloads, *args, **kwargs):
            passes.append([w.name for w in workloads])
            return original(self, workloads, *args, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass", spy)
        resumed = run_campaign(icfsm, suite, checkpoint_dir=tmp_path,
                               resume=True)
        assert passes == [[suite[1].name, suite[3].name]]
        assert_campaigns_identical(baseline, resumed)
        assert resumed.complete

    def test_grouping_rule(self, icfsm, or1200_if, icfsm_mixed_suite):
        """Units per shard: same cycle count, at most ceil(rows / jobs)
        rows, and at most the rows whose packed value matrix fits the
        shard budget — but never fewer than one."""
        from repro.circuits import build_fsm_grid

        def plan(netlist, workloads, jobs, **policy):
            runner = CampaignRunner(netlist, workloads,
                                    policy=RunnerPolicy(**policy))
            rows = list(range(len(workloads)))
            return runner._plan_units(
                {shard: rows for shard in range(runner.n_shards)}, jobs,
            )

        def stub(netlist, count, cycles=4):
            return [
                Workload(f"w{index}", netlist.input_names(),
                         np.zeros((cycles, netlist.n_inputs), np.uint8))
                for index in range(count)
            ]

        eight = stub(or1200_if, 8)
        assert plan(or1200_if, eight, 1) == [(tuple(range(8)), 0)]
        assert plan(or1200_if, eight, 2) == [
            ((0, 1, 2, 3), 0), ((4, 5, 6, 7), 0),
        ]
        assert plan(or1200_if, eight, 3) == [
            ((0, 1, 2), 0), ((3, 4, 5), 0), ((6, 7), 0),
        ]
        # Cycle counts never mix; groups are dealt out row-major.
        assert plan(icfsm, icfsm_mixed_suite, 1) == [
            ((0, 2), 0), ((1, 3), 0),
        ]
        assert plan(icfsm, icfsm_mixed_suite, 2, shard_size=300) == [
            ((0, 2), 0), ((0, 2), 1), ((1, 3), 0), ((1, 3), 1),
        ]
        # Budget: a lane-budget's worth of full-universe spans.
        n_faults = 2 * or1200_if.n_gates
        per_unit = (auto_shard_size(or1200_if.n_nets) + 1) // (
            n_faults + 1
        )
        sizes = [len(rows) for rows, _ in
                 plan(or1200_if, stub(or1200_if, per_unit + 5), 1)]
        assert sizes == [per_unit, 5]
        # Both grid-cold workloads share a unit; the 8 x 8 grid (7,725
        # nets) exceeds the budget with one workload, so it runs alone.
        small = build_fsm_grid(3, 4)
        assert plan(small, stub(small, 2), 1) == [((0, 1), 0)]
        large = build_fsm_grid(8, 8)
        assert large.n_nets == 7725
        assert plan(large, stub(large, 2), 1) == [((0,), 0), ((1,), 0)]


class TestRunnerDirect:
    def test_runner_preflight_happens_at_construction(self, icfsm):
        with pytest.raises(SimulationError):
            CampaignRunner(icfsm, [])

    def test_pass_timeout_is_campaign_error(self):
        assert issubclass(PassTimeout, CampaignError)

    def test_manifest_contents(self, icfsm, suite, tmp_path):
        run_campaign(icfsm, suite, checkpoint_dir=tmp_path)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["netlist_name"] == icfsm.name
        assert manifest["workload_names"] == [w.name for w in suite]
        assert manifest["n_faults"] == 2 * icfsm.n_gates
