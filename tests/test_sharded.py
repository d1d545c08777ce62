"""Sharded + multi-core campaign equivalence.

The contract the sharded engine must keep: for EVERY ``(shard_size,
jobs)`` configuration — including fault collapsing and functional
observation specs — the merged campaign result is bitwise identical to
the classic serial, unsharded run.  Machines are independent (per-bit
fault masks) and shards are contiguous slices of the simulated
universe, so any divergence is a merge bug, not numerical noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import run_campaign
from repro.fi.checkpoint import MANIFEST_NAME
from repro.fi.collapse import collapse_faults, expand_shard
from repro.fi.faults import full_fault_universe
from repro.fi.runner import CampaignRunner, RunnerPolicy
from repro.sim import design_workloads
from repro.sim.bitparallel import BitParallelSimulator
from repro.utils.errors import CampaignError
from repro.utils.parallel import (
    auto_shard_size,
    resolve_jobs,
    shard_bounds,
)


@pytest.fixture(scope="module")
def suite(icfsm):
    return design_workloads(icfsm.name, icfsm, count=4, cycles=60,
                            seed=3)


@pytest.fixture(scope="module")
def baseline(icfsm, suite):
    """The reference: serial, unsharded (``--jobs 1 --shard-size 0``)."""
    return run_campaign(icfsm, suite)


def assert_identical(left, right):
    assert left.workload_names == right.workload_names
    assert [f.name for f in left.faults] == [f.name for f in right.faults]
    assert np.array_equal(left.error_cycles, right.error_cycles)
    assert np.array_equal(left.detection_cycle, right.detection_cycle)
    assert np.array_equal(left.latent, right.latent)
    assert not left.failures and not right.failures


class TestShardPlanning:
    def test_bounds_partition_the_universe(self):
        bounds = shard_bounds(10, 4)
        assert bounds == [(0, 4), (4, 8), (8, 10)]
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(10))

    def test_zero_means_one_shard(self):
        assert shard_bounds(526, 0) == [(0, 526)]
        assert shard_bounds(526, 526) == [(0, 526)]
        assert shard_bounds(526, 10_000) == [(0, 526)]

    def test_empty_universe_rejected(self):
        with pytest.raises(CampaignError):
            shard_bounds(0, 4)

    def test_auto_size_packs_whole_words(self):
        # f = 64w - 1 faults plus the golden machine fills w words.
        size = auto_shard_size(302)
        assert (size + 1) % 64 == 0
        words = (size + 1) // 64
        assert 302 * words * 8 <= 4 * 1024 * 1024

    def test_auto_size_never_starves(self):
        # A giant netlist still gets one word (63 faults + golden).
        assert auto_shard_size(10**9) == 63
        with pytest.raises(CampaignError):
            auto_shard_size(0)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        with pytest.raises(CampaignError):
            resolve_jobs(-1)


class TestPolicyValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(CampaignError):
            RunnerPolicy(jobs=-2)

    def test_bad_shard_size_rejected(self):
        with pytest.raises(CampaignError):
            RunnerPolicy(shard_size=-1)
        with pytest.raises(CampaignError):
            RunnerPolicy(shard_size="huge")

    def test_auto_spellings_accepted(self):
        assert RunnerPolicy(shard_size="auto").shard_size == "auto"
        assert RunnerPolicy(shard_size=None).shard_size is None


class TestShardedEquivalence:
    """Word-boundary shard sizes x job counts vs the serial baseline.

    63/64/65 straddle the 64-machine word boundary (the packing edge
    cases: exactly one word with golden, golden forced into a second
    word, and a ragged final shard).
    """

    @pytest.mark.parametrize("shard_size", [63, 64, 65, None])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bitwise_identical(self, icfsm, suite, baseline,
                               shard_size, jobs):
        result = run_campaign(icfsm, suite, shard_size=shard_size,
                              jobs=jobs)
        assert_identical(baseline, result)

    def test_four_jobs(self, icfsm, suite, baseline):
        result = run_campaign(icfsm, suite, shard_size=64, jobs=4)
        assert_identical(baseline, result)

    def test_all_cores(self, icfsm, suite, baseline):
        result = run_campaign(icfsm, suite, shard_size="auto", jobs=0)
        assert_identical(baseline, result)

    def test_single_fault_shards(self, icfsm, suite):
        # shard_size=1 on the full universe is slow; a subset keeps the
        # degenerate one-fault-per-unit case cheap but real.
        faults = full_fault_universe(icfsm)[:48]
        serial = run_campaign(icfsm, suite, faults=faults)
        for jobs in (1, 2):
            sharded = run_campaign(icfsm, suite, faults=faults,
                                   shard_size=1, jobs=jobs)
            assert_identical(serial, sharded)

    def test_collapsed_universe(self, icfsm, suite):
        serial = run_campaign(icfsm, suite, collapse=True)
        sharded = run_campaign(icfsm, suite, collapse=True,
                               shard_size=63, jobs=2)
        assert_identical(serial, sharded)

    def test_every_output_observation(self, icfsm, suite):
        # icfsm registers a strobed observation spec, so the default
        # baseline already covers the spec path; observation=None
        # covers the compare-everything path.
        serial = run_campaign(icfsm, suite, observation=None)
        sharded = run_campaign(icfsm, suite, observation=None,
                               shard_size=64, jobs=2)
        assert_identical(serial, sharded)

    def test_unit_plan(self, icfsm, suite):
        runner = CampaignRunner(
            icfsm, suite, policy=RunnerPolicy(shard_size=100),
        )
        n_faults = len(runner.faults)
        assert runner.n_shards == -(-n_faults // 100)


class TestShardedProperty:
    @settings(max_examples=8, deadline=None)
    @given(shard_size=st.integers(min_value=1, max_value=40),
           jobs=st.sampled_from([1, 2]))
    def test_any_shard_size_is_equivalent(self, small_random_netlist,
                                          shard_size, jobs):
        netlist = small_random_netlist
        suite = design_workloads(netlist.name, netlist, count=2,
                                 cycles=30, seed=5)
        faults = full_fault_universe(netlist)[:30]
        serial = run_campaign(netlist, suite, faults=faults)
        sharded = run_campaign(netlist, suite, faults=faults,
                               shard_size=shard_size, jobs=jobs)
        assert_identical(serial, sharded)


class TestExpandShard:
    def test_shards_cover_original_universe_once(self, icfsm):
        universe = collapse_faults(icfsm, full_fault_universe(icfsm))
        n_reps = len(universe.representatives)
        n_original = len(universe.original)
        seen = np.zeros(n_original, dtype=int)
        for bounds in shard_bounds(n_reps, 37):
            lo, hi = bounds
            columns = np.arange(lo, hi)[None, :]  # fake unit result
            original, expanded = expand_shard(universe, bounds, columns)
            seen[original] += 1
            # every expanded column carries its representative's index
            assert np.array_equal(expanded[0],
                                  universe.class_of[original])
        assert np.all(seen == 1)


class TestShardedCheckpointing:
    def test_unit_files_and_manifest(self, icfsm, suite, baseline,
                                     tmp_path):
        result = run_campaign(icfsm, suite, shard_size=200,
                              checkpoint_dir=tmp_path)
        assert_identical(baseline, result)
        assert (tmp_path / "workload_0000_shard_000.npz").exists()
        assert (tmp_path / "workload_0000_shard_001.npz").exists()
        manifest = (tmp_path / MANIFEST_NAME)
        assert manifest.exists()
        assert b"shards" in manifest.read_bytes()

    def test_resume_skips_all_completed_units(self, icfsm, suite,
                                              baseline, tmp_path,
                                              monkeypatch):
        run_campaign(icfsm, suite, shard_size=200, jobs=2,
                     checkpoint_dir=tmp_path)

        def exploding_pass(self, workloads, *args, **kwargs):
            raise AssertionError("resume re-simulated a finished unit")

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            exploding_pass)
        resumed = run_campaign(icfsm, suite, shard_size=200,
                               checkpoint_dir=tmp_path, resume=True)
        assert_identical(baseline, resumed)

    def test_resume_rejects_different_shard_layout(self, icfsm, suite,
                                                   tmp_path):
        run_campaign(icfsm, suite, shard_size=200,
                     checkpoint_dir=tmp_path)
        with pytest.raises(CampaignError, match="shard layout"):
            run_campaign(icfsm, suite, shard_size=100,
                         checkpoint_dir=tmp_path, resume=True)


class TestParallelFailures:
    def test_failed_unit_names_its_shard(self, icfsm,
                                         icfsm_mixed_suite,
                                         monkeypatch):
        """The first unit (rows 0 and 2, shard 0) fails once: both of
        its workloads land in the ledger naming that shard."""
        suite = icfsm_mixed_suite
        real = BitParallelSimulator.run_pass
        boom = {"count": 0}

        def flaky_pass(self, workloads, injection, **kwargs):
            if boom["count"] == 0 and len(injection.nets) < 526:
                boom["count"] += 1
                raise RuntimeError("injected harness fault")
            return real(self, workloads, injection, **kwargs)

        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            flaky_pass)
        result = run_campaign(icfsm, suite, shard_size=300)
        assert [f.workload for f in result.failures] == [
            suite[0].name, suite[2].name,
        ]
        for failure in result.failures:
            assert failure.status == "error"
            assert failure.error.startswith("shard 0 (faults 0:300): ")
            assert "injected harness fault" in failure.error

    def test_parallel_failure_lands_in_ledger(self, icfsm,
                                              icfsm_mixed_suite,
                                              icfsm_mixed_baseline,
                                              monkeypatch):
        suite, baseline = icfsm_mixed_suite, icfsm_mixed_baseline
        real = BitParallelSimulator.run_pass
        victim = suite[0].name

        def doomed_pass(self, workloads, *args, **kwargs):
            if any(w.name == victim for w in workloads):
                raise RuntimeError("worker-side crash")
            return real(self, workloads, *args, **kwargs)

        # fork workers inherit the monkeypatched class
        monkeypatch.setattr(BitParallelSimulator, "run_pass",
                            doomed_pass)
        result = run_campaign(icfsm, suite, jobs=2)
        # The victim's unit packs both 60-cycle rows.
        assert [f.workload for f in result.failures] == [
            suite[0].name, suite[2].name,
        ]
        for failure in result.failures:
            assert "worker-side crash" in failure.error
        assert list(result.completed_mask) == [False, True, False, True]
        # the surviving workloads still match the baseline bit for bit
        mask = result.completed_mask
        assert np.array_equal(result.error_cycles[mask],
                              baseline.error_cycles[mask])
        assert np.array_equal(result.detection_cycle[mask],
                              baseline.detection_cycle[mask])
