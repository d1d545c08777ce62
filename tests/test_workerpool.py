"""Unit tests for the supervised persistent fork worker pool.

These tests exercise the pool mechanics in isolation with tiny worker
functions: ordered results, worker-side exceptions, crash requeue,
poison-unit quarantine, restart-budget exhaustion, stale-heartbeat
(wedged worker) detection, and policy validation.  Campaign/explainer
integration lives in ``test_chaos.py``.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.utils.errors import CampaignError
from repro.utils.parallel import fork_context
from repro.utils.workerpool import (
    PoolPolicy,
    UnitCrash,
    WorkerPool,
    run_supervised,
    worker_count,
)

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="worker pool requires the fork start method",
)

#: Fast supervision for tests: sub-second heartbeats, minimal grace.
FAST = dict(heartbeat_interval=0.05, heartbeat_grace=2.0)


def _square(value):
    return value * value


def _die_now(_unit):
    os.kill(os.getpid(), signal.SIGKILL)


class TestPoolBasics:
    def test_ordered_results(self):
        units = list(range(20))
        results = run_supervised(
            _square, units, PoolPolicy(jobs=3, **FAST)
        )
        assert [r.index for r in results] == units
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [u * u for u in units]

    def test_empty_units(self):
        assert run_supervised(_square, [],
                              PoolPolicy(jobs=2, **FAST)) == []

    def test_worker_fn_may_be_a_closure(self):
        # Fork never pickles the worker fn, so closures (and bound
        # methods holding unpicklable state) are first-class.
        offset = 7
        results = run_supervised(
            lambda unit: unit + offset, [1, 2, 3],
            PoolPolicy(jobs=2, **FAST),
        )
        assert [r.value for r in results] == [8, 9, 10]

    def test_worker_exception_becomes_unit_error(self):
        def picky(unit):
            if unit == 2:
                raise ValueError("unit two is unacceptable")
            return unit

        results = run_supervised(
            picky, [0, 1, 2, 3], PoolPolicy(jobs=2, **FAST)
        )
        assert [results[i].ok for i in (0, 1, 3)] == [True] * 3
        assert results[2].value is None
        assert results[2].crash is None
        assert "ValueError: unit two is unacceptable" in \
            results[2].error


class TestCrashRecovery:
    def test_transient_crash_requeued_and_completed(self, tmp_path):
        # The unit SIGKILLs its first host, then computes normally —
        # a model of a transient OOM kill.  The pool must requeue it,
        # respawn the worker, and still return every result.
        def fragile(unit):
            flag = tmp_path / f"killed_{unit}"
            if unit == 3 and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return unit * 10

        policy = PoolPolicy(jobs=2, poison_threshold=3, **FAST)
        with WorkerPool(fragile, policy) as pool:
            results = sorted(pool.run(list(range(8))),
                             key=lambda r: r.index)
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [u * 10 for u in range(8)]
        assert pool.restarts >= 1

    def test_poison_unit_quarantined(self):
        def poison(unit):
            if unit == 1:
                _die_now(unit)
            return unit

        results = run_supervised(
            poison, [0, 1, 2, 3],
            PoolPolicy(jobs=2, poison_threshold=2, **FAST),
        )
        crash = results[1].crash
        assert isinstance(crash, UnitCrash)
        assert crash.reason == "poison"
        assert crash.kills == 2
        assert crash.signal_name == "SIGKILL"
        assert "SIGKILL" in crash.describe()
        # The quarantine never poisons the siblings.
        assert [results[i].value for i in (0, 2, 3)] == [0, 2, 3]

    def test_restart_budget_exhaustion(self):
        # poison_threshold high enough that quarantine never fires;
        # budget zero, so two worker deaths drain the pool and the
        # outstanding units must be reported, not hung on.
        def poison(unit):
            if unit == 0:
                _die_now(unit)
            time.sleep(0.05)
            return unit

        results = run_supervised(
            poison, [0, 1, 2, 3, 4, 5],
            PoolPolicy(jobs=2, max_worker_restarts=0,
                       poison_threshold=99, **FAST),
        )
        crash = results[0].crash
        assert crash is not None
        assert crash.reason == "restart-budget"
        assert crash.kills >= 1
        # Every unit got exactly one result: ok or a typed crash.
        assert all(r.ok or r.crash is not None for r in results)
        assert all(results[i].index == i for i in range(6))

    def test_wedged_worker_detected_by_heartbeat(self, tmp_path):
        # SIGSTOP freezes the worker without killing it: exitcode
        # stays None and no acknowledgment ever arrives.  Only the
        # heartbeat sweep can notice; it must SIGKILL the host and
        # requeue the unit, which then completes on a fresh worker.
        def wedge(unit):
            flag = tmp_path / f"wedged_{unit}"
            if unit == 1 and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGSTOP)
            return unit + 100

        policy = PoolPolicy(jobs=2, poison_threshold=3, **FAST)
        with WorkerPool(wedge, policy) as pool:
            results = sorted(pool.run([0, 1, 2]),
                             key=lambda r: r.index)
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [100, 101, 102]
        assert pool.restarts >= 1


#: A parent whose two pool workers each write their pid, then hold a
#: unit for two seconds.  Each pid line is one ``write`` (atomic on a
#: pipe below ``PIPE_BUF``): an unbuffered ``print`` writes the pid and
#: the newline separately, so two workers' lines could interleave.
_PARENT = textwrap.dedent("""
    import os, time
    from repro.utils.workerpool import PoolPolicy, WorkerPool

    def hold(unit):
        os.write(1, f"{os.getpid()}\\n".encode())
        time.sleep(2.0)
        return unit

    with WorkerPool(hold, PoolPolicy(jobs=2)) as pool:
        list(pool.run([0, 1, 2, 3]))
""")


def _exited(pid: int) -> bool:
    """Gone, or a zombie nobody reaps (an orphan's new parent may not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed():
    # Each worker must hold no copy of any parent-side pipe end, or
    # its recv never sees EOF once the parent is gone.
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    parent = subprocess.Popen([sys.executable, "-c", _PARENT],
                              stdout=subprocess.PIPE, env=env, text=True)
    workers = []
    try:
        workers = [int(parent.stdout.readline()) for _ in range(2)]
        parent.kill()  # SIGKILL: no shutdown() runs
        parent.wait()
        deadline = time.monotonic() + 10.0
        while (time.monotonic() < deadline
               and not all(_exited(pid) for pid in workers)):
            time.sleep(0.1)
        assert all(_exited(pid) for pid in workers)
    finally:
        parent.kill()
        parent.stdout.close()
        for pid in workers:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


class TestPolicyValidation:
    @pytest.mark.parametrize("bad", [
        dict(jobs=-1),
        dict(max_worker_restarts=-1),
        dict(heartbeat_interval=0.0),
        dict(heartbeat_interval=-1.0),
        dict(heartbeat_grace=1.0),
        dict(poison_threshold=0),
    ])
    def test_rejects_bad_knobs(self, bad):
        with pytest.raises(CampaignError):
            PoolPolicy(**bad)

    def test_defaults_are_valid(self):
        policy = PoolPolicy()
        assert policy.max_worker_restarts == 8
        assert policy.poison_threshold == 2


def test_worker_count_is_the_clamped_fan_out(monkeypatch):
    """``0`` is every usable CPU, a request above them is clamped to
    them, and fewer than two units run in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2})
    assert worker_count(0) == worker_count(8) == 3
    assert worker_count(2) == worker_count(2, units=2) == 2
    assert worker_count(2, units=1) == worker_count(1) == 1
    with pytest.raises(CampaignError):
        worker_count(-1)
    pool = WorkerPool(_square, PoolPolicy(jobs=8))
    assert pool._jobs == 3
