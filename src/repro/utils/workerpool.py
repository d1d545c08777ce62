"""Supervised persistent fork worker pool for campaign/explainer fan-out.

``ProcessPoolExecutor`` cost this project its parallel speedup twice
over (``BENCH_campaign.json``/``BENCH_explain.json`` committed 0.85x /
0.86x): per-call pools re-fork for every map, pay the executor's
management threads and queue pickling per unit, and — worse for a
multi-hour FI campaign — a single worker death surfaces as a bare
``BrokenProcessPool`` that discards every completed-but-unreturned
unit.  This module replaces that fan-out with a pool built for the
campaign's economics (the FI ground truth is ~35x the cost of GCN
inference, so in-flight work is precious):

* **Fork at setup** — workers fork once per pool, after the caller has
  finished building the read-only campaign/explainer state (netlists,
  stimulus, adjacency, trained weights, simulation engines).  Children
  inherit everything through copy-on-write pages: nothing is pickled
  on the way in, and a unit message is just ``(index, unit)``.
* **Dynamic dispatch (work stealing)** — the supervisor holds the unit
  queue and hands each worker its next unit the moment the previous
  one is acknowledged, so a straggling unit never idles the rest of
  the pool and the supervisor always knows exactly which unit each
  worker holds (no claim races).
* **Per-unit acknowledgment over pipes** — each worker owns a duplex
  pipe; results stream back as soon as they exist.  A worker death
  loses at most the single unit it currently holds.
* **Supervision** — the consuming thread doubles as the supervisor: it
  multiplexes result pipes, checks ``Process.exitcode``, and watches
  per-worker heartbeats (a daemon thread in every worker stamps a
  shared slot every ``heartbeat_interval`` seconds, so a frozen or
  SIGSTOPped worker is detected even when no unit finishes).  Dead
  workers have their in-flight unit requeued at the *front* of the
  queue and are respawned under a bounded restart budget.
* **Poison quarantine** — a unit that kills ``poison_threshold``
  consecutive host workers is quarantined as a :class:`UnitCrash`
  result instead of crash-looping the pool; callers record it in their
  failure ledger (``status="worker_crash"``) and keep the campaign
  alive.
* **Graceful shutdown** — workers ignore SIGINT (the parent owns
  interrupt policy); :meth:`WorkerPool.shutdown` sends stop sentinels,
  then escalates to SIGTERM/SIGKILL, so Ctrl-C drains cleanly and the
  checkpoint store stays resumable.

* **One fan-out decision** — :func:`worker_count` alone turns a
  requested ``jobs`` into a worker count, and :func:`run_units` runs
  every stage's units on it: the campaign streams its outcomes, and
  :func:`map_supervised` (the GCN heads, the baselines, the explainer
  and the grid search) collects values in unit order.  Supervision
  runs on :class:`PoolPolicy`'s defaults.

Like :mod:`repro.utils.retry`, this module is free of FI vocabulary so
any fan-out stage can reuse it.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from multiprocessing.connection import Connection, wait

from repro.utils.errors import CampaignError, ModelError
from repro.utils.parallel import fork_context, resolve_jobs

#: Stop sentinel sent down a worker's pipe at shutdown.
_STOP = None


def worker_count(jobs: int, units: Optional[int] = None) -> int:
    """Worker processes for ``units`` units at a requested ``jobs``.

    The package's one fan-out decision: the campaign, the GCN heads,
    the baselines, the explainer and the grid search all run on this
    count.  ``0`` means every usable CPU, and any request is clamped
    to the CPUs this process may run on: the units are CPU-bound, so
    workers beyond the affinity mask only timeshare a core, adding
    context switches and copy-on-write page churn for no throughput.
    The count is 1, meaning in-process, without the fork start method,
    inside a daemonic process (such as a pool worker, which
    multiprocessing forbids to have children) and for fewer than two
    units.
    """
    if jobs < 0:
        raise CampaignError(f"jobs {jobs} must be >= 0")
    if (fork_context() is None
            or multiprocessing.current_process().daemon
            or (units is not None and units < 2)):
        return 1
    return min(resolve_jobs(jobs), resolve_jobs(0))


@dataclass(frozen=True)
class PoolPolicy:
    """Supervision knobs for one :class:`WorkerPool`.

    ``jobs`` is the worker-process count (``0`` = all cores).
    ``max_worker_restarts`` bounds how many dead workers the pool will
    respawn over its lifetime — past the budget the pool shrinks, and
    once no workers remain the outstanding units are reported as
    crashes instead of silently hanging.  ``heartbeat_interval`` is how
    often each worker stamps its liveness slot; a worker silent for
    ``heartbeat_interval * heartbeat_grace`` seconds while its process
    is still alive is presumed wedged and killed.  A unit that kills
    ``poison_threshold`` consecutive host workers is quarantined.
    """

    jobs: int = 0
    max_worker_restarts: int = 8
    heartbeat_interval: float = 5.0
    heartbeat_grace: float = 6.0
    poison_threshold: int = 2

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise CampaignError(f"jobs {self.jobs} must be >= 0")
        if self.max_worker_restarts < 0:
            raise CampaignError(
                f"max_worker_restarts {self.max_worker_restarts} "
                "must be >= 0"
            )
        if self.heartbeat_interval <= 0:
            raise CampaignError(
                f"heartbeat_interval {self.heartbeat_interval} must "
                "be positive"
            )
        if self.heartbeat_grace < 2.0:
            raise CampaignError(
                f"heartbeat_grace {self.heartbeat_grace} must be >= 2 "
                "(one missed beat must never count as a death)"
            )
        if self.poison_threshold < 1:
            raise CampaignError(
                f"poison_threshold {self.poison_threshold} must be "
                ">= 1"
            )


@dataclass(frozen=True)
class UnitCrash:
    """A unit the pool gave up on because it kept killing its hosts.

    ``kills`` counts worker deaths attributed to the unit;
    ``exitcode`` is the last host's ``Process.exitcode`` (negative =
    died to a signal) and ``signal_name`` decodes it when it was a
    signal.  ``reason`` is ``"poison"`` (the unit crossed
    ``poison_threshold``) or ``"restart-budget"`` (the pool ran out of
    workers to host it).
    """

    unit_index: int
    kills: int
    exitcode: Optional[int]
    signal_name: str
    reason: str

    def describe(self) -> str:
        host = (
            f"signal {self.signal_name}" if self.signal_name
            else f"exitcode {self.exitcode}"
        )
        if self.reason == "poison":
            return (
                f"unit killed {self.kills} consecutive host worker(s) "
                f"(last death: {host}) — quarantined as a poison unit"
            )
        return (
            f"worker restart budget exhausted with the unit "
            f"unfinished after {self.kills} host death(s) "
            f"(last death: {host})"
        )


@dataclass
class UnitResult:
    """One unit's outcome: a value, a worker-side error, or a crash."""

    index: int
    value: Any = None
    #: ``"TypeName: message"`` when the worker function raised.
    error: Optional[str] = None
    crash: Optional[UnitCrash] = None
    #: The exception itself, when the unit raised in this process.
    raised: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.crash is None


def _signal_name(exitcode: Optional[int]) -> str:
    if exitcode is None or exitcode >= 0:
        return ""
    try:
        return signal.Signals(-exitcode).name
    except ValueError:  # pragma: no cover - unknown signal number
        return f"signal {-exitcode}"


def _worker_main(
    connection: Connection,
    inherited: List[Connection],
    slot: int,
    heartbeats,
    interval: float,
    worker_fn: Callable[[Any], Any],
) -> None:
    """Worker process body: heartbeat, pull units, acknowledge results.

    Runs under the *fork* start method, so ``worker_fn`` and all the
    state it closes over are inherited copy-on-write — nothing here is
    ever pickled except unit inputs and result values.
    """
    # The fork also copied the parent's end of this worker's pipe and
    # of every older worker's.  While any copy stays open, ``recv``
    # cannot see EOF when the parent dies, and the worker would idle
    # forever as an orphan.
    for parent_end in inherited:
        parent_end.close()

    # The parent owns interrupt policy: a terminal Ctrl-C hits the
    # whole foreground process group, and a worker that died to it
    # would be indistinguishable from a crash the supervisor should
    # retry.  SIGTERM keeps its default so shutdown() can escalate.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Everything inherited through the fork (netlists, engines,
    # explainer caches) is immortal for this worker's lifetime: move
    # it to the GC's permanent generation so collections never scan
    # it — and never dirty the copy-on-write pages it lives in.
    gc.freeze()

    def beat() -> None:
        while True:
            heartbeats[slot] = time.monotonic()
            time.sleep(interval)

    threading.Thread(
        target=beat, daemon=True, name="pool-heartbeat"
    ).start()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if message is _STOP:
            break
        unit_index, unit = message
        try:
            payload = (unit_index, True, worker_fn(unit))
        except (KeyboardInterrupt, SystemExit):
            break
        except BaseException as error:  # noqa: BLE001 — relayed
            payload = (
                unit_index, False,
                f"{type(error).__name__}: {error}",
            )
        try:
            connection.send(payload)
        except (BrokenPipeError, OSError):
            break
    connection.close()


class _Worker:
    """Parent-side handle for one pool worker."""

    __slots__ = ("process", "connection", "slot", "current")

    def __init__(self, process, connection: Connection, slot: int):
        self.process = process
        self.connection = connection
        self.slot = slot
        self.current: Optional[int] = None  # unit index held


class WorkerPool:
    """Persistent supervised pool of fork workers.

    Construct the pool *after* the read-only state ``worker_fn`` needs
    is fully built — workers fork at :meth:`run` time and inherit it
    through copy-on-write memory.  ``worker_fn`` may be any callable
    (bound methods and closures included): the fork start method never
    pickles it.

    Use as a context manager; :meth:`run` yields a
    :class:`UnitResult` per unit, in completion order, as each
    acknowledgment arrives — so callers can checkpoint durable progress
    immediately and an interrupt loses nothing already yielded.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        policy: Optional[PoolPolicy] = None,
    ) -> None:
        context = fork_context()
        if context is None:
            raise CampaignError(
                "WorkerPool requires the fork start method; use the "
                "in-process fallback on this platform"
            )
        self._context = context
        self._worker_fn = worker_fn
        self.policy = policy or PoolPolicy()
        self._jobs = worker_count(self.policy.jobs)
        self._heartbeats = context.Array(
            "d", self._jobs, lock=False
        )
        self._workers: List[_Worker] = []
        self._free_slots = list(range(self._jobs))
        self.restarts = 0  # respawns consumed from the budget
        self._poll = min(0.1, self.policy.heartbeat_interval / 4.0)

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _spawn(self) -> _Worker:
        slot = self._free_slots.pop()
        parent_end, child_end = self._context.Pipe(duplex=True)
        self._heartbeats[slot] = time.monotonic()
        process = self._context.Process(
            target=_worker_main,
            args=(child_end,
                  [worker.connection for worker in self._workers]
                  + [parent_end],
                  slot, self._heartbeats,
                  self.policy.heartbeat_interval, self._worker_fn),
            daemon=True,
            name=f"pool-worker-{slot}",
        )
        process.start()
        child_end.close()
        worker = _Worker(process, parent_end, slot)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        try:
            worker.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._workers.remove(worker)
        self._free_slots.append(worker.slot)

    def shutdown(self) -> None:
        """Stop every worker: sentinel, then SIGTERM, then SIGKILL."""
        for worker in self._workers:
            try:
                worker.connection.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover
                pass
        self._workers.clear()
        self._free_slots = list(range(self._jobs))

    # -- execution -----------------------------------------------------
    def run(self, units: Sequence[Any]) -> Iterator[UnitResult]:
        """Execute ``units``; yield results in completion order.

        Every unit yields exactly one :class:`UnitResult` — a value,
        a worker-side error, or (after supervision gives up on it) a
        :class:`UnitCrash`.  The pool survives worker deaths by
        requeueing the dead worker's unit and respawning under the
        restart budget.
        """
        total = len(units)
        if total == 0:
            return
        pending: deque = deque(range(total))
        kills: Dict[int, int] = {}
        last_death: Dict[int, Optional[int]] = {}
        completed: Set[int] = set()

        for _ in range(min(self._jobs, total) - len(self._workers)):
            self._spawn()

        while len(completed) < total:
            self._dispatch(units, pending)
            if not self._workers:
                # Restart budget exhausted with work outstanding:
                # report what will never run instead of hanging.
                for index in self._drain_outstanding(pending, total,
                                                     completed):
                    completed.add(index)
                    yield UnitResult(index=index, crash=UnitCrash(
                        unit_index=index,
                        kills=kills.get(index, 0),
                        exitcode=last_death.get(index),
                        signal_name=_signal_name(
                            last_death.get(index)
                        ),
                        reason="restart-budget",
                    ))
                return

            ready = wait(
                [worker.connection for worker in self._workers],
                timeout=self._poll,
            )
            by_connection = {
                worker.connection: worker for worker in self._workers
            }
            for connection in ready:
                worker = by_connection[connection]
                for result in self._receive(worker, completed):
                    yield result

            # Liveness sweep: exitcodes first, then heartbeats.
            now = time.monotonic()
            stale_after = (
                self.policy.heartbeat_interval
                * self.policy.heartbeat_grace
            )
            for worker in list(self._workers):
                alive = worker.process.is_alive()
                if alive and (
                    now - self._heartbeats[worker.slot] > stale_after
                ):
                    # Wedged (frozen allocator, SIGSTOP, runaway C
                    # loop that starved the beat thread): make the
                    # death unambiguous, then handle it below.
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
                    alive = worker.process.is_alive()
                if alive:
                    continue
                worker.process.join(timeout=1.0)
                # Acks written before death are still in the pipe:
                # harvest them so a finished unit is never re-run.
                for result in self._receive(worker, completed):
                    yield result
                held = worker.current
                exitcode = worker.process.exitcode
                self._retire(worker)
                if held is not None and held not in completed:
                    kills[held] = kills.get(held, 0) + 1
                    last_death[held] = exitcode
                    if kills[held] >= self.policy.poison_threshold:
                        completed.add(held)
                        yield UnitResult(index=held, crash=UnitCrash(
                            unit_index=held,
                            kills=kills[held],
                            exitcode=exitcode,
                            signal_name=_signal_name(exitcode),
                            reason="poison",
                        ))
                    else:
                        # Front of the queue: a transient death
                        # retries immediately, and a poison unit
                        # meets its threshold before wasting more
                        # workers.
                        pending.appendleft(held)
                if self.restarts < self.policy.max_worker_restarts \
                        and len(completed) < total:
                    self.restarts += 1
                    self._spawn()

    # -- internals -----------------------------------------------------
    def _dispatch(self, units: Sequence[Any],
                  pending: deque) -> None:
        for worker in self._workers:
            if worker.current is not None or not pending:
                continue
            index = pending.popleft()
            try:
                worker.connection.send((index, units[index]))
            except (BrokenPipeError, OSError):
                # Death noticed mid-dispatch: the liveness sweep will
                # retire the worker; the unit goes back unharmed.
                pending.appendleft(index)
                continue
            worker.current = index

    def _receive(self, worker: _Worker,
                 completed: Set[int]) -> List[UnitResult]:
        """Drain every buffered acknowledgment from one worker."""
        results: List[UnitResult] = []
        while True:
            try:
                if not worker.connection.poll():
                    break
                unit_index, ok, payload = worker.connection.recv()
            except (EOFError, OSError):
                break  # death itself is the liveness sweep's job
            if worker.current == unit_index:
                worker.current = None
            if unit_index in completed:  # pragma: no cover - belt
                continue
            completed.add(unit_index)
            results.append(
                UnitResult(index=unit_index, value=payload) if ok
                else UnitResult(index=unit_index, error=payload)
            )
        return results

    def _drain_outstanding(self, pending: deque, total: int,
                           completed: Set[int]) -> List[int]:
        outstanding = [index for index in pending
                       if index not in completed]
        pending.clear()
        seen = set(outstanding) | completed
        outstanding.extend(
            index for index in range(total) if index not in seen
        )
        return outstanding


def run_supervised(
    worker_fn: Callable[[Any], Any],
    units: Sequence[Any],
    policy: Optional[PoolPolicy] = None,
) -> List[UnitResult]:
    """One-shot convenience wrapper: pool, run, shutdown, ordered list.

    Results come back indexed by unit position (unlike :meth:`run`,
    which streams in completion order).
    """
    ordered: List[Optional[UnitResult]] = [None] * len(units)
    with WorkerPool(worker_fn, policy) as pool:
        for result in pool.run(units):
            ordered[result.index] = result
    return ordered  # type: ignore[return-value]


def run_units(
    worker_fn: Callable[[Any], Any],
    units: Sequence[Any],
    jobs: int,
    *,
    size: Optional[Callable[[Any], float]] = None,
) -> Iterator[UnitResult]:
    """Run ``worker_fn`` on every unit; yield one :class:`UnitResult`
    per unit, in completion order, as each finishes.

    The units run on ``worker_count(jobs, len(units))`` workers.  On
    one, they run in-process and in order, and an ``Exception`` that
    ``worker_fn`` raises comes back as the result's ``raised`` (with
    its text in ``error``), so the caller decides whether it
    propagates.  Otherwise a :class:`WorkerPool` forks here, after
    the caller built the state ``worker_fn`` reads, and deals the
    units out largest ``size(unit)`` first, if given: a big unit dealt
    last would run alone while the other workers idle.  A result's
    ``index`` is its unit's position in ``units`` either way.
    Closing the generator tears the pool down.
    """
    workers = worker_count(jobs, len(units))
    if workers == 1:
        for index, unit in enumerate(units):
            try:
                value = worker_fn(unit)
            except Exception as error:
                yield UnitResult(index=index, raised=error,
                                 error=f"{type(error).__name__}: {error}")
            else:
                yield UnitResult(index=index, value=value)
        return
    order = list(range(len(units)))
    if size is not None:
        order.sort(key=lambda index: -size(units[index]))
    with WorkerPool(worker_fn, PoolPolicy(jobs=workers)) as pool:
        for result in pool.run([units[index] for index in order]):
            index = order[result.index]
            crash = result.crash and replace(result.crash,
                                             unit_index=index)
            yield replace(result, index=index, crash=crash)


def map_supervised(
    worker_fn: Callable[[Any], Any],
    units: Sequence[Any],
    jobs: int,
    describe: Callable[[Any], str],
    *,
    size: Optional[Callable[[Any], float]] = None,
    return_errors: bool = False,
) -> List[Any]:
    """``[worker_fn(unit) for unit in units]`` through
    :func:`run_units`, values in unit order.

    In-process, what ``worker_fn`` raises propagates as it is.  A unit
    that raised in a pool worker or that the pool gave up on raises
    :class:`ModelError` naming ``describe(unit)`` (a crash's cause
    starts ``worker_crash``) once every unit has finished.  With
    ``return_errors`` the exception takes the unit's place instead, so
    one unit's failure does not discard the other units' values.
    """
    units = list(units)
    values: List[Any] = [None] * len(units)
    failed: List[int] = []
    for result in run_units(worker_fn, units, jobs, size=size):
        if result.ok:
            values[result.index] = result.value
        elif result.raised is not None:
            if not return_errors:
                raise result.raised
            values[result.index] = result.raised
        else:
            cause = (result.error
                     or f"worker_crash: {result.crash.describe()}")
            values[result.index] = ModelError(
                f"{describe(units[result.index])} failed in a pool "
                f"worker: {cause}")
            failed.append(result.index)
    if failed and not return_errors:
        raise values[min(failed)]
    return values
