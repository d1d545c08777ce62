"""Resilient campaign execution: lane packing, sharding, multi-core
fan-out, supervision, retry, checkpoint/resume.

The FI campaign is the expensive, ground-truth-generating stage of the
whole pipeline, so its runner must survive faults in the *harness* as
well as inject them into the DUT — and it must use the whole host,
because fault-simulation throughput is what caps dataset size.
:class:`CampaignRunner` splits the (collapsed) fault universe into
bounded-memory shards and executes each ``(workload group, shard)``
pair as an independent, supervised **unit** of work:

* **Lane packing** — a unit simulates a *group* of pending workloads of
  one cycle count in a single bit-parallel pass (one lane span each),
  so every gate statement of a cycle runs once per group instead of
  once per workload.  A group holds at most ``ceil(rows / jobs)``
  workloads (``rows`` pending in the shard), so ``jobs`` workers still
  have units to share, and at most as many as keep the packed net
  values within the shard budget (:func:`~repro.utils.parallel.auto_shard_size`) —
  never fewer than one.  Each row is still scattered and checkpointed
  on its own, so a resume regroups whatever rows are pending.
* **Sharding** — ``policy.shard_size`` bounds the faults per unit so
  each unit's net values stay within the shard budget
  (``None``/``"auto"`` sizes it from the netlist; ``0`` disables
  sharding).  Shards are contiguous, so merged results are bitwise
  identical to an unsharded pass.
* **Multi-core fan-out** — ``policy.jobs`` worker processes execute
  units concurrently through a persistent supervised pool
  (:class:`repro.utils.workerpool.WorkerPool`): workers fork once per
  campaign after the engine is built (fork-inherited context: netlists
  carry cell lambdas that cannot pickle, and the pre-built simulator
  and the netlist's compiled evaluator ride along copy-on-write), pull units from a dynamic queue so
  stragglers never idle the pool, and acknowledge each result over a
  pipe so a worker death loses at most the unit it held.  ``jobs=1``
  runs everything in-process with behaviour identical to the classic
  serial runner.
* **Worker supervision** — the pool requeues the in-flight unit of a
  dead worker (segfault, OOM kill) and respawns workers under
  ``policy.max_worker_restarts``; liveness is watched via heartbeats
  every ``policy.heartbeat_interval`` seconds.  A *poison unit* — one
  that kills ``policy.poison_threshold`` consecutive host workers — is
  quarantined into the failure ledger (``status="worker_crash"``, with
  the fatal signal/exitcode) instead of aborting the campaign.
* **Timeout** — a unit that hangs past ``policy.timeout`` seconds is
  abandoned (the pass thread is orphaned; a fresh engine is built for
  the next attempt so a zombie pass can never corrupt a retry).
* **Retry with backoff** — failed or hung units are retried up to
  ``policy.retries`` times with jittered exponential backoff
  (:class:`~repro.utils.retry.BackoffPolicy`).
* **Checkpointing** — with ``policy.checkpoint_dir`` set, every row of
  a completed unit is durably written to disk (atomic rename), and
  ``policy.resume=True`` reloads completed rows instead of
  re-simulating them: a campaign killed with SIGKILL mid-run resumes
  from the rows still pending and produces a result identical to an
  uninterrupted run.
* **Graceful degradation** — a unit that exhausts its retries puts
  every workload it carried into the result's failure ledger
  (:class:`~repro.fi.campaign.WorkloadFailure`, one entry per
  workload); the campaign completes with partial results instead of
  discarding the other units.

Kills stay kills: ``KeyboardInterrupt``/``SystemExit`` always
propagate, leaving the checkpoint store intact for a later resume.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.fi.campaign import (
    DEFAULT_SEVERITY,
    CampaignResult,
    WorkloadFailure,
)
from repro.fi.checkpoint import (
    CheckpointStore,
    campaign_fingerprint,
    observation_key,
)
from repro.fi.faults import Fault, full_fault_universe
from repro.netlist.netlist import Netlist
from repro.sim.bitparallel import (
    BitParallelSimulator,
    StuckAt,
    cycle_groups,
)
from repro.sim.waveform import Workload
from repro.utils.errors import CampaignError, SimulationError
from repro.utils.parallel import (
    auto_shard_size,
    fork_context,
    resolve_jobs,
    shard_bounds,
)
from repro.utils.retry import BackoffPolicy, retry_call
from repro.utils.workerpool import PoolPolicy, WorkerPool


class PassTimeout(CampaignError):
    """A unit's fault pass exceeded the runner's timeout."""


@dataclass(frozen=True)
class RunnerPolicy:
    """Resilience and throughput knobs for one campaign run.

    The default policy (no timeout, no retries, no checkpointing, one
    job, no sharding) gives results bitwise identical to a plain loop
    over the workloads, with every workload of one cycle count packed
    into one unit.

    ``timeout`` bounds each attempt of one unit's pass and ``retries``
    counts extra attempts per unit, where a unit is one pass over a
    group of same-length workloads and one fault shard.  ``jobs`` is
    the worker-process count (``0`` = all cores) and also caps a
    group at ``ceil(rows / jobs)`` workloads; ``shard_size`` bounds
    the faults simulated per unit (``0`` = the whole universe in one
    shard, ``None``/``"auto"`` = sized so each shard's net values fit
    the shard budget).

    The pool-supervision knobs only matter when ``jobs > 1``:
    ``max_worker_restarts`` bounds how many dead workers one campaign
    will respawn, ``heartbeat_interval`` paces worker liveness stamps,
    and ``poison_threshold`` is the consecutive-host-kill count that
    quarantines a unit into the failure ledger as ``worker_crash``.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff: Optional[BackoffPolicy] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    jobs: int = 1
    shard_size: Optional[Union[int, str]] = 0
    max_worker_restarts: int = 8
    heartbeat_interval: float = 5.0
    poison_threshold: int = 2

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise CampaignError(
                f"timeout {self.timeout} must be positive"
            )
        if self.retries < 0:
            raise CampaignError(f"retries {self.retries} must be >= 0")
        if self.resume and self.checkpoint_dir is None:
            raise CampaignError(
                "resume requires a checkpoint directory"
            )
        if self.jobs < 0:
            raise CampaignError(f"jobs {self.jobs} must be >= 0")
        if (
            self.backoff is not None
            and self.backoff.max_elapsed is not None
            and self.timeout is not None
            and self.backoff.max_elapsed < self.timeout
        ):
            raise CampaignError(
                f"backoff max_elapsed {self.backoff.max_elapsed}s is "
                f"smaller than one attempt's timeout {self.timeout}s "
                "— the deadline budget could never cover a single try"
            )
        # Pool-supervision knobs: validated eagerly (pre-flight), even
        # though the PoolPolicy is only built when jobs > 1.
        PoolPolicy(
            jobs=self.jobs,
            max_worker_restarts=self.max_worker_restarts,
            heartbeat_interval=self.heartbeat_interval,
            poison_threshold=self.poison_threshold,
        )
        if isinstance(self.shard_size, str):
            if self.shard_size != "auto":
                raise CampaignError(
                    f"shard_size {self.shard_size!r} must be an "
                    "integer, 'auto', or None"
                )
        elif self.shard_size is not None and self.shard_size < 0:
            raise CampaignError(
                f"shard_size {self.shard_size} must be >= 0"
            )


@dataclass
class _UnitOutcome:
    """What one supervised (workload group, shard) unit actually did."""

    rows: Tuple[int, ...]
    shard: int
    #: ``(error_cycles, detection, latent)``, one row per entry of
    #: ``rows``; ``None`` unless ``status == "ok"``.
    value: Optional[tuple]
    status: str            # "ok" | "error" | "timeout" | "worker_crash"
    attempts: int
    elapsed_seconds: float
    error: str = ""


#: A unit of work: the campaign rows it packs and its fault shard.
_Unit = Tuple[Tuple[int, ...], int]

#: Campaign context inherited by fork workers (netlists are not
#: picklable, so the pool must fork after this is set).
_WORKER_RUNNER: Optional["CampaignRunner"] = None


def _worker_unit(unit: _Unit) -> _UnitOutcome:
    """Pool entry point: run one supervised unit in a fork worker."""
    runner = _WORKER_RUNNER
    if runner is None:
        raise CampaignError(
            "campaign worker has no inherited context (requires the "
            "fork start method)"
        )
    return runner._run_unit(*unit)


class CampaignRunner:
    """Supervised executor for one fault-injection campaign.

    Construction performs every pre-flight check (workload and fault
    universe validation, policy resolution, observation compilation,
    fault collapsing, shard planning) so misconfiguration fails before
    any simulation or checkpoint I/O happens.  :meth:`run` then
    executes the (workload group x shard) units under the resilience
    policy and assembles the :class:`~repro.fi.campaign.CampaignResult`.
    """

    def __init__(
        self,
        netlist: Netlist,
        workloads: Sequence[Workload],
        faults: Optional[Sequence[Fault]] = None,
        observation="auto",
        severity="auto",
        collapse: bool = False,
        policy: Optional[RunnerPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        from repro.fi.collapse import collapse_faults
        from repro.fi.observation import (
            ObservationSpec,
            observation_for,
            severity_for,
        )

        if not workloads:
            raise SimulationError(
                "campaign needs at least one workload"
            )
        names = [workload.name for workload in workloads]
        duplicates = sorted({
            name for name in names if names.count(name) > 1
        })
        if duplicates:
            raise SimulationError(
                "duplicate workload names shadow each other in "
                f"per-workload reports: {', '.join(duplicates)}"
            )
        empty = [w.name for w in workloads if w.cycles == 0]
        if empty:
            raise SimulationError(
                "zero-cycle workloads have no error rate: "
                + ", ".join(empty)
            )
        if severity == "auto":
            severity = severity_for(netlist, DEFAULT_SEVERITY)
        if not 0.0 <= severity <= 1.0:
            raise SimulationError(
                f"severity {severity} outside [0, 1]"
            )
        fault_list = list(faults) if faults is not None else (
            full_fault_universe(netlist)
        )
        if not fault_list:
            raise SimulationError("campaign needs at least one fault")

        if observation == "auto":
            observation = observation_for(netlist)
        self._observation_key = observation_key(observation)
        self._compiled = (
            observation.compile(netlist)
            if isinstance(observation, ObservationSpec) else None
        )

        self.netlist = netlist
        self.workloads = list(workloads)
        self.faults = fault_list
        self.severity = float(severity)
        self.collapse = collapse
        self.policy = policy or RunnerPolicy()
        self._sleep = sleep

        self._universe = (
            collapse_faults(netlist, fault_list) if collapse else None
        )
        self._simulated = (
            self._universe.representatives
            if self._universe is not None else fault_list
        )
        self._fault_nets = np.array(
            [fault.net_index for fault in self._simulated],
            dtype=np.intp,
        )
        self._fault_values = np.array(
            [fault.stuck_at for fault in self._simulated],
            dtype=np.uint8,
        )
        self._shards = shard_bounds(
            len(self._simulated), self._resolve_shard_size()
        )
        self._engine: Optional[BitParallelSimulator] = None

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _resolve_shard_size(self) -> int:
        size = self.policy.shard_size
        if size is None or size == "auto":
            return auto_shard_size(self.netlist.n_nets)
        return int(size)

    # -- execution -----------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute the campaign under the resilience policy."""
        store = self._open_store()
        completed: Dict[Tuple[int, int], dict] = (
            store.open(self.policy.resume) if store is not None else {}
        )

        n_workloads = len(self.workloads)
        n_faults = len(self.faults)
        error_cycles = np.zeros((n_workloads, n_faults),
                                dtype=np.int64)
        detection = np.full((n_workloads, n_faults), -1,
                            dtype=np.int64)
        latent = np.zeros((n_workloads, n_faults), dtype=bool)
        arrays = (error_cycles, detection, latent)

        failures: List[Tuple[int, int, WorkloadFailure]] = []
        total_elapsed = 0.0

        pending: Dict[int, List[int]] = {}
        for row in range(n_workloads):
            for shard in range(self.n_shards):
                if (row, shard) in completed:
                    checkpoint = completed[row, shard]
                    self._scatter(arrays, row, shard, (
                        checkpoint["error_cycles"],
                        checkpoint["detection_cycle"],
                        checkpoint["latent"],
                    ))
                    total_elapsed += checkpoint["elapsed_seconds"]
                else:
                    pending.setdefault(shard, []).append(row)

        jobs = resolve_jobs(self.policy.jobs)
        units = self._plan_units(pending, jobs)
        if jobs > 1 and len(units) > 1:
            outcomes = self._parallel_outcomes(units, jobs)
        else:
            outcomes = (self._run_unit(*unit) for unit in units)

        try:
            for outcome in outcomes:
                total_elapsed += outcome.elapsed_seconds
                if outcome.status != "ok":
                    failures.extend(self._failures(outcome))
                    continue
                # Each row checkpoints its share of the unit's wall
                # time, so a resumed total counts the unit once.
                share = outcome.elapsed_seconds / len(outcome.rows)
                for position, row in enumerate(outcome.rows):
                    value = tuple(part[position] for part in outcome.value)
                    self._scatter(arrays, row, outcome.shard, value)
                    if store is not None:
                        store.record(
                            row, outcome.shard,
                            error_cycles=value[0],
                            detection_cycle=value[1],
                            latent=value[2],
                            elapsed_seconds=share,
                        )
        finally:
            # An interrupt mid-iteration must tear the worker pool
            # down *now* (not at GC): closing the generator runs its
            # shutdown path, after which every checkpoint recorded
            # above is durable and the run is resumable.
            close = getattr(outcomes, "close", None)
            if close is not None:
                close()

        return CampaignResult(
            netlist_name=self.netlist.name,
            faults=self.faults,
            workload_names=[w.name for w in self.workloads],
            workload_cycles=np.array(
                [w.cycles for w in self.workloads], dtype=np.int64
            ),
            error_cycles=error_cycles,
            detection_cycle=detection,
            latent=latent,
            severity=self.severity,
            simulation_seconds=total_elapsed,
            failures=[entry[2] for entry in sorted(
                failures, key=lambda entry: (entry[0], entry[1])
            )],
        )

    # -- internals -----------------------------------------------------
    def _plan_units(self, pending: Dict[int, List[int]],
                    jobs: int) -> List[_Unit]:
        """Pack each shard's pending rows into units, row-major.

        Rows of one cycle count share a unit, at most
        ``ceil(rows / jobs)`` of them so ``jobs`` workers each get one,
        and at most as many as keep the packed net values within the
        shard budget (one row always fits, however large).
        """
        budget_lanes = auto_shard_size(self.netlist.n_nets) + 1
        units: List[_Unit] = []
        for shard, rows in pending.items():
            lo, hi = self._shards[shard]
            size = max(1, min(-(-len(rows) // jobs),
                              budget_lanes // (hi - lo + 1)))
            for positions in cycle_groups(
                [self.workloads[row] for row in rows]
            ):
                group = [rows[position] for position in positions]
                units.extend(
                    (tuple(group[start:start + size]), shard)
                    for start in range(0, len(group), size)
                )
        return sorted(units)

    def _scatter(self, arrays, row: int, shard: int, value) -> None:
        """Merge one row's per-representative columns into the full
        original-fault-axis result matrices (shard-aware expansion)."""
        from repro.fi.collapse import expand_shard

        bounds = self._shards[shard]
        if self._universe is None:
            lo, hi = bounds
            for target, columns in zip(arrays, value):
                target[row, lo:hi] = columns
            return
        for target, columns in zip(arrays, value):
            original, expanded = expand_shard(
                self._universe, bounds, np.asarray(columns)
            )
            target[row, original] = expanded

    def _failures(self, outcome: _UnitOutcome
                  ) -> List[Tuple[int, int, WorkloadFailure]]:
        """One ledger entry per workload of a failed unit."""
        error = outcome.error
        if self.n_shards > 1:
            lo, hi = self._shards[outcome.shard]
            error = (
                f"shard {outcome.shard} (faults {lo}:{hi}): {error}"
            )
        return [
            (row, outcome.shard, WorkloadFailure(
                workload=self.workloads[row].name,
                status=outcome.status,
                attempts=outcome.attempts,
                elapsed_seconds=outcome.elapsed_seconds,
                error=error,
            ))
            for row in outcome.rows
        ]

    def _parallel_outcomes(self, units: Sequence[_Unit], jobs: int):
        """Fan units out over the persistent supervised pool.

        Workers fork once, *after* the shared simulation engine is
        built, so every child inherits the full campaign context —
        netlist, stimulus, compiled observation, compiled evaluator —
        through copy-on-write pages instead of pickling.  Outcomes are
        yielded as acknowledgments arrive so checkpoints land the
        moment results exist.  A worker death (segfault, OOM kill)
        requeues the unit it held and respawns the worker under
        ``policy.max_worker_restarts``; a unit that keeps killing its
        hosts is quarantined as ``worker_crash`` ledger entries
        instead of aborting the campaign.
        """
        global _WORKER_RUNNER

        if fork_context() is None:
            # No fork on this platform: degrade to in-process execution.
            for unit in units:
                yield self._run_unit(*unit)
            return

        # Build the engine pre-fork: children inherit the constructed
        # simulator and its compiled netlist copy-on-write instead of
        # each compiling it.
        self._shared_engine()
        pool_policy = PoolPolicy(
            jobs=jobs,
            max_worker_restarts=self.policy.max_worker_restarts,
            heartbeat_interval=self.policy.heartbeat_interval,
            poison_threshold=self.policy.poison_threshold,
        )
        _WORKER_RUNNER = self
        try:
            with WorkerPool(_worker_unit, pool_policy) as pool:
                for result in pool.run(list(units)):
                    rows, shard = units[result.index]
                    if result.crash is not None:
                        yield _UnitOutcome(
                            rows=rows, shard=shard, value=None,
                            status="worker_crash",
                            attempts=max(result.crash.kills, 1),
                            elapsed_seconds=0.0,
                            error=result.crash.describe(),
                        )
                    elif result.error is not None:
                        yield _UnitOutcome(
                            rows=rows, shard=shard, value=None,
                            status="error", attempts=1,
                            elapsed_seconds=0.0,
                            error=f"campaign worker failed: "
                                  f"{result.error}",
                        )
                    else:
                        yield result.value
        finally:
            _WORKER_RUNNER = None

    def _run_unit(self, rows: Tuple[int, ...],
                  shard: int) -> _UnitOutcome:
        """One supervised unit: retry/timeout around a packed pass."""
        workloads = [self.workloads[row] for row in rows]
        started = time.perf_counter()
        value, outcome = retry_call(
            lambda: self._attempt(workloads, shard),
            retries=self.policy.retries,
            backoff=self.policy.backoff or BackoffPolicy(),
            sleep=self._sleep,
        )
        elapsed = time.perf_counter() - started
        if outcome.succeeded:
            return _UnitOutcome(
                rows=rows, shard=shard, value=value, status="ok",
                attempts=outcome.attempts, elapsed_seconds=elapsed,
            )
        return _UnitOutcome(
            rows=rows, shard=shard, value=None,
            status=(
                "timeout"
                if isinstance(outcome.error, PassTimeout) else "error"
            ),
            attempts=outcome.attempts,
            elapsed_seconds=elapsed,
            error=str(outcome.error),
        )

    def _attempt(self, workloads: List[Workload], shard: int):
        """One supervised fault-pass attempt for one unit."""
        if self.policy.timeout is None:
            return self._pass(workloads, shard, self._shared_engine())
        # A timed-out pass leaves its worker thread running; never hand
        # that zombie's engine to a retry — build a fresh one per try.
        box: dict = {}

        def target() -> None:
            try:
                box["value"] = self._pass(
                    workloads, shard, BitParallelSimulator(self.netlist)
                )
            except BaseException as error:  # noqa: BLE001 — relayed
                box["error"] = error

        worker = threading.Thread(
            target=target, daemon=True,
            name=f"fi-pass-{workloads[0].name}-s{shard}",
        )
        worker.start()
        worker.join(self.policy.timeout)
        if worker.is_alive():
            names = ", ".join(repr(workload.name) for workload in workloads)
            raise PassTimeout(
                f"workload(s) {names}: fault pass still running after "
                f"{self.policy.timeout}s"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _pass(self, workloads: List[Workload], shard: int,
              engine: BitParallelSimulator):
        lo, hi = self._shards[shard]
        result = engine.run_pass(
            workloads,
            StuckAt(self._fault_nets[lo:hi], self._fault_values[lo:hi]),
            observation=self._compiled,
        )
        return result.error_cycles, result.detection_cycle, result.latent

    def _shared_engine(self) -> BitParallelSimulator:
        if self._engine is None:
            self._engine = BitParallelSimulator(self.netlist)
        return self._engine

    def _open_store(self) -> Optional[CheckpointStore]:
        if self.policy.checkpoint_dir is None:
            return None
        fingerprint = campaign_fingerprint(
            self.netlist.name,
            self.workloads,
            self._simulated,
            self.severity,
            self.collapse,
            self._observation_key,
        )
        return CheckpointStore(
            self.policy.checkpoint_dir,
            fingerprint=fingerprint,
            netlist_name=self.netlist.name,
            workload_names=[w.name for w in self.workloads],
            n_faults=len(self._simulated),
            shard_bounds=self._shards,
        )
