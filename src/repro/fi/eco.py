"""Incremental fault-criticality re-analysis after netlist edits (ECO).

The production scenario: a designer tweaks a few gates and wants
updated criticality in seconds, not via a full re-campaign.  FI ground
truth costs ~35x what GCN inference costs, so the win is never paying
it twice — this module re-simulates only the faults whose rows can
differ on the edited design and reuses every other row from a cached
baseline, producing a :class:`~repro.fi.campaign.CampaignResult` that
is **bitwise identical** to a full rerun.

Soundness argument (what "clean" means)
---------------------------------------

Let *seeds* be the edited gates (added/removed/changed instances plus
readers of re-driven nets) and ``E`` their forward closure through
flops — every gate with a structural path *from* an edit.  Gates
outside ``E`` have identical cell/pin structure and all fanins outside
``E`` (the closure is forward-closed), so by induction over time and
topology their value traces — golden *and* any faulty lane whose
injection site is outside ``E`` — are identical in both designs.

A fault row can therefore change only if the fault can *reach* an
output whose comparison changed: an output driven from inside ``E``
(its golden trace moved), an added/removed/re-driven port, or an
output *strobed* by such a port (compare masks are taken from the
golden strobe trace).  A fault also changes if it reaches ``E`` at all
(latent state accounting inside ``E`` may shift).  Hence::

    dirty(f)  <=>  gate(f) ∈ fanin_closure(E ∪ drivers(affected outputs))

computed **symmetrically on both the old and the new design** (the old
view covers removed gates/ports, the new view added ones) and unioned
by node name.  Everything outside that set keeps its cached row.

Refusal conditions
------------------

ECO refuses (typed :class:`~repro.utils.errors.EcoError`) rather than
silently merging when the primary-input name sets differ, the baseline
was computed for a different netlist/workload suite (checkpoint-store
baselines are verified against the campaign fingerprint), the baseline
is incomplete (failed workloads or missing checkpoint units), or the
two designs resolve to different observation policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.fi.campaign import CampaignResult, WorkloadFailure
from repro.fi.checkpoint import (
    MANIFEST_NAME,
    CheckpointStore,
    observation_key,
)
from repro.utils.fingerprint import campaign_fingerprint
from repro.fi.faults import Fault, full_fault_universe
from repro.netlist.diff import NetlistDiff, diff_netlists
from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload
from repro.utils.arrays import sorted_unique
from repro.utils.errors import CampaignError, EcoError

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# CSR cone closures
# ----------------------------------------------------------------------
def _closure(gather, seeds: Iterable[int], n_gates: int) -> np.ndarray:
    """Reachable-set BFS over one CSR direction (``gather`` is
    :meth:`~repro.netlist.netlist.GateAdjacency.fanout_rows` or
    ``fanin_rows``): bool mask of every gate reachable from ``seeds``,
    seeds included."""
    reached = np.zeros(n_gates, dtype=bool)
    frontier = sorted_unique(np.fromiter(seeds, dtype=np.int64))
    reached[frontier] = True
    while frontier.size:
        neighbours = gather(frontier)
        fresh = sorted_unique(neighbours[~reached[neighbours]])
        reached[fresh] = True
        frontier = fresh
    return reached


def _forward_closure(netlist: Netlist,
                     seeds: Iterable[int]) -> np.ndarray:
    return _closure(netlist.gate_adjacency().fanout_rows, seeds,
                    netlist.n_gates)


def _backward_closure(netlist: Netlist,
                      seeds: Iterable[int]) -> np.ndarray:
    return _closure(netlist.gate_adjacency().fanin_rows, seeds,
                    netlist.n_gates)


# ----------------------------------------------------------------------
# Dirty-region computation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirtyRegion:
    """Fault-classification result for one netlist edit.

    ``dirty_nodes`` is the union (by canonical node name, over both the
    old and new design views) of the fanin support cones of the edit's
    fanout observation cones — every fault on a node *outside* it is
    guaranteed to produce a bitwise-identical campaign row on the
    edited design.  ``affected_outputs`` are the output ports whose
    comparison semantics may have changed; ``clean_outputs`` are the
    new design's remaining ports (useful for cheap post-ECO
    equivalence spot checks via ``check_equivalence(outputs=...)``).
    """

    dirty_nodes: FrozenSet[str]
    affected_outputs: Tuple[str, ...]
    clean_outputs: Tuple[str, ...]
    n_old_gates: int
    n_new_gates: int

    @property
    def n_dirty(self) -> int:
        return len(self.dirty_nodes)

    @property
    def dirty_fraction(self) -> float:
        """Dirty share of the edited design's gates."""
        return self.n_dirty / max(self.n_new_gates, 1)

    def is_dirty(self, node_name: str) -> bool:
        return node_name in self.dirty_nodes

    def summary(self) -> str:
        return (
            f"{self.n_dirty}/{self.n_new_gates} nodes dirty "
            f"({100.0 * self.dirty_fraction:.1f}%), "
            f"{len(self.affected_outputs)} affected / "
            f"{len(self.clean_outputs)} clean outputs"
        )


def _seed_gates(netlist: Netlist, diff: NetlistDiff,
                view: str) -> Set[int]:
    """Edit-seed gate indices for one design view ("old" or "new")."""
    seeds: Set[int] = set()
    exclusive = (
        diff.removed_gates if view == "old" else diff.added_gates
    )
    for instance in exclusive:
        seeds.add(netlist.gate_by_instance(instance).index)
    for change in diff.changed_gates:
        seeds.add(netlist.gate_by_instance(change.instance).index)
    # A re-driven net changes what its readers see; the new driving
    # gate (when the driver is a gate, not a PI) is itself an edit.
    for net_name in diff.redriven_nets:
        net = netlist.nets[netlist.net_index(net_name)]
        if net.driver is not None:
            seeds.add(net.driver)
        for sink_gate, _ in net.sinks:
            seeds.add(sink_gate)
    pi_delta = (
        diff.removed_inputs if view == "old" else diff.added_inputs
    )
    for net_name in pi_delta:
        net = netlist.nets[netlist.net_index(net_name)]
        for sink_gate, _ in net.sinks:
            seeds.add(sink_gate)
    return seeds


def _view_dirty(netlist: Netlist, diff: NetlistDiff, view: str,
                observation) -> Tuple[Set[str], Set[str]]:
    """(dirty node names, affected output ports) for one design view."""
    from repro.fi.observation import ObservationSpec

    seeds = _seed_gates(netlist, diff, view)
    port_delta: Set[str] = set(diff.redriven_outputs)
    port_delta.update(
        diff.removed_outputs if view == "old" else diff.added_outputs
    )

    forward = _forward_closure(netlist, seeds)

    # Outputs whose *golden* trace (or existence) changed in this view.
    golden_changed: Set[str] = set(port_delta)
    port_driver: Dict[str, Optional[int]] = {}
    for net, port in netlist.primary_outputs:
        driver = netlist.nets[net].driver
        port_driver[port] = driver
        if driver is not None and forward[driver]:
            golden_changed.add(port)

    # Strobe coupling: an output compared under a strobe whose golden
    # trace changed gets a different compare mask even when its own
    # driver is untouched.
    affected: Set[str] = set(golden_changed)
    if isinstance(observation, ObservationSpec):
        compiled = observation.compile(netlist)
        for position, name in enumerate(compiled.output_names):
            strobe = compiled.strobe_index[position]
            if strobe >= 0 and (
                compiled.output_names[int(strobe)] in golden_changed
            ):
                affected.add(name)

    anchors: Set[int] = {
        index for index in np.flatnonzero(forward)
    }
    for port in affected:
        driver = port_driver.get(port)
        if driver is not None:
            anchors.add(driver)
    dirty_mask = _backward_closure(netlist, anchors)
    dirty_names = {
        netlist.gates[index].node_name
        for index in np.flatnonzero(dirty_mask)
    }
    return dirty_names, affected


def compute_dirty_region(
    old: Netlist,
    new: Netlist,
    diff: Optional[NetlistDiff] = None,
    observation="auto",
) -> DirtyRegion:
    """Classify every node as clean or dirty for an old->new edit.

    The closures run symmetrically on both designs (removed logic only
    exists in the old view, added logic only in the new) and the dirty
    node-name sets are unioned, so the result is sound for reusing old
    campaign rows *and* for deciding which new-design rows to
    re-simulate.
    """
    from repro.fi.observation import resolve_policy

    if diff is None:
        diff = diff_netlists(old, new)

    if diff.is_empty:
        return DirtyRegion(
            dirty_nodes=frozenset(),
            affected_outputs=(),
            clean_outputs=tuple(new.output_names()),
            n_old_gates=old.n_gates,
            n_new_gates=new.n_gates,
        )

    dirty_nodes: Set[str] = set()
    affected_ports: Set[str] = set()
    for view, netlist in (("old", old), ("new", new)):
        _, spec = resolve_policy(netlist, observation=observation)
        names, affected = _view_dirty(netlist, diff, view, spec)
        dirty_nodes |= names
        affected_ports |= affected

    return DirtyRegion(
        dirty_nodes=frozenset(dirty_nodes),
        affected_outputs=tuple(sorted(affected_ports)),
        clean_outputs=tuple(
            name for name in new.output_names()
            if name not in affected_ports
        ),
        n_old_gates=old.n_gates,
        n_new_gates=new.n_gates,
    )


# ----------------------------------------------------------------------
# Baseline resolution
# ----------------------------------------------------------------------
def _fault_key(fault) -> Tuple[str, int, int]:
    """Identity of a fault across designs: node name plus the stuck
    value (stuck-at) or injection cycle (transient)."""
    return (
        fault.node_name,
        int(getattr(fault, "stuck_at", -1)),
        int(getattr(fault, "cycle", -1)),
    )


def _check_interfaces(old: Netlist, new: Netlist,
                      workloads: Sequence[Workload]) -> None:
    old_pis, new_pis = set(old.input_names()), set(new.input_names())
    if old_pis != new_pis:
        raise EcoError(
            "ECO requires identical primary-input name sets; designs "
            f"differ on {sorted(old_pis ^ new_pis)[:6]} — run a full "
            "campaign on the edited design instead"
        )
    for workload in workloads:
        if set(workload.input_names) != new_pis:
            raise EcoError(
                f"workload {workload.name!r} does not drive this "
                "design's primary inputs — it belongs to a different "
                "interface"
            )


def _remap_workloads(netlist: Netlist,
                     workloads: Sequence[Workload]) -> List[Workload]:
    """Re-order stimulus columns onto ``netlist``'s PI declaration
    order (the :func:`check_equivalence` idiom) — the bit-parallel
    engine requires exact input-name order."""
    targets = netlist.input_names()
    remapped: List[Workload] = []
    for workload in workloads:
        if list(workload.input_names) == targets:
            remapped.append(workload)
            continue
        columns = [workload.input_names.index(n) for n in targets]
        remapped.append(Workload(
            name=workload.name,
            input_names=targets,
            vectors=workload.vectors[:, columns],
        ))
    return remapped


# ----------------------------------------------------------------------
# dirty-cone extraction (the wall-clock win)
# ----------------------------------------------------------------------
def _rewire_cone_input(sub: Netlist, gate_output_net: int,
                       position: int, new_net: int) -> None:
    """Patch a forward-referenced input (flop state feedback) after its
    driver exists — the :mod:`repro.circuits.fsm` placeholder idiom."""
    gate_index = sub.nets[gate_output_net].driver
    gate = sub.gates[gate_index]
    stale = gate.inputs[position]
    sub.nets[stale].sinks.remove((gate_index, position))
    inputs = list(gate.inputs)
    inputs[position] = new_net
    gate.inputs = tuple(inputs)
    sub.nets[new_net].sinks.append((gate_index, position))
    sub.invalidate_structure()


def extract_dirty_cone(netlist: Netlist, fault_nodes: Iterable[str],
                       observation=None):
    """The induced sub-design on which every dirty fault's campaign row
    is bitwise-identical to its full-design row.

    The bit-parallel engine's wall clock scales with ``nets x cycles``
    (per-net dispatch dominates; the fault words are one machine-wide
    array op), so re-simulating 3% of the faults on the *full* netlist
    saves almost nothing.  The actual ECO speedup comes from simulating
    them on this cone instead: the union of

    * the dirty gates' fanout **observation cones** — every gate,
      flip-flop, and output port a dirty fault can corrupt (outputs
      outside it compare equal by construction, flops outside it cannot
      go latent), and
    * the fanin **support cones** of all of the above — everything
      needed to reproduce their golden traces exactly, plus the support
      of any strobe port observing a retained output (the compare mask
      is taken from the golden strobe trace).

    Net/port/instance names are preserved, so faults and workloads
    remap by name.  Returns ``(sub_netlist, sub_observation)``; when
    the cone covers the whole design the originals are returned
    unchanged.
    """
    from repro.fi.observation import ObservationSpec

    index_of = {gate.node_name: gate.index for gate in netlist.gates}
    seeds = [index_of[name] for name in fault_nodes
             if name in index_of]
    forward = _forward_closure(netlist, seeds)

    compiled = (
        observation.compile(netlist)
        if isinstance(observation, ObservationSpec) else None
    )
    port_net = {port: net for net, port in netlist.primary_outputs}
    anchors: Set[int] = set(np.flatnonzero(forward).tolist())
    forced_pi_ports: Set[str] = set()
    while True:
        cone = _backward_closure(netlist, anchors)
        grown = False
        if compiled is not None:
            position = {
                name: i for i, name in enumerate(compiled.output_names)
            }
            for net, port in netlist.primary_outputs:
                driver = netlist.nets[net].driver
                if driver is None or not cone[driver]:
                    continue
                strobe = int(compiled.strobe_index[position[port]])
                if strobe < 0:
                    continue
                strobe_port = compiled.output_names[strobe]
                strobe_driver = netlist.nets[
                    port_net[strobe_port]
                ].driver
                if strobe_driver is None:
                    forced_pi_ports.add(strobe_port)
                elif not cone[strobe_driver]:
                    anchors.add(strobe_driver)
                    grown = True
        if not grown:
            break
    if bool(cone.all()):
        return netlist, observation

    sub = _materialize_cone(netlist, cone, forced_pi_ports)
    return sub, _filter_observation(observation,
                                    sub.output_names())


def _materialize_cone(netlist: Netlist, cone: np.ndarray,
                      forced_pi_ports: Set[str]) -> Netlist:
    """Build the induced sub-netlist for a cone mask, preserving net,
    port, and instance names.  Every mapped gate-driven output port
    survives; PI-bound ports survive only when listed in
    ``forced_pi_ports``."""
    from repro.netlist.cells import FEEDBACK_PORTS

    port_net = {port: net for net, port in netlist.primary_outputs}
    needed_nets: Set[int] = set()
    cone_indices = [int(i) for i in np.flatnonzero(cone)]
    for index in cone_indices:
        gate = netlist.gates[index]
        feedback = FEEDBACK_PORTS.get(gate.cell.name)
        wired = gate.inputs[:-1] if feedback else gate.inputs
        needed_nets.update(wired)
    for port in forced_pi_ports:
        needed_nets.add(port_net[port])

    sub = Netlist(netlist.name)
    net_map: Dict[int, int] = {}
    for name in netlist.input_names():
        index = netlist.net_index(name)
        if index in needed_nets:
            net_map[index] = sub.add_input(name)

    deferred: List[Tuple[int, int, int]] = []
    for gate_index in netlist.topological_order():
        if not cone[gate_index]:
            continue
        gate = netlist.gates[gate_index]
        feedback = FEEDBACK_PORTS.get(gate.cell.name)
        wired = gate.inputs[:-1] if feedback else gate.inputs
        inputs: List[int] = []
        for position, net in enumerate(wired):
            mapped = net_map.get(net)
            if mapped is None:
                # Flop data pin wired to a later gate (state
                # feedback): placeholder now, rewired below.
                deferred.append((gate_index, position, net))
                mapped = 0
            inputs.append(mapped)
        output = sub.add_gate(
            gate.cell.name, inputs, instance=gate.instance,
            output_name=netlist.nets[gate.output].name,
        )
        net_map[gate.output] = output
    for gate_index, position, net in deferred:
        _rewire_cone_input(
            sub, net_map[netlist.gates[gate_index].output],
            position, net_map[net],
        )

    for net, port in netlist.primary_outputs:
        mapped = net_map.get(net)
        if mapped is None:
            continue
        # PI-bound ports can never mismatch; keep strobes only.
        if (netlist.nets[net].driver is None
                and port not in forced_pi_ports):
            continue
        sub.add_output(mapped, port)
    return sub


def _filter_observation(observation, retained_names: Iterable[str]):
    """Restrict an observation spec to the strobes whose targets match
    at least one retained output name."""
    from repro.fi.observation import ObservationSpec

    if not isinstance(observation, ObservationSpec):
        return observation
    names = list(retained_names)
    return ObservationSpec(strobes={
        target: value
        for target, value in observation.strobes.items()
        if any(name == target or name.startswith(target + "_")
               for name in names)
    })


def _cone_faults(sub: Netlist, faults: Sequence) -> List:
    """Rebind faults onto the cone sub-netlist by node name."""
    from repro.fi.transient import TransientFault

    by_name = {gate.node_name: gate for gate in sub.gates}
    rebuilt: List = []
    for fault in faults:
        gate = by_name[fault.node_name]
        if hasattr(fault, "stuck_at"):
            rebuilt.append(Fault(
                gate_index=gate.index, net_index=gate.output,
                node_name=fault.node_name, stuck_at=fault.stuck_at,
            ))
        else:
            rebuilt.append(TransientFault(
                gate_index=gate.index, net_index=gate.output,
                node_name=fault.node_name, cycle=fault.cycle,
            ))
    return rebuilt


def _checked_base(base: CampaignResult, old: Netlist,
                  workloads: Sequence[Workload],
                  ) -> Tuple[CampaignResult, float]:
    """An in-memory baseline and what its rows cost, refused unless it
    covers the whole suite on the pre-edit design."""
    if base.netlist_name != old.name:
        raise EcoError(
            f"base campaign was run on {base.netlist_name!r}, not on "
            f"the pre-edit design {old.name!r}"
        )
    names = [workload.name for workload in workloads]
    if base.workload_names != names:
        raise EcoError(
            "base campaign used a different workload suite "
            f"({base.workload_names[:4]}... vs {names[:4]}...)"
        )
    cycles = np.array([w.cycles for w in workloads], dtype=np.int64)
    if not np.array_equal(base.workload_cycles, cycles):
        raise EcoError(
            "base campaign workload cycle counts differ from the "
            "given suite"
        )
    if base.failures:
        raise EcoError(
            "base campaign is incomplete (failed workloads: "
            + ", ".join(f.workload for f in base.failures[:4])
            + ") — its default rows cannot be reused"
        )
    return base, base.simulation_seconds


def _load_base_from_store(
    directory: PathLike,
    old: Netlist,
    workloads: Sequence[Workload],
    severity_old: float,
    observation_key_old: str,
) -> Tuple[CampaignResult, float]:
    """Reconstruct the old design's full-universe campaign rows from a
    PR 1/3-style checkpoint store, verifying the fingerprint.

    The store's manifest fingerprint must match the old design +
    workload suite for either the collapsed or the uncollapsed full
    stuck-at universe; anything else is refused.  Every unit must be
    present and intact — an incomplete base has nothing trustworthy to
    merge.
    """
    if not (Path(directory) / MANIFEST_NAME).exists():
        raise EcoError(
            f"base checkpoint directory {directory} has no "
            f"{MANIFEST_NAME} — nothing to reuse"
        )
    try:
        store = CheckpointStore.from_manifest(directory)
    except CampaignError as error:
        raise EcoError(f"cannot reuse the base store: {error}") from error

    def matches(simulated, collapse: bool) -> bool:
        return store.fingerprint == campaign_fingerprint(
            old.name, workloads, simulated, severity_old, collapse,
            observation_key_old,
        )

    # The uncollapsed universe first: it is the default baseline, and
    # collapsing costs more than the fingerprint it is tried for.
    universe = full_fault_universe(old)
    collapsed = None
    if not matches(universe, False):
        from repro.fi.collapse import collapse_faults, expand_shard

        collapsed = collapse_faults(old, universe)
        if not matches(collapsed.representatives, True):
            raise EcoError(
                f"base checkpoint directory {directory} belongs to a "
                "different campaign (netlist, workload stimulus, "
                "severity, or observation policy changed) — refusing "
                "to merge"
            )

    completed = store.open(resume=True)
    missing = [
        (row, shard)
        for row in range(len(workloads))
        for shard in range(store.n_shards)
        if (row, shard) not in completed
    ]
    if missing or store.stale_units:
        torn = [unit[:2] for unit in store.stale_units]
        raise EcoError(
            f"base checkpoint directory {directory} is incomplete "
            f"(missing units: {missing[:4]}, torn units: {torn[:4]}) "
            "— finish the base campaign with --resume first"
        )

    n_workloads, n_faults = len(workloads), len(universe)
    error_cycles = np.zeros((n_workloads, n_faults), dtype=np.int64)
    detection = np.full((n_workloads, n_faults), -1, dtype=np.int64)
    latent = np.zeros((n_workloads, n_faults), dtype=bool)
    base_seconds = 0.0
    for (row, shard), checkpoint in completed.items():
        base_seconds += checkpoint["elapsed_seconds"]
        bounds = store.shard_bounds[shard]
        columns = (
            checkpoint["error_cycles"],
            checkpoint["detection_cycle"],
            checkpoint["latent"],
        )
        for target, column in zip(
            (error_cycles, detection, latent), columns
        ):
            if collapsed is not None:
                original, expanded = expand_shard(
                    collapsed, bounds, np.asarray(column)
                )
                target[row, original] = expanded
            else:
                lo, hi = bounds
                target[row, lo:hi] = column

    base = CampaignResult(
        netlist_name=old.name,
        faults=universe,
        workload_names=[w.name for w in workloads],
        workload_cycles=np.array(
            [w.cycles for w in workloads], dtype=np.int64
        ),
        error_cycles=error_cycles,
        detection_cycle=detection,
        latent=latent,
        severity=severity_old,
        simulation_seconds=base_seconds,
    )
    return base, base_seconds


# ----------------------------------------------------------------------
# Incremental campaign
# ----------------------------------------------------------------------
@dataclass
class EcoResult:
    """Outcome of an incremental re-analysis.

    ``result`` is the merged :class:`CampaignResult` for the edited
    design — bitwise identical to a full rerun when every dirty unit
    completed.  ``dirty_seconds`` is the simulation actually paid;
    ``base_seconds`` what the cached rows cost when they were first
    simulated (the avoided work, for the ≥10x benchmark).
    """

    result: CampaignResult
    diff: NetlistDiff
    region: DirtyRegion
    n_faults: int
    n_dirty: int
    dirty_seconds: float
    base_seconds: float

    @property
    def n_reused(self) -> int:
        return self.n_faults - self.n_dirty

    @property
    def reuse_fraction(self) -> float:
        return self.n_reused / max(self.n_faults, 1)

    def summary(self) -> str:
        return (
            f"{self.diff.summary()}; {self.region.summary()}; "
            f"re-simulated {self.n_dirty}/{self.n_faults} faults in "
            f"{self.dirty_seconds:.2f}s, reused {self.n_reused} "
            f"cached rows ({100.0 * self.reuse_fraction:.1f}%)"
        )


def _merge_rows(
    new_universe: Sequence,
    dirty_indices: Sequence[int],
    base: CampaignResult,
    base_columns: Dict[Tuple[str, int, int], int],
    dirty_result: Optional[CampaignResult],
    workloads: Sequence[Workload],
    netlist_name: str,
    severity: float,
) -> CampaignResult:
    """Assemble the merged full-universe result matrices."""
    n_workloads, n_faults = len(workloads), len(new_universe)
    error_cycles = np.zeros((n_workloads, n_faults), dtype=np.int64)
    detection = np.full((n_workloads, n_faults), -1, dtype=np.int64)
    latent = np.zeros((n_workloads, n_faults), dtype=bool)

    dirty_set = set(dirty_indices)
    clean_new = [i for i in range(n_faults) if i not in dirty_set]
    if clean_new:
        clean_base = [
            base_columns[_fault_key(new_universe[i])] for i in clean_new
        ]
        error_cycles[:, clean_new] = base.error_cycles[:, clean_base]
        detection[:, clean_new] = base.detection_cycle[:, clean_base]
        latent[:, clean_new] = base.latent[:, clean_base]

    failures: List[WorkloadFailure] = []
    dirty_seconds = 0.0
    if dirty_result is not None:
        columns = list(dirty_indices)
        error_cycles[:, columns] = dirty_result.error_cycles
        detection[:, columns] = dirty_result.detection_cycle
        latent[:, columns] = dirty_result.latent
        failures = list(dirty_result.failures)
        dirty_seconds = dirty_result.simulation_seconds

    return CampaignResult(
        netlist_name=netlist_name,
        faults=list(new_universe),
        workload_names=[w.name for w in workloads],
        workload_cycles=np.array(
            [w.cycles for w in workloads], dtype=np.int64
        ),
        error_cycles=error_cycles,
        detection_cycle=detection,
        latent=latent,
        severity=severity,
        simulation_seconds=dirty_seconds,
        failures=failures,
    )


def _resolve_policies(old: Netlist, new: Netlist, severity,
                      observation) -> Tuple[float, float, object]:
    """``(old severity, new severity, shared observation)``; refuses
    when the two designs resolve to different registered observation
    specs — the cached rows were compared under the old policy."""
    from repro.fi.observation import resolve_policy

    severity_old, spec_old = resolve_policy(old, severity, observation)
    severity_new, spec_new = resolve_policy(new, severity, observation)
    if observation_key(spec_old) != observation_key(spec_new):
        raise EcoError(
            f"designs {old.name!r} and {new.name!r} resolve to "
            "different observation policies — cached comparison rows "
            "are not reusable; pass observation= explicitly or run a "
            "full campaign"
        )
    return severity_old, severity_new, spec_old


def _run_eco(
    old: Netlist,
    new: Netlist,
    workloads: Sequence[Workload],
    *,
    severity,
    observation,
    load_base: Callable[[float, object], Tuple[CampaignResult, float]],
    fault_universe: Callable[[], List],
    rerun: Callable[..., CampaignResult],
) -> EcoResult:
    """The ECO driver both fault models share.

    Checks the interfaces, resolves one observation policy for both
    designs, diffs them and computes the dirty region.  The baseline
    comes from ``load_base(old severity, observation)`` and the edited
    design's faults from ``fault_universe()``.  A fault is dirty when
    its node is in the dirty region or the baseline has no row for it;
    the dirty faults re-simulate on the extracted dirty cone through
    ``rerun(netlist, workloads, faults=, observation=, severity=)``,
    and every other row is copied from the baseline.
    """
    _check_interfaces(old, new, workloads)
    severity_old, severity_new, spec = _resolve_policies(
        old, new, severity, observation)

    diff = diff_netlists(old, new)
    region = compute_dirty_region(old, new, diff=diff, observation=spec)
    base, base_seconds = load_base(severity_old, spec)

    new_universe = fault_universe()
    base_columns = {
        _fault_key(fault): column
        for column, fault in enumerate(base.faults)
    }
    dirty_indices = [
        index for index, fault in enumerate(new_universe)
        if region.is_dirty(fault.node_name)
        or _fault_key(fault) not in base_columns
    ]

    dirty_result: Optional[CampaignResult] = None
    if dirty_indices:
        dirty_faults = [new_universe[i] for i in dirty_indices]
        cone, cone_spec = extract_dirty_cone(
            new, {fault.node_name for fault in dirty_faults}, spec,
        )
        dirty_result = rerun(
            cone,
            _remap_workloads(cone, workloads),
            faults=(
                dirty_faults if cone is new
                else _cone_faults(cone, dirty_faults)
            ),
            observation=cone_spec,
            severity=severity_new,
        )

    merged = _merge_rows(
        new_universe, dirty_indices, base, base_columns, dirty_result,
        workloads, new.name, severity_new,
    )
    return EcoResult(
        result=merged,
        diff=diff,
        region=region,
        n_faults=len(new_universe),
        n_dirty=len(dirty_indices),
        dirty_seconds=merged.simulation_seconds,
        base_seconds=base_seconds,
    )


def run_eco_campaign(
    old: Netlist,
    new: Netlist,
    workloads: Sequence[Workload],
    *,
    base: Optional[CampaignResult] = None,
    base_checkpoint_dir: Optional[PathLike] = None,
    faults: Optional[Sequence[Fault]] = None,
    observation="auto",
    severity="auto",
    collapse: bool = False,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff=None,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
    jobs: int = 1,
    shard_size=0,
) -> EcoResult:
    """Incremental stuck-at campaign for an edited design.

    Diffs ``old`` against ``new``, computes the dirty region,
    re-simulates only the dirty faults on the extracted dirty cone
    (with the full resilient runner feature set: sharding, ``jobs``
    fan-out, checkpoint/resume of the *dirty* sub-campaign via
    ``checkpoint_dir``/``resume``), and merges with cached rows from
    exactly one baseline source:

    * ``base`` — an in-memory :class:`CampaignResult` of the *old*
      design over the same ``workloads`` (full stuck-at universe), or
    * ``base_checkpoint_dir`` — a completed PR 1/3-style checkpoint
      store, verified against the old campaign's fingerprint.

    The merged result is bitwise identical to
    ``run_campaign(new, workloads, ...)`` for every runner
    configuration, provided every dirty unit completes (failures land
    in the ledger as usual).  ``faults`` defaults to the edited
    design's full stuck-at universe; clean faults with no matching
    ``(node, stuck_at)`` row in the baseline fall back to
    re-simulation rather than guessing.

    Raises :class:`~repro.utils.errors.EcoError` on any refusal
    condition (see module docstring).
    """
    if (base is None) == (base_checkpoint_dir is None):
        raise EcoError(
            "pass exactly one of base= (in-memory CampaignResult) or "
            "base_checkpoint_dir= (checkpoint store)"
        )

    def load_base(severity_old: float, spec):
        if base is not None:
            return _checked_base(base, old, workloads)
        return _load_base_from_store(
            base_checkpoint_dir, old, workloads, severity_old,
            observation_key(spec),
        )

    def rerun(cone: Netlist, cone_workloads, **campaign):
        from repro.fi.runner import CampaignRunner, RunnerPolicy

        policy = RunnerPolicy(
            timeout=timeout, retries=retries, backoff=backoff,
            checkpoint_dir=checkpoint_dir, resume=resume, jobs=jobs,
            shard_size=shard_size,
        )
        return CampaignRunner(cone, cone_workloads, collapse=collapse,
                              policy=policy, **campaign).run()

    return _run_eco(
        old, new, workloads, severity=severity, observation=observation,
        load_base=load_base,
        fault_universe=lambda: (
            list(faults) if faults is not None
            else full_fault_universe(new)
        ),
        rerun=rerun,
    )


def run_eco_transient_campaign(
    old: Netlist,
    new: Netlist,
    workloads: Sequence[Workload],
    *,
    base: CampaignResult,
    faults: Optional[Sequence] = None,
    injections_per_flop: int = 8,
    seed=0,
    observation="auto",
    severity="auto",
) -> EcoResult:
    """Incremental SEU campaign for an edited design.

    Same clean/dirty classification as :func:`run_eco_campaign`;
    transient faults match baseline rows by ``(node, cycle)``.  The
    edited design's universe is regenerated with the same sampling
    seed, so an unchanged flop set reproduces the same injection
    cycles; flops whose sampled cycles drift (e.g. the flop order
    changed) simply fail the row match and fall back to re-simulation
    — never to a wrong merge.
    """
    from repro.fi.transient import (
        run_transient_campaign,
        transient_fault_universe,
    )

    def fault_universe():
        if faults is not None:
            return list(faults)
        return transient_fault_universe(
            new, min(w.cycles for w in workloads), injections_per_flop,
            seed,
        )

    return _run_eco(
        old, new, workloads, severity=severity, observation=observation,
        load_base=lambda severity_old, spec: _checked_base(
            base, old, workloads),
        fault_universe=fault_universe,
        rerun=run_transient_campaign,
    )
