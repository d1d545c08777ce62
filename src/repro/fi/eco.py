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

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
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

from repro.fi.campaign import (
    DEFAULT_SEVERITY,
    CampaignResult,
    WorkloadFailure,
)
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
from repro.utils.errors import EcoError

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# CSR cone closures
# ----------------------------------------------------------------------
def _closure(indptr: np.ndarray, indices: np.ndarray,
             seeds: Iterable[int], n_gates: int) -> np.ndarray:
    """Reachable-set BFS over one CSR direction (the ``hop_levels``
    frontier-gather pattern): bool mask of every gate reachable from
    ``seeds``, seeds included."""
    reached = np.zeros(n_gates, dtype=bool)
    frontier = np.unique(np.fromiter(seeds, dtype=np.int64))
    if frontier.size == 0:
        return reached
    reached[frontier] = True
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather all frontier rows' neighbours in one vectorized shot.
        row_offset = np.repeat(np.cumsum(counts) - counts, counts)
        gather = np.repeat(starts, counts) + (
            np.arange(total) - row_offset
        )
        neighbours = indices[gather]
        fresh = np.unique(neighbours[~reached[neighbours]])
        reached[fresh] = True
        frontier = fresh
    return reached


def _forward_closure(netlist: Netlist,
                     seeds: Iterable[int]) -> np.ndarray:
    adjacency = netlist.gate_adjacency()
    return _closure(adjacency.fanout_indptr, adjacency.fanout_indices,
                    seeds, netlist.n_gates)


def _backward_closure(netlist: Netlist,
                      seeds: Iterable[int]) -> np.ndarray:
    adjacency = netlist.gate_adjacency()
    return _closure(adjacency.fanin_indptr, adjacency.fanin_indices,
                    seeds, netlist.n_gates)


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
    from repro.fi.observation import observation_for

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
        spec = (
            observation_for(netlist) if observation == "auto"
            else observation
        )
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
                      forced_pi_ports: Set[str],
                      retained_ports: Optional[Set[str]] = None,
                      ) -> Netlist:
    """Build the induced sub-netlist for a cone mask, preserving net,
    port, and instance names.  ``retained_ports`` restricts which
    gate-driven output ports survive (``None`` keeps every mapped one);
    PI-bound ports survive only when listed in ``forced_pi_ports``."""
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
        if netlist.nets[net].driver is None:
            # PI-bound ports can never mismatch; keep strobes only.
            if port not in forced_pi_ports:
                continue
        elif retained_ports is not None and port not in retained_ports:
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


def extract_support_cone(
    new: Netlist,
    diff: NetlistDiff,
    observation,
    fault_nodes: Iterable[str],
    affected_ports: Iterable[str],
):
    """The sub-design on which every dirty fault's effect on the
    *affected* outputs and *affected* flops replays exactly.

    Unlike :func:`extract_dirty_cone` (which chases each dirty fault's
    full forward observation cone — design-wide as soon as one dirty
    gate has global fanout), this cone is assembled purely from
    **backward** support closures: the fanin cones of the affected
    output drivers, the affected flops (those forward of the edit,
    whose end-state feeds the latent classification), the strobes
    observing any retained affected output, and the dirty fault gates
    themselves.  Clean outputs and clean flops are *not* reproduced —
    the trace-merge path takes their mismatch contributions from the
    baseline's recorded traces instead.

    Returns ``(sub, sub_spec, retained_affected, affected_flops)``:
    the sub-netlist, its restricted observation spec, the affected
    ports it retains as outputs, and the node names of the affected
    flops (all present in the cone).
    """
    from repro.fi.observation import ObservationSpec

    port_net = {port: net for net, port in new.primary_outputs}
    seeds = _seed_gates(new, diff, "new")
    forward = _forward_closure(new, seeds)
    affected_flops = [
        new.gates[int(index)].node_name
        for index in np.flatnonzero(forward)
        if new.gates[int(index)].cell.sequential
    ]

    index_of = {gate.node_name: gate.index for gate in new.gates}
    anchors: Set[int] = {
        index_of[name] for name in fault_nodes if name in index_of
    }
    anchors.update(index_of[name] for name in affected_flops)

    retained: Set[str] = set()
    forced_pi_ports: Set[str] = set()
    for port in affected_ports:
        net = port_net.get(port)
        if net is None:
            continue  # removed port — only the old design has it
        driver = new.nets[net].driver
        if driver is None:
            # PI-bound ports can never mismatch in any machine.
            continue
        anchors.add(driver)
        retained.add(port)

    if isinstance(observation, ObservationSpec):
        # Compare masks come from golden strobe traces: every strobe
        # observing a retained output needs its port and support in the
        # cone (strobes can chain, hence the fixpoint).
        changed = True
        while changed:
            changed = False
            for target, (strobe, _) in observation.strobes.items():
                applies = any(
                    name == target or name.startswith(target + "_")
                    for name in retained
                )
                if not applies or strobe in retained:
                    continue
                if strobe in forced_pi_ports:
                    continue
                strobe_net = port_net[strobe]
                driver = new.nets[strobe_net].driver
                if driver is None:
                    forced_pi_ports.add(strobe)
                else:
                    anchors.add(driver)
                    retained.add(strobe)
                changed = True

    cone = _backward_closure(new, anchors)
    sub = _materialize_cone(new, cone, forced_pi_ports, retained)
    sub_spec = _filter_observation(observation, sub.output_names())
    retained_affected = {
        port for port in affected_ports if port in retained
    }
    return sub, sub_spec, retained_affected, affected_flops


# ----------------------------------------------------------------------
# Baseline mismatch traces (the trace-merge fast path's fuel)
# ----------------------------------------------------------------------
ECO_TRACES_NAME = "eco_traces.npz"


@dataclass
class EcoTraces:
    """Per-output / per-flop mismatch traces of a baseline campaign.

    Recorded by :func:`run_campaign_with_traces`: for every workload,
    the strobe-gated golden-vs-faulty mismatch words of each output on
    each cycle, and each flop's end-of-run state-corruption words.
    They let :func:`run_eco_campaign` rebuild a dirty fault's full row
    from (a) the baseline's clean-output/clean-flop contributions —
    provably unchanged by the edit — plus (b) a fresh simulation of
    only the affected-support cone, which is what turns "re-simulate 4%
    of the faults" into an actual wall-clock win on designs where dirty
    gates have global fanout.
    """

    fingerprint: str
    netlist_name: str
    workload_names: List[str]
    output_names: List[str]
    flop_names: List[str]
    fault_nodes: List[str]
    fault_stuck: np.ndarray        # int8 per fault
    output_diff: List[np.ndarray]  # per workload (cycles, outs, words)
    flop_end_diff: List[np.ndarray]  # per workload (flops, words)

    def fault_keys(self) -> List[Tuple[str, int, int]]:
        return [
            (node, int(stuck), -1)
            for node, stuck in zip(self.fault_nodes, self.fault_stuck)
        ]

    def save(self, path: PathLike) -> None:
        payload: Dict[str, np.ndarray] = {
            "fingerprint": np.array(self.fingerprint),
            "netlist_name": np.array(self.netlist_name),
            "workload_names": np.array(self.workload_names, dtype="U"),
            "output_names": np.array(self.output_names, dtype="U"),
            "flop_names": np.array(self.flop_names, dtype="U"),
            "fault_nodes": np.array(self.fault_nodes, dtype="U"),
            "fault_stuck": np.asarray(self.fault_stuck, dtype=np.int8),
        }
        for row, array in enumerate(self.output_diff):
            payload[f"output_diff_{row}"] = array
        for row, array in enumerate(self.flop_end_diff):
            payload[f"flop_end_diff_{row}"] = array
        # Uncompressed on purpose: the sidecar is read on every ECO
        # run and zlib decompression would dominate the warm path.
        np.savez(str(path), **payload)

    @classmethod
    def load(cls, path: PathLike) -> "EcoTraces":
        try:
            with np.load(str(path)) as archive:
                workload_names = [
                    str(name) for name in archive["workload_names"]
                ]
                traces = cls(
                    fingerprint=str(archive["fingerprint"]),
                    netlist_name=str(archive["netlist_name"]),
                    workload_names=workload_names,
                    output_names=[
                        str(name) for name in archive["output_names"]
                    ],
                    flop_names=[
                        str(name) for name in archive["flop_names"]
                    ],
                    fault_nodes=[
                        str(name) for name in archive["fault_nodes"]
                    ],
                    fault_stuck=archive["fault_stuck"],
                    output_diff=[
                        archive[f"output_diff_{row}"]
                        for row in range(len(workload_names))
                    ],
                    flop_end_diff=[
                        archive[f"flop_end_diff_{row}"]
                        for row in range(len(workload_names))
                    ],
                )
        except (KeyError, ValueError, OSError, zipfile.BadZipFile
               ) as error:
            raise EcoError(
                f"ECO trace sidecar {path} is corrupt or truncated: "
                f"{error}"
            ) from error
        traces._check_shapes(path)
        return traces

    def _check_shapes(self, path: PathLike) -> None:
        """Refuse a sidecar whose arrays disagree with its name lists
        (lane words, output and flop counts), before any lane lookup
        can index past them."""
        n_words = (len(self.fault_nodes) + 64) // 64
        problems = []
        if len(self.fault_stuck) != len(self.fault_nodes):
            problems.append(
                f"{len(self.fault_stuck)} stuck values for "
                f"{len(self.fault_nodes)} faults"
            )
        for row, (outputs, flops) in enumerate(
            zip(self.output_diff, self.flop_end_diff)
        ):
            if outputs.shape[1:] != (len(self.output_names), n_words):
                problems.append(
                    f"output_diff_{row} has shape {outputs.shape}, "
                    f"expected (cycles, {len(self.output_names)}, "
                    f"{n_words})"
                )
            if flops.shape != (len(self.flop_names), n_words):
                problems.append(
                    f"flop_end_diff_{row} has shape {flops.shape}, "
                    f"expected ({len(self.flop_names)}, {n_words})"
                )
        if problems:
            raise EcoError(
                f"ECO trace sidecar {path} is inconsistent: "
                + "; ".join(problems)
            )


def run_campaign_with_traces(
    netlist: Netlist,
    workloads: Sequence[Workload],
    faults: Optional[Sequence[Fault]] = None,
    observation="auto",
    severity="auto",
    *,
    checkpoint_dir: Optional[PathLike] = None,
):
    """Serial full campaign that additionally records ECO reuse traces.

    Returns ``(result, traces)`` where ``result`` is bitwise identical
    to ``run_campaign(...)`` under the default serial policy and
    ``traces`` is the :class:`EcoTraces` sidecar that unlocks
    :func:`run_eco_campaign`'s trace-merge fast path.  With
    ``checkpoint_dir`` set, the campaign is also checkpointed as a
    normal single-shard store *and* the sidecar is written next to the
    manifest as ``eco_traces.npz`` — ``repro campaign --eco`` picks
    both up from ``--base-checkpoint-dir``.
    """
    import time

    from repro.utils.fingerprint import campaign_fingerprint
    from repro.fi.runner import CampaignRunner, RunnerPolicy
    from repro.sim.bitparallel import BitParallelSimulator, StuckAt

    runner = CampaignRunner(
        netlist, workloads, faults=faults, observation=observation,
        severity=severity, collapse=False,
        policy=RunnerPolicy(checkpoint_dir=checkpoint_dir),
    )
    store = runner._open_store()
    if store is not None:
        store.open(resume=False)

    engine = BitParallelSimulator(netlist)
    injection = StuckAt(runner._fault_nets, runner._fault_values)
    n_faults = len(runner.faults)
    n_workloads = len(runner.workloads)

    error_cycles = np.zeros((n_workloads, n_faults), dtype=np.int64)
    detection = np.full((n_workloads, n_faults), -1, dtype=np.int64)
    latent = np.zeros((n_workloads, n_faults), dtype=bool)
    output_diff: List[np.ndarray] = []
    flop_end_diff: List[np.ndarray] = []
    total_elapsed = 0.0
    for row, workload in enumerate(runner.workloads):
        started = time.perf_counter()
        traced = engine.run_pass(
            [workload], injection, observation=runner._compiled,
            trace=True,
        )
        value = traced.row(0)
        elapsed = time.perf_counter() - started
        total_elapsed += elapsed
        error_cycles[row], detection[row], latent[row] = value
        if store is not None:
            store.record(
                row, 0,
                error_cycles=value[0], detection_cycle=value[1],
                latent=value[2], elapsed_seconds=elapsed,
            )
        output_diff.append(traced.trace.output_diff)
        flop_end_diff.append(traced.trace.flop_end_diff)

    result = CampaignResult(
        netlist_name=netlist.name,
        faults=runner.faults,
        workload_names=[w.name for w in runner.workloads],
        workload_cycles=np.array(
            [w.cycles for w in runner.workloads], dtype=np.int64
        ),
        error_cycles=error_cycles,
        detection_cycle=detection,
        latent=latent,
        severity=runner.severity,
        simulation_seconds=total_elapsed,
    )
    traces = EcoTraces(
        fingerprint=campaign_fingerprint(
            netlist.name, runner.workloads, runner._simulated,
            runner.severity, False, runner._observation_key,
        ),
        netlist_name=netlist.name,
        workload_names=[w.name for w in runner.workloads],
        output_names=netlist.output_names(),
        flop_names=[
            gate.node_name for gate in netlist.sequential_gates()
        ],
        fault_nodes=[fault.node_name for fault in runner.faults],
        fault_stuck=np.array(
            [fault.stuck_at for fault in runner.faults], dtype=np.int8
        ),
        output_diff=output_diff,
        flop_end_diff=flop_end_diff,
    )
    if checkpoint_dir is not None:
        traces.save(Path(checkpoint_dir) / ECO_TRACES_NAME)
    return result, traces


def _machine_bits(words: np.ndarray,
                  machines: np.ndarray) -> np.ndarray:
    """Select machine bit columns from packed mismatch words.

    ``words`` is ``(..., n_words)`` uint64; returns a boolean array of
    shape ``(..., len(machines))``.
    """
    word_index = (machines >> 6).astype(np.intp)
    shifts = (machines & 63).astype(np.uint64)
    return ((words[..., word_index] >> shifts)
            & np.uint64(1)).astype(bool)


def _trace_merge_dirty(
    old: Netlist,
    new: Netlist,
    diff: NetlistDiff,
    region: DirtyRegion,
    spec,
    workloads: Sequence[Workload],
    base: CampaignResult,
    base_columns: Dict[Tuple[str, int, int], int],
    traces: EcoTraces,
    dirty_faults: Sequence[Fault],
    severity_old: float,
) -> Optional[CampaignResult]:
    """Rebuild the dirty faults' rows from baseline traces plus one
    packed affected-support-cone pass per workload cycle count.

    Returns ``None`` when the traces cannot soundly cover this edit
    (non-stuck-at faults, or a dirty fault on a pre-existing node with
    no baseline lane); raises :class:`EcoError` when the sidecar
    plainly belongs to a different campaign.
    """
    import time

    from repro.utils.fingerprint import campaign_fingerprint
    from repro.fi.observation import ObservationSpec
    from repro.sim.bitparallel import (
        BitParallelSimulator,
        StuckAt,
        cycle_groups,
    )

    if any(not hasattr(fault, "stuck_at") for fault in dirty_faults):
        return None
    old_nodes = {gate.node_name for gate in old.gates}
    base_machines = np.zeros(len(dirty_faults), dtype=np.int64)
    has_lane = np.zeros(len(dirty_faults), dtype=bool)
    for position, fault in enumerate(dirty_faults):
        column = base_columns.get(_fault_key(fault))
        if column is None:
            if fault.node_name in old_nodes:
                return None  # pre-existing node, no cached lane
            continue  # added node: clean contribution provably zero
        base_machines[position] = column + 1
        has_lane[position] = True

    expected = campaign_fingerprint(
        old.name, workloads, base.faults, severity_old, False,
        observation_key(spec),
    )
    if traces.fingerprint != expected:
        raise EcoError(
            "ECO trace sidecar belongs to a different campaign "
            "(netlist, workload stimulus, fault universe, severity, or "
            "observation policy changed) — refusing to merge"
        )
    if traces.fault_keys() != [_fault_key(f) for f in base.faults]:
        raise EcoError(
            "ECO trace sidecar fault lanes do not match the baseline "
            "fault universe — refusing to merge"
        )

    affected = set(region.affected_outputs)
    clean_ports = [
        name for name in new.output_names() if name not in affected
    ]
    base_out_position = {
        name: i for i, name in enumerate(traces.output_names)
    }
    if any(port not in base_out_position for port in clean_ports):
        return None  # clean port unseen by the baseline traces
    clean_out_rows = np.array(
        [base_out_position[port] for port in clean_ports],
        dtype=np.intp,
    )

    started = time.perf_counter()
    sub, sub_spec, retained_affected, affected_flops = (
        extract_support_cone(
            new, diff, spec,
            {fault.node_name for fault in dirty_faults}, affected,
        )
    )
    affected_flop_set = set(affected_flops)
    clean_flops = [
        gate.node_name for gate in new.sequential_gates()
        if gate.node_name not in affected_flop_set
    ]
    base_flop_position = {
        name: i for i, name in enumerate(traces.flop_names)
    }
    if any(name not in base_flop_position for name in clean_flops):
        return None  # clean flop unseen by the baseline traces
    clean_flop_rows = np.array(
        [base_flop_position[name] for name in clean_flops],
        dtype=np.intp,
    )

    cone_faults = _cone_faults(sub, dirty_faults)
    injection = StuckAt(
        np.array([fault.net_index for fault in cone_faults],
                 dtype=np.intp),
        np.array([fault.stuck_at for fault in cone_faults],
                 dtype=np.uint8),
    )
    n_dirty = len(dirty_faults)
    span = n_dirty + 1
    cone_machines = np.arange(1, span, dtype=np.int64)
    sub_outputs = sub.output_names()
    affected_out_rows = np.array(
        [i for i, name in enumerate(sub_outputs)
         if name in retained_affected],
        dtype=np.intp,
    )
    sub_flop_names = [
        gate.node_name for gate in sub.sequential_gates()
    ]
    affected_flop_rows = np.array(
        [i for i, name in enumerate(sub_flop_names)
         if name in affected_flop_set],
        dtype=np.intp,
    )
    compiled = (
        sub_spec.compile(sub)
        if isinstance(sub_spec, ObservationSpec) else None
    )
    engine = BitParallelSimulator(sub)
    remapped = _remap_workloads(sub, workloads)

    n_workloads = len(workloads)
    error_cycles = np.zeros((n_workloads, n_dirty), dtype=np.int64)
    detection = np.full((n_workloads, n_dirty), -1, dtype=np.int64)
    latent = np.zeros((n_workloads, n_dirty), dtype=bool)

    # Workloads of one cycle count pack into a single bit-parallel pass
    # (per-workload golden lanes), so each gate statement of a cycle
    # runs once per group, not once per workload.  Empty row selections reduce to
    # all-zero words, i.e. no contribution.
    for rows in cycle_groups(remapped):
        packed = engine.run_pass(
            [remapped[row] for row in rows], injection,
            observation=compiled, trace=True,
        ).trace
        out_union = np.bitwise_or.reduce(
            packed.output_diff[:, affected_out_rows, :], axis=1
        )
        end_union = np.bitwise_or.reduce(
            packed.flop_end_diff[affected_flop_rows], axis=0
        )
        for position, row in enumerate(rows):
            base_out = traces.output_diff[row]
            if base_out.shape[0] != remapped[row].cycles:
                raise EcoError(
                    f"ECO trace sidecar cycle count for workload "
                    f"{remapped[row].name!r} differs from the given suite"
                )
            lanes = position * span + cone_machines
            clean_bits = _machine_bits(
                np.bitwise_or.reduce(base_out[:, clean_out_rows, :],
                                     axis=1),
                base_machines,
            )
            clean_bits[:, ~has_lane] = False
            union = clean_bits | _machine_bits(out_union, lanes)
            error_cycles[row] = union.sum(axis=0, dtype=np.int64)
            ever = union.any(axis=0)
            detection[row] = np.where(
                ever, union.argmax(axis=0), -1
            )

            clean_corrupt = _machine_bits(
                np.bitwise_or.reduce(
                    traces.flop_end_diff[row][clean_flop_rows], axis=0
                ),
                base_machines,
            )
            clean_corrupt[~has_lane] = False
            latent[row] = (
                clean_corrupt | _machine_bits(end_union, lanes)
            ) & ~ever

    return CampaignResult(
        netlist_name=new.name,
        faults=list(dirty_faults),
        workload_names=[w.name for w in workloads],
        workload_cycles=np.array(
            [w.cycles for w in workloads], dtype=np.int64
        ),
        error_cycles=error_cycles,
        detection_cycle=detection,
        latent=latent,
        severity=base.severity,
        simulation_seconds=time.perf_counter() - started,
    )


def _validate_base_result(base: CampaignResult, old: Netlist,
                          workloads: Sequence[Workload]) -> None:
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
    from repro.fi.collapse import collapse_faults, expand_shard

    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise EcoError(
            f"base checkpoint directory {directory} has no "
            f"{MANIFEST_NAME} — nothing to reuse"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise EcoError(
            f"base checkpoint manifest {manifest_path} is corrupt: "
            f"{error}"
        ) from error
    stored_fingerprint = manifest.get("fingerprint")

    universe = full_fault_universe(old)
    collapsed = collapse_faults(old, universe)
    candidates = {
        False: universe,
        True: collapsed.representatives,
    }
    matched: Optional[bool] = None
    for collapse_flag, simulated in candidates.items():
        fingerprint = campaign_fingerprint(
            old.name, workloads, simulated, severity_old,
            collapse_flag, observation_key_old,
        )
        if fingerprint == stored_fingerprint:
            matched = collapse_flag
            break
    if matched is None:
        raise EcoError(
            f"base checkpoint directory {directory} belongs to a "
            "different campaign (netlist, workload stimulus, severity, "
            "or observation policy changed) — refusing to merge"
        )

    simulated = candidates[matched]
    store = CheckpointStore(
        directory,
        fingerprint=stored_fingerprint,
        netlist_name=old.name,
        workload_names=[w.name for w in workloads],
        n_faults=len(simulated),
        shard_bounds=[
            (int(lo), int(hi))
            for lo, hi in manifest.get(
                "shards", [[0, len(simulated)]]
            )
        ],
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
            if matched:
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


def _resolve_observation(old: Netlist, new: Netlist, observation):
    """The (shared) observation policy for both designs; refuses when
    the two designs resolve to different registered specs — the cached
    rows were compared under the old policy."""
    from repro.fi.observation import observation_for

    if observation != "auto":
        return observation
    spec_old, spec_new = observation_for(old), observation_for(new)
    if observation_key(spec_old) != observation_key(spec_new):
        raise EcoError(
            f"designs {old.name!r} and {new.name!r} resolve to "
            "different observation policies — cached comparison rows "
            "are not reusable; pass observation= explicitly or run a "
            "full campaign"
        )
    return spec_old


def run_eco_campaign(
    old: Netlist,
    new: Netlist,
    workloads: Sequence[Workload],
    *,
    base: Optional[CampaignResult] = None,
    base_checkpoint_dir: Optional[PathLike] = None,
    base_traces: Optional[EcoTraces] = None,
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
    max_worker_restarts: int = 8,
    heartbeat_interval: float = 5.0,
    poison_threshold: int = 2,
) -> EcoResult:
    """Incremental stuck-at campaign for an edited design.

    Diffs ``old`` against ``new``, computes the dirty region,
    re-simulates only the dirty faults (with the full resilient runner
    feature set: sharding, ``jobs`` fan-out, checkpoint/resume of the
    *dirty* sub-campaign via ``checkpoint_dir``/``resume``), and merges
    with cached rows from exactly one baseline source:

    * ``base`` — an in-memory :class:`CampaignResult` of the *old*
      design over the same ``workloads`` (full stuck-at universe), or
    * ``base_checkpoint_dir`` — a completed PR 1/3-style checkpoint
      store, verified against the old campaign's fingerprint.

    When baseline mismatch traces are available — passed as
    ``base_traces`` or found as ``eco_traces.npz`` inside
    ``base_checkpoint_dir`` (both produced by
    :func:`run_campaign_with_traces`) — the dirty faults are
    re-simulated on the *affected-support cone* only and their rows
    recombined with the baseline's clean-output/clean-flop trace
    contributions.  That path is what delivers the order-of-magnitude
    wall-clock win (the fallback re-simulates the dirty faults on the
    fanout observation cone, which degenerates to the whole design as
    soon as one dirty gate has global fanout); the merged result is
    bitwise identical either way.

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
    from repro.fi.observation import severity_for
    from repro.fi.runner import CampaignRunner, RunnerPolicy

    if (base is None) == (base_checkpoint_dir is None):
        raise EcoError(
            "pass exactly one of base= (in-memory CampaignResult) or "
            "base_checkpoint_dir= (checkpoint store)"
        )
    _check_interfaces(old, new, workloads)
    spec = _resolve_observation(old, new, observation)
    severity_old = (
        severity_for(old, DEFAULT_SEVERITY)
        if severity == "auto" else float(severity)
    )
    severity_new = (
        severity_for(new, DEFAULT_SEVERITY)
        if severity == "auto" else float(severity)
    )

    diff = diff_netlists(old, new)
    region = compute_dirty_region(old, new, diff=diff, observation=spec)

    base_seconds = 0.0
    if base is not None:
        _validate_base_result(base, old, workloads)
        base_seconds = base.simulation_seconds
    else:
        base, base_seconds = _load_base_from_store(
            base_checkpoint_dir, old, workloads, severity_old,
            observation_key(spec),
        )
        if base_traces is None:
            sidecar = Path(base_checkpoint_dir) / ECO_TRACES_NAME
            if sidecar.exists():
                base_traces = EcoTraces.load(sidecar)

    new_universe = (
        list(faults) if faults is not None
        else full_fault_universe(new)
    )
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
        if base_traces is not None:
            dirty_result = _trace_merge_dirty(
                old, new, diff, region, spec, workloads, base,
                base_columns, base_traces, dirty_faults,
                severity_old,
            )
    if dirty_indices and dirty_result is None:
        dirty_faults = [new_universe[i] for i in dirty_indices]
        cone, cone_spec = extract_dirty_cone(
            new, {fault.node_name for fault in dirty_faults}, spec,
        )
        policy = RunnerPolicy(
            timeout=timeout, retries=retries, backoff=backoff,
            checkpoint_dir=checkpoint_dir, resume=resume, jobs=jobs,
            shard_size=shard_size,
            max_worker_restarts=max_worker_restarts,
            heartbeat_interval=heartbeat_interval,
            poison_threshold=poison_threshold,
        )
        runner = CampaignRunner(
            cone,
            _remap_workloads(cone, workloads),
            faults=(
                dirty_faults if cone is new
                else _cone_faults(cone, dirty_faults)
            ),
            observation=cone_spec,
            severity=severity_new,
            collapse=collapse,
            policy=policy,
        )
        dirty_result = runner.run()

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
    from repro.fi.observation import severity_for
    from repro.fi.transient import (
        run_transient_campaign,
        transient_fault_universe,
    )

    _check_interfaces(old, new, workloads)
    spec = _resolve_observation(old, new, observation)
    severity_new = (
        severity_for(new, DEFAULT_SEVERITY)
        if severity == "auto" else float(severity)
    )
    _validate_base_result(base, old, workloads)

    diff = diff_netlists(old, new)
    region = compute_dirty_region(old, new, diff=diff, observation=spec)

    if faults is not None:
        new_universe = list(faults)
    else:
        min_cycles = min(w.cycles for w in workloads)
        new_universe = transient_fault_universe(
            new, min_cycles, injections_per_flop, seed
        )
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
        dirty_result = run_transient_campaign(
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
        base_seconds=base.simulation_seconds,
    )
