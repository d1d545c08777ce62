"""Gate-level netlist data model.

A :class:`Netlist` is the central design representation: a set of named
nets, a set of gate instances (each an instantiation of a library
:class:`~repro.netlist.cells.Cell`), primary inputs and primary outputs.
Netlists are built programmatically (see :mod:`repro.circuits.builder`)
or parsed from structural Verilog (:mod:`repro.netlist.verilog`).

Conventions:

* Every net has exactly one driver: a primary input or a gate output.
* A single implicit clock drives every flip-flop; clock and reset
  distribution is abstracted away, exactly as in the paper's gate-level
  fault model (faults are injected on logic nodes, not the clock tree).
* The paper's graph nodes are *gates*; a gate's canonical node name is
  ``{CELL}_{instance}``, matching Table 2 names such as ``ND2_U393``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.netlist.cells import Cell, FEEDBACK_PORTS, get_cell
from repro.utils.errors import NetlistError

if TYPE_CHECKING:
    from repro.netlist.compiled import CompiledNetlist


def csr_gather(indptr: np.ndarray, indices: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Concatenate the CSR rows selected by ``rows``, in row order.

    The vectorized equivalent of ``np.concatenate([indices[indptr[r]:
    indptr[r + 1]] for r in rows])`` without the per-row Python loop;
    shared by every frontier-BFS and graph-construction hot path.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(0, dtype=indices.dtype)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=indices.dtype)
    # Positions: for each selected row, starts[i] + (0..counts[i]-1).
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    positions = np.arange(total, dtype=np.int64) - offsets
    return indices[np.repeat(starts, counts) + positions]


def _dedup_rows(rows: np.ndarray, values: np.ndarray,
                n_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-pack ``(rows, values)`` pairs, deduplicated per row with
    first-appearance order preserved.

    ``rows`` must be non-decreasing (row-major entry order), which every
    caller guarantees by building entries with :func:`np.repeat`.
    """
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    if rows.size == 0:
        return indptr, np.asarray([], dtype=np.int64)
    key = rows * np.int64(n_rows) + values
    _, first = np.unique(key, return_index=True)
    first.sort()
    kept_rows = rows[first]
    indptr[1:] = np.cumsum(np.bincount(kept_rows, minlength=n_rows))
    return indptr, values[first].astype(np.int64, copy=False)


@dataclass(frozen=True)
class GateArrays:
    """Cached per-gate and per-net attribute arrays for one snapshot.

    One linear pass over the Python ``Gate``/``Net`` objects turns the
    pointer-chasing representation into flat numpy arrays; every
    downstream O(V+E) pass (adjacency packing, levelization, edge and
    feature extraction) then runs vectorized on these instead of
    re-walking Python lists per gate.

    Attributes:
        sequential: ``(n_gates,)`` bool, True for flip-flops.
        inverting: ``(n_gates,)`` bool, True for negating cells.
        output_net: ``(n_gates,)`` driven net index per gate.
        wired_inputs: ``(n_gates,)`` input connection counts with the
            DFFE feedback port excluded (what :meth:`Netlist.fanin_count`
            reports).
        input_indptr / input_nets: CSR of every gate's input pins in
            cell port order (feedback pins included).
        net_driver: ``(n_nets,)`` driving gate index, ``-1`` for PIs.
        sink_indptr / sink_gates: CSR of each net's reader gates in
            sink-list order (one entry per connection, duplicates kept).
    """

    sequential: np.ndarray
    inverting: np.ndarray
    output_net: np.ndarray
    wired_inputs: np.ndarray
    input_indptr: np.ndarray
    input_nets: np.ndarray
    net_driver: np.ndarray
    sink_indptr: np.ndarray
    sink_gates: np.ndarray

    def input_rows(self, gate_indices: np.ndarray) -> np.ndarray:
        """Concatenated input-pin nets of the selected gates."""
        return csr_gather(self.input_indptr, self.input_nets, gate_indices)

    def sink_rows(self, net_indices: np.ndarray) -> np.ndarray:
        """Concatenated reader gates of the selected nets."""
        return csr_gather(self.sink_indptr, self.sink_gates, net_indices)


@dataclass(frozen=True)
class GateAdjacency:
    """Cached CSR gate-to-gate connectivity for one netlist snapshot.

    Both directions preserve the ordering semantics of the list-based
    :meth:`Netlist.fanout_gates` / :meth:`Netlist.fanin_gates` (distinct
    gates, self-feedback excluded; fanout in sink first-appearance
    order, fanin in port order), so graph construction stays bitwise
    stable.  ``fanin_connections`` / ``fanout_connections`` mirror
    :meth:`Netlist.fanin_count` / :meth:`Netlist.fanout_count` — they
    count *connections* (including primary-output ports and duplicate
    sink ports), not distinct neighbour gates.

    Attributes:
        fanout_indptr: ``(n_gates + 1,)`` int64 row pointers.
        fanout_indices: Reader-gate indices, CSR-packed.
        fanin_indptr: ``(n_gates + 1,)`` int64 row pointers.
        fanin_indices: Driver-gate indices, CSR-packed.
        fanin_connections: ``(n_gates,)`` wired-input counts.
        fanout_connections: ``(n_gates,)`` sink + PO-port counts.
    """

    fanout_indptr: np.ndarray
    fanout_indices: np.ndarray
    fanin_indptr: np.ndarray
    fanin_indices: np.ndarray
    fanin_connections: np.ndarray
    fanout_connections: np.ndarray

    def fanout_row(self, gate_index: int) -> np.ndarray:
        start, end = self.fanout_indptr[gate_index:gate_index + 2]
        return self.fanout_indices[start:end]

    def fanin_row(self, gate_index: int) -> np.ndarray:
        start, end = self.fanin_indptr[gate_index:gate_index + 2]
        return self.fanin_indices[start:end]

    def fanout_rows(self, gate_indices: np.ndarray) -> np.ndarray:
        """Concatenated fanout rows of the selected gates."""
        return csr_gather(self.fanout_indptr, self.fanout_indices,
                          gate_indices)

    def fanin_rows(self, gate_indices: np.ndarray) -> np.ndarray:
        """Concatenated fanin rows of the selected gates."""
        return csr_gather(self.fanin_indptr, self.fanin_indices,
                          gate_indices)


@dataclass
class Net:
    """A single-bit wire.

    Attributes:
        index: Dense integer id, stable for array-based simulation.
        name: Unique net name.
        driver: Index of the driving gate, or ``None`` for primary inputs.
        sinks: ``(gate_index, port_position)`` pairs reading this net.
    """

    index: int
    name: str
    driver: Optional[int] = None
    sinks: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_primary_input(self) -> bool:
        return self.driver is None


@dataclass
class Gate:
    """One instantiated library cell.

    Attributes:
        index: Dense integer id.
        instance: Instance name, e.g. ``"U393"``.
        cell: The library cell.
        inputs: Net indices in cell port order.
        output: Net index driven by this gate.
    """

    index: int
    instance: str
    cell: Cell
    inputs: Tuple[int, ...]
    output: int

    @property
    def node_name(self) -> str:
        """Canonical graph-node name, ``{CELL}_{instance}``."""
        return f"{self.cell.name}_{self.instance}"

    @property
    def is_sequential(self) -> bool:
        return self.cell.sequential


class Netlist:
    """A mutable gate-level design.

    >>> design = Netlist("demo")
    >>> a = design.add_input("a")
    >>> b = design.add_input("b")
    >>> y = design.add_gate("ND2", [a, b])
    >>> design.add_output(y, "y")
    >>> design.n_gates, design.n_nets
    (1, 3)
    """

    def __init__(self, name: str):
        self.name = name
        self.nets: List[Net] = []
        self.gates: List[Gate] = []
        self._net_by_name: Dict[str, int] = {}
        self._gate_by_instance: Dict[str, int] = {}
        self.primary_inputs: List[int] = []
        #: (net_index, port_name) pairs; one net may feed several outputs.
        self.primary_outputs: List[Tuple[int, str]] = []
        self._output_ports: set = set()
        self._instance_counter = 0
        self._levels_cache: Optional[List[int]] = None
        self._adjacency_cache: Optional[GateAdjacency] = None
        self._arrays_cache: Optional[GateArrays] = None
        self._input_nets_cache: Optional[List[int]] = None
        self._compiled_cache: Optional[CompiledNetlist] = None
        self._bulk_depth = 0
        self._structure_dirty = False

    def invalidate_structure(self) -> None:
        """Drop connectivity-derived caches after a mutation.

        Every code path that edits nets, gate pins, gate cells, or
        primary outputs must call this (construction helpers do so
        automatically); the levelization, CSR adjacency,
        attribute-array and compiled-evaluator caches are rebuilt
        lazily on next use.  Inside a :meth:`building` block the
        drop is deferred: construction helpers may call this once per
        gate, so bulk construction marks the caches dirty in O(1) and
        clears them when the block exits (or on the next cached read).
        """
        if self._bulk_depth:
            self._structure_dirty = True
            return
        self._clear_caches()

    def _clear_caches(self) -> None:
        self._levels_cache = None
        self._adjacency_cache = None
        self._arrays_cache = None
        self._input_nets_cache = None
        self._compiled_cache = None

    def _flush_dirty(self) -> None:
        """Apply a deferred invalidation before serving a cached read."""
        if self._structure_dirty:
            self._structure_dirty = False
            self._clear_caches()

    @contextmanager
    def building(self):
        """Bulk-construction mode: defer cache invalidation.

        Wrap loops that add many gates (parsers, generators,
        :class:`~repro.circuits.builder.CircuitBuilder` programs) so the
        per-gate ``invalidate_structure`` calls collapse into a single
        deferred drop.  Nests safely; cached reads issued inside the
        block still see fresh data because every cache accessor flushes
        the dirty flag first.
        """
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                self._flush_dirty()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_net(self, name: str) -> int:
        if name in self._net_by_name:
            raise NetlistError(f"duplicate net name {name!r}")
        index = len(self.nets)
        self.nets.append(Net(index=index, name=name))
        self._net_by_name[name] = index
        self.invalidate_structure()
        return index

    def add_input(self, name: str) -> int:
        """Declare a primary input and return its net index."""
        return self._new_net(name)

    def add_output(self, net: int, name: Optional[str] = None) -> None:
        """Mark ``net`` as a primary output, optionally naming the port."""
        self._check_net(net)
        port = name if name is not None else self.nets[net].name
        # Set-based duplicate check: bulk output declaration (wide output
        # buses, auto-exported dangling nets) stays O(1) per port.
        if port in self._output_ports:
            raise NetlistError(f"duplicate output port {port!r}")
        self._output_ports.add(port)
        self.primary_outputs.append((net, port))
        # Fanout connection counts include PO ports.
        self._adjacency_cache = None

    def _fresh_instance(self) -> str:
        while True:
            self._instance_counter += 1
            candidate = f"U{self._instance_counter}"
            if candidate not in self._gate_by_instance:
                return candidate

    def add_gate(
        self,
        cell_name: str,
        inputs: Sequence[int],
        instance: Optional[str] = None,
        output_name: Optional[str] = None,
    ) -> int:
        """Instantiate ``cell_name`` and return the output net index.

        ``inputs`` are net indices in cell port order.  For cells with a
        feedback port (``DFFE``), omit the feedback input: it is wired to
        the gate's own output automatically.
        """
        cell = get_cell(cell_name)
        feedback_port = FEEDBACK_PORTS.get(cell_name)
        expected = cell.n_inputs - (1 if feedback_port else 0)
        if len(inputs) != expected:
            raise NetlistError(
                f"cell {cell_name} expects {expected} wired inputs, "
                f"got {len(inputs)}"
            )
        for net in inputs:
            self._check_net(net)

        if instance is None:
            instance = self._fresh_instance()
        if instance in self._gate_by_instance:
            raise NetlistError(f"duplicate instance name {instance!r}")

        gate_index = len(self.gates)
        output_net = self._new_net(
            output_name if output_name is not None else f"n_{instance}"
        )
        self.nets[output_net].driver = gate_index

        wired = list(inputs)
        if feedback_port:
            # Feedback port is declared last in the cell port list.
            wired.append(output_net)

        gate = Gate(
            index=gate_index,
            instance=instance,
            cell=cell,
            inputs=tuple(wired),
            output=output_net,
        )
        self.gates.append(gate)
        self._gate_by_instance[instance] = gate_index
        for position, net in enumerate(gate.inputs):
            self.nets[net].sinks.append((gate_index, position))
        self.invalidate_structure()
        return output_net

    def attach_gate(
        self,
        cell_name: str,
        inputs: Sequence[int],
        output: int,
        instance: str,
    ) -> int:
        """Instantiate ``cell_name`` driving the *existing* net ``output``.

        The second phase of two-phase sequential construction: state
        nets are created first so combinational logic may reference them
        freely, then the flip-flops that drive them are attached.  Used
        by the Verilog parser and :meth:`from_gates`.
        """
        cell = get_cell(cell_name)
        feedback_port = FEEDBACK_PORTS.get(cell_name)
        expected = cell.n_inputs - (1 if feedback_port else 0)
        if len(inputs) != expected:
            raise NetlistError(
                f"cell {cell_name} expects {expected} wired inputs, "
                f"got {len(inputs)}"
            )
        for net in inputs:
            self._check_net(net)
        self._check_net(output)
        if self.nets[output].driver is not None:
            raise NetlistError(
                f"net {self.nets[output].name!r} has two drivers"
            )
        if instance in self._gate_by_instance:
            raise NetlistError(f"duplicate instance name {instance!r}")

        gate_index = len(self.gates)
        wired = list(inputs)
        if feedback_port:
            wired.append(output)
        gate = Gate(
            index=gate_index,
            instance=instance,
            cell=cell,
            inputs=tuple(wired),
            output=output,
        )
        self.gates.append(gate)
        self._gate_by_instance[instance] = gate_index
        self.nets[output].driver = gate_index
        for position, net in enumerate(gate.inputs):
            self.nets[net].sinks.append((gate_index, position))
        self.invalidate_structure()
        return output

    @classmethod
    def from_gates(
        cls,
        name: str,
        inputs: Sequence[str],
        gates: Sequence[Tuple[str, str, Sequence[str], str]],
        outputs: Sequence[Tuple[str, str]] = (),
    ) -> "Netlist":
        """Bulk-construct a netlist from name-level gate descriptions.

        The fast path behind the Verilog reader: one
        :meth:`building` block, two linear passes, no per-gate cache
        invalidation.  ``gates`` entries are ``(cell_name, instance,
        input_net_names, output_net_name)`` in final gate-index order;
        ``outputs`` entries are ``(net_name, port_name)``.

        Sequential cells' output nets are created up front (in gate
        order) so combinational logic and flop data pins may reference
        state nets regardless of position; combinational gates create
        their own output net and must therefore appear after the gates
        driving their inputs (topological order for the combinational
        core).  DFFE feedback pins are wired automatically and must be
        omitted from ``input_net_names``.
        """
        netlist = cls(name)
        with netlist.building():
            for input_name in inputs:
                netlist.add_input(input_name)
            for cell_name, _, _, output_name in gates:
                if get_cell(cell_name).sequential:
                    netlist._new_net(output_name)
            for cell_name, instance, input_names, output_name in gates:
                input_nets = [netlist.net_index(n) for n in input_names]
                if get_cell(cell_name).sequential:
                    netlist.attach_gate(
                        cell_name, input_nets,
                        netlist.net_index(output_name), instance,
                    )
                else:
                    netlist.add_gate(
                        cell_name, input_nets, instance=instance,
                        output_name=output_name,
                    )
            for net_name, port in outputs:
                netlist.add_output(netlist.net_index(net_name), port)
        return netlist

    def _check_net(self, net: int) -> None:
        if not 0 <= net < len(self.nets):
            raise NetlistError(f"net index {net} out of range")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def n_nets(self) -> int:
        return len(self.nets)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_inputs(self) -> int:
        return len(self._input_net_list())

    @property
    def n_outputs(self) -> int:
        return len(self.primary_outputs)

    def net_index(self, name: str) -> int:
        """Net index for ``name``; raises NetlistError when unknown."""
        try:
            return self._net_by_name[name]
        except KeyError:
            raise NetlistError(f"unknown net {name!r}") from None

    def gate_by_instance(self, instance: str) -> Gate:
        """Gate for instance name; raises NetlistError when unknown."""
        try:
            return self.gates[self._gate_by_instance[instance]]
        except KeyError:
            raise NetlistError(f"unknown instance {instance!r}") from None

    def gate_by_node_name(self, node_name: str) -> Gate:
        """Gate for a canonical ``{CELL}_{instance}`` node name."""
        cell_name, _, instance = node_name.partition("_")
        gate = self.gate_by_instance(instance)
        if gate.cell.name != cell_name:
            raise NetlistError(
                f"node {node_name!r} names cell {cell_name}, but instance "
                f"{instance} is a {gate.cell.name}"
            )
        return gate

    def _input_net_list(self) -> List[int]:
        """The cached primary-input net list (internal, not a copy).

        Cached because simulators and feature extractors call
        :meth:`input_nets`/:attr:`n_inputs` repeatedly and a fresh
        O(n_nets) scan per call dominates on large designs; dropped by
        :meth:`invalidate_structure` (every net creation and driver
        assignment goes through a path that calls it).
        """
        self._flush_dirty()
        if self._input_nets_cache is None:
            self._input_nets_cache = [
                net.index for net in self.nets if net.is_primary_input
            ]
        return self._input_nets_cache

    def input_nets(self) -> List[int]:
        """Primary-input net indices in declaration order."""
        return list(self._input_net_list())

    def input_names(self) -> List[str]:
        """Primary-input net names in declaration order."""
        return [self.nets[net].name for net in self._input_net_list()]

    def output_names(self) -> List[str]:
        """Primary-output port names in declaration order."""
        return [name for _, name in self.primary_outputs]

    def sequential_gates(self) -> List[Gate]:
        """All flip-flop gates."""
        return [gate for gate in self.gates if gate.is_sequential]

    def combinational_gates(self) -> List[Gate]:
        """All non-flip-flop gates."""
        return [gate for gate in self.gates if not gate.is_sequential]

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}: {self.n_gates} gates, "
            f"{self.n_nets} nets, {self.n_inputs} PIs, "
            f"{self.n_outputs} POs)"
        )

    # ------------------------------------------------------------------
    # structural analysis
    # ------------------------------------------------------------------
    def gate_arrays(self) -> GateArrays:
        """Cached flat attribute arrays (see :class:`GateArrays`).

        Built in one linear pass per structural state and dropped by
        :meth:`invalidate_structure`; the vectorized adjacency,
        levelization, edge, and feature paths all read these instead of
        walking the Python object graph.
        """
        self._flush_dirty()
        if self._arrays_cache is not None:
            return self._arrays_cache

        n_gates, n_nets = self.n_gates, self.n_nets
        sequential: List[bool] = []
        inverting: List[bool] = []
        output_net: List[int] = []
        wired_inputs: List[int] = []
        input_indptr = np.zeros(n_gates + 1, dtype=np.int64)
        input_flat: List[int] = []
        for gate in self.gates:
            cell = gate.cell
            sequential.append(cell.sequential)
            inverting.append(cell.inverting)
            output_net.append(gate.output)
            wired_inputs.append(
                len(gate.inputs) - (1 if cell.name in FEEDBACK_PORTS else 0)
            )
            input_flat.extend(gate.inputs)
            input_indptr[gate.index + 1] = len(input_flat)

        net_driver = np.full(n_nets, -1, dtype=np.int64)
        sink_indptr = np.zeros(n_nets + 1, dtype=np.int64)
        sink_flat: List[int] = []
        for net in self.nets:
            if net.driver is not None:
                net_driver[net.index] = net.driver
            sink_flat.extend(sink_gate for sink_gate, _ in net.sinks)
            sink_indptr[net.index + 1] = len(sink_flat)

        self._arrays_cache = GateArrays(
            sequential=np.asarray(sequential, dtype=bool),
            inverting=np.asarray(inverting, dtype=bool),
            output_net=np.asarray(output_net, dtype=np.int64),
            wired_inputs=np.asarray(wired_inputs, dtype=np.int64),
            input_indptr=input_indptr,
            input_nets=np.asarray(input_flat, dtype=np.int64),
            net_driver=net_driver,
            sink_indptr=sink_indptr,
            sink_gates=np.asarray(sink_flat, dtype=np.int64),
        )
        return self._arrays_cache

    def levelize(self) -> List[int]:
        """Topological level per gate.

        Flip-flops sit at level 0 (their outputs behave like primary
        inputs within a cycle); a combinational gate with combinational
        drivers sits one level above the deepest of them, and a gate
        fed only by primary inputs or flops sits at level 0.  Raises
        :class:`NetlistError` on a combinational loop.

        Computed as a level-synchronous Kahn frontier BFS over the
        cached CSR arrays — O(V+E) with vectorized per-level work, so
        deep combinational chains levelize in linear time.
        """
        self._flush_dirty()
        if self._levels_cache is not None:
            return list(self._levels_cache)

        n_gates = self.n_gates
        arrays = self.gate_arrays()
        combinational = ~arrays.sequential

        # Pending count per gate: input pins of combinational gates
        # whose driver is a combinational gate (duplicate connections
        # count once per pin, matching one decrement per sink entry).
        pin_gate = np.repeat(
            np.arange(n_gates, dtype=np.int64),
            np.diff(arrays.input_indptr),
        )
        pin_driver = arrays.net_driver[arrays.input_nets]
        driven = pin_driver >= 0
        contributes = np.zeros(pin_gate.shape, dtype=bool)
        contributes[driven] = (
            combinational[pin_driver[driven]]
            & combinational[pin_gate[driven]]
        )
        pending = np.bincount(
            pin_gate[contributes], minlength=n_gates
        ).astype(np.int64)

        levels = np.zeros(n_gates, dtype=np.int64)
        done = arrays.sequential.copy()
        frontier = np.flatnonzero(combinational & (pending == 0))
        done[frontier] = True
        level = 0
        while frontier.size:
            # One decrement per sink connection of the frontier's
            # output nets; newly-exhausted gates sit one level deeper.
            sinks = arrays.sink_rows(arrays.output_net[frontier])
            if sinks.size:
                sinks = sinks[combinational[sinks]]
            decrement = np.bincount(sinks, minlength=n_gates)
            pending -= decrement
            newly = np.flatnonzero(
                (decrement > 0) & (pending == 0) & ~done
            )
            level += 1
            levels[newly] = level
            done[newly] = True
            frontier = newly

        if not bool(done.all()):
            stuck = [
                self.gates[i].node_name
                for i in np.flatnonzero(~done)
            ]
            raise NetlistError(
                f"combinational loop involving gates: {stuck[:8]}"
            )
        self._levels_cache = levels.tolist()
        return list(self._levels_cache)

    def topological_order(self) -> List[int]:
        """Gate indices sorted so combinational drivers precede sinks."""
        levels = np.asarray(self.levelize(), dtype=np.int64)
        order = np.lexsort(
            (np.arange(self.n_gates, dtype=np.int64), levels)
        )
        return order.tolist()

    def compiled(self) -> CompiledNetlist:
        """The straight-line bit-parallel evaluator of this netlist
        (:mod:`repro.netlist.compiled`), compiled on first use and
        cached until :meth:`invalidate_structure`."""
        self._flush_dirty()
        if self._compiled_cache is None:
            from repro.netlist.compiled import compile_netlist

            self._compiled_cache = compile_netlist(self)
        return self._compiled_cache

    def depth(self) -> int:
        """Maximum combinational level in the design."""
        levels = self.levelize()
        return max(levels) if levels else 0

    def gate_adjacency(self) -> GateAdjacency:
        """Cached CSR fanin/fanout gate adjacency.

        Built once per structural state and dropped by
        :meth:`invalidate_structure`; all hot connectivity paths
        (feature extraction, cone BFS, graph construction) share it
        instead of re-scanning Python sink lists per call.
        """
        self._flush_dirty()
        if self._adjacency_cache is not None:
            return self._adjacency_cache

        n = self.n_gates
        arrays = self.gate_arrays()

        # Fanin: one candidate edge per wired input pin, in port order;
        # drop undriven pins and self-loops (DFFE feedback), then dedup
        # keeping first appearance per gate.
        pin_gate = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(arrays.input_indptr)
        )
        pin_driver = arrays.net_driver[arrays.input_nets]
        keep = (pin_driver >= 0) & (pin_driver != pin_gate)
        fanin_indptr, fanin_indices = _dedup_rows(
            pin_gate[keep], pin_driver[keep], n
        )
        fanin_connections = arrays.wired_inputs.copy()

        # Fanout: one candidate edge per sink connection of each gate's
        # output net, in sink-list order (rewiring can reorder sink
        # lists, so CSR order must follow the lists, not gate index).
        sink_counts = np.diff(arrays.sink_indptr)
        out_rows = np.repeat(
            np.arange(n, dtype=np.int64), sink_counts[arrays.output_net]
        )
        out_sinks = arrays.sink_rows(arrays.output_net)
        keep = out_sinks != out_rows
        po_ports = np.zeros(self.n_nets, dtype=np.int64)
        if self.primary_outputs:
            po_nets = np.asarray(
                [net for net, _ in self.primary_outputs], dtype=np.int64
            )
            po_ports = np.bincount(
                po_nets, minlength=self.n_nets
            ).astype(np.int64)
        fanout_connections = (
            np.bincount(out_rows[keep], minlength=n).astype(np.int64)
            + po_ports[arrays.output_net]
        )
        fanout_indptr, fanout_indices = _dedup_rows(
            out_rows[keep], out_sinks[keep], n
        )
        self._adjacency_cache = GateAdjacency(
            fanout_indptr=fanout_indptr,
            fanout_indices=fanout_indices,
            fanin_indptr=fanin_indptr,
            fanin_indices=fanin_indices,
            fanin_connections=fanin_connections,
            fanout_connections=fanout_connections,
        )
        return self._adjacency_cache

    def fanin_count(self, gate: Gate) -> int:
        """Number of wired input connections of ``gate`` (feedback port
        of DFFE excluded, matching what a designer would count)."""
        feedback = FEEDBACK_PORTS.get(gate.cell.name)
        n = len(gate.inputs)
        return n - 1 if feedback else n

    def fanout_count(self, gate: Gate) -> int:
        """Number of sink connections on the gate's output net, plus one
        per primary-output port it drives.  Self-feedback (DFFE) is not
        counted."""
        return int(
            self.gate_adjacency().fanout_connections[gate.index]
        )

    def fanout_gates(self, gate: Gate) -> List[int]:
        """Indices of distinct gates reading ``gate``'s output."""
        return self.gate_adjacency().fanout_row(gate.index).tolist()

    def fanin_gates(self, gate: Gate) -> List[int]:
        """Indices of distinct gates driving ``gate``'s inputs."""
        return self.gate_adjacency().fanin_row(gate.index).tolist()

    def node_names(self) -> List[str]:
        """Canonical node names for all gates, in gate-index order."""
        return [gate.node_name for gate in self.gates]
