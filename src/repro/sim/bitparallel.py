"""64-way bit-parallel logic simulation engine.

This is the performance core of the fault-injection substrate (the
stand-in for the paper's Cadence Xcelium campaigns).  Net values are
``numpy.uint64`` words: bit *b* of word *w* carries the value seen by
*lane* ``64*w + b``.  A fault pass (:meth:`BitParallelSimulator.run_pass`)
lays its lanes out workload-major: each workload owns one contiguous
span holding its own fault-free golden machine followed by one lane per
fault.  A whole fault universe — and, with uniform cycle counts, a
whole workload suite — therefore simulates in a single pass, with every
gate evaluation a handful of vectorized numpy operations.

The pass has three parts:

* the *lane layout* (:class:`_LaneLayout`): which lane belongs to which
  workload span and fault, and how a per-span bit spreads over packed
  words;
* the *injector* (:class:`StuckAt` or :class:`Upset`): permanent
  force/clear masks, or a per-cycle flip schedule on flop outputs;
* the *sink*: a :class:`MismatchAccumulator` always, plus a
  :class:`PassTrace` of gated per-output mismatch words when asked for.

The schedule is levelized and type-grouped: gates of the same cell type
on the same topological level evaluate together as one gather/compute/
scatter step.

The inner loop is allocation-light on the hot path: per-word-width
scratch buffers (gathers, output rows, mismatch masks) are built once
and reused across cycles, constant-cell outputs are evaluated once per
pass, fault forcing masks are gathered per group once per pass,
stimulus is spread from per-span bits to lane words one cycle at a time
(so a pass never holds a cycles x inputs x words array), and per-lane
error-cycle counts accumulate by popcounting chunks of packed mismatch
words instead of unpacking every mismatch cycle.

Every numpy dispatch of a cycle is paid once per pass, however many
lanes it carries, so callers pack workloads of one cycle count into one
pass (:func:`cycle_groups`): golden statistics run one lane per
workload, fault campaigns one span per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.cells import Cell
from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload
from repro.utils.errors import SimulationError

ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Mismatch rows buffered between popcount flushes (64 words * 8 bytes
#: per row keeps the buffer a few hundred KiB even for huge universes).
MISMATCH_CHUNK = 256


@dataclass
class PassTrace:
    """Optional per-pass mismatch traces for incremental (ECO) reuse.

    ``output_diff[c, o]`` holds the packed golden-vs-faulty mismatch
    words of output *o* on cycle *c* **after strobe gating** (zero on
    cycles where the output's strobe is inactive), so any subset union
    of outputs reproduces the engine's own mismatch accounting bit for
    bit.  ``flop_end_diff[q]`` holds the end-of-run state-corruption
    words of flop *q* (the inputs to the latent classification).  Lanes
    follow the pass's layout; golden and unused tail lanes are zero.
    """

    output_diff: np.ndarray    # uint64 (cycles, n_outputs, n_words)
    flop_end_diff: np.ndarray  # uint64 (n_flops, n_words)

    @classmethod
    def allocate(cls, cycles: int, n_outputs: int, n_flops: int,
                 n_words: int) -> "PassTrace":
        return cls(
            output_diff=np.zeros(
                (cycles, n_outputs, n_words), dtype=np.uint64
            ),
            flop_end_diff=np.zeros(
                (n_flops, n_words), dtype=np.uint64
            ),
        )


@dataclass
class PassResult:
    """Outcome of one :meth:`BitParallelSimulator.run_pass`.

    Every array is indexed ``[workload, fault]``: the count of cycles
    with a functional output mismatch, the first mismatch cycle (-1
    when never), and end-of-run state corruption for faults that never
    reached an output.  ``trace`` is set only for traced passes.
    """

    error_cycles: np.ndarray     # int64 (n_workloads, n_faults)
    detection_cycle: np.ndarray  # int64 (n_workloads, n_faults)
    latent: np.ndarray           # bool (n_workloads, n_faults)
    trace: Optional[PassTrace] = None

    def row(self, workload: int
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One workload's ``(error_cycles, detection_cycle, latent)``."""
        return (self.error_cycles[workload],
                self.detection_cycle[workload], self.latent[workload])


@dataclass
class GoldenStats:
    """Per-net activity profile accumulated over golden simulations.

    Drives the paper's probability features: ``P(net == 1)`` is
    ``ones_count / cycles`` and the transition probability is
    ``transition_count / (cycles - n_workloads)`` (the first cycle of
    each workload has no predecessor).
    """

    net_names: List[str]
    ones_count: np.ndarray        # int64 per net
    transition_count: np.ndarray  # int64 per net
    cycles: int
    workloads: int

    @property
    def state_probability_one(self) -> np.ndarray:
        """P(net == 1) per net."""
        if self.cycles == 0:
            return np.zeros(len(self.net_names))
        return self.ones_count / self.cycles

    @property
    def state_probability_zero(self) -> np.ndarray:
        """P(net == 0) per net."""
        return 1.0 - self.state_probability_one

    @property
    def transition_probability(self) -> np.ndarray:
        """P(net value changes between consecutive cycles), per net."""
        denominator = self.cycles - self.workloads
        if denominator <= 0:
            return np.zeros(len(self.net_names))
        return self.transition_count / denominator


class _PassScratch:
    """Reusable per-word-width buffers for one simulator.

    Everything here depends only on the schedule and the machine-word
    count ``n_words``, so a scratch set is built once per width and
    reused by every cycle of every pass at that width (the campaign
    runner replays many workloads against same-sized shards).
    """

    def __init__(self, sim: "BitParallelSimulator", n_words: int):
        self.n_words = n_words
        self.comb_gather: List[Optional[np.ndarray]] = []
        self.const_out: List[Optional[np.ndarray]] = []
        for cell, out_idx, in_idx in sim._comb_groups:
            if in_idx.shape[1] == 0:
                self.comb_gather.append(None)
                constant = cell.function([], ONES)
                self.const_out.append(np.full(
                    (len(out_idx), n_words), constant, dtype=np.uint64,
                ))
            else:
                self.comb_gather.append(np.empty(
                    in_idx.shape + (n_words,), dtype=np.uint64,
                ))
                self.const_out.append(None)
        self.flop_gather: List[np.ndarray] = [
            np.empty(in_idx.shape + (n_words,), dtype=np.uint64)
            for _, _, in_idx in sim._flop_groups
        ]
        n_outputs = len(sim._po_idx)
        self.po = np.empty((n_outputs, n_words), dtype=np.uint64)
        self.diff = np.empty((n_outputs, n_words), dtype=np.uint64)
        self.mismatch = np.empty(n_words, dtype=np.uint64)


class _FaultMasks:
    """Per-pass fault forcing, pre-gathered per schedule group.

    The packed ``clear``/``force`` matrices are constant over a pass, so
    the per-group rows the inner loop needs are gathered once here —
    groups with no faulted output skip masking entirely (``None``), and
    constant cells collapse to a single pre-masked output array.
    """

    def __init__(self, sim: "BitParallelSimulator", clear: np.ndarray,
                 force: np.ndarray, scratch: _PassScratch):
        self.comb: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        self.const_out: List[Optional[np.ndarray]] = []
        for index, (_, out_idx, in_idx) in enumerate(sim._comb_groups):
            rows = clear[out_idx]
            masked = (rows.any(), np.bitwise_not(rows), force[out_idx])
            if in_idx.shape[1] == 0:
                base = scratch.const_out[index]
                self.const_out.append(
                    (base & masked[1]) | masked[2]
                    if masked[0] else base
                )
                self.comb.append(None)
            else:
                self.const_out.append(None)
                self.comb.append(
                    (masked[1], masked[2]) if masked[0] else None
                )
        self.flops: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        for _, out_idx, _ in sim._flop_groups:
            rows = clear[out_idx]
            self.flops.append(
                (np.bitwise_not(rows), force[out_idx])
                if rows.any() else None
            )


class _LaneLayout:
    """Workload-major lane layout of one pass.

    Workload *w* owns the contiguous span of lanes
    ``[w*span, (w+1)*span)`` with ``span = n_faults + 1``: its golden
    machine at the span start, then one lane per fault in fault order.
    Stimulus, golden comparison and strobe gating are all per span; a
    single workload is simply the one-span case.
    """

    def __init__(self, n_spans: int, n_faults: int):
        self.n_spans = n_spans
        self.span = n_faults + 1
        self.n_lanes = n_spans * self.span
        self.n_words = (self.n_lanes + 63) // 64
        lanes = np.arange(self.n_lanes)
        lane_bits = np.zeros((n_spans, self.n_words * 64), dtype=np.uint8)
        lane_bits[lanes // self.span, lanes] = 1
        #: ``span_masks[w]`` covers span *w*'s lanes; ``valid`` is their
        #: union, zeroing the unused tail of the last word.
        self.span_masks = np.packbits(
            lane_bits, axis=1, bitorder="little"
        ).view(np.uint64)
        self.valid = np.bitwise_or.reduce(self.span_masks, axis=0)
        golden = lanes[::self.span]
        self._golden_word = golden >> 6
        self._golden_bit = np.uint64(1) << (golden & 63).astype(np.uint64)
        faults = lanes.reshape(n_spans, self.span)[:, 1:].ravel()
        #: Word index and bit mask of each fault lane, workload-major.
        self.fault_word = faults >> 6
        self.fault_bit = np.uint64(1) << (faults & 63).astype(np.uint64)

    def golden(self, rows: np.ndarray) -> np.ndarray:
        """Each span's golden bit of every row: bool (rows, n_spans)."""
        return (rows[:, self._golden_word] & self._golden_bit) != 0

    def spread(self, bits: np.ndarray) -> np.ndarray:
        """Fill every span's lanes with its bit: bool ``(..., n_spans)``
        to packed uint64 ``(..., n_words)`` (spans are disjoint, so the
        product is their union)."""
        return bits.astype(np.uint64) @ self.span_masks

    def golden_diff(self, rows: np.ndarray) -> np.ndarray:
        """Per-lane difference of ``rows`` from each span's golden."""
        return (rows ^ self.spread(self.golden(rows))) & self.valid

    def faults(self, per_lane: np.ndarray) -> np.ndarray:
        """A per-lane vector as a ``(n_spans, n_faults)`` view."""
        return per_lane[:self.n_lanes].reshape(
            self.n_spans, self.span
        )[:, 1:]

    def goldens(self, per_lane: np.ndarray) -> np.ndarray:
        """A per-lane vector's golden-lane entries, one per span."""
        return per_lane[:self.n_lanes:self.span]


#: What an injector hands the kernel: fault masks for the settle and
#: commit steps (or ``None``), the initial net values, and the per-cycle
#: flip schedule ``{cycle: (nets, words, bit masks)}``.
_Armed = Tuple[Optional[_FaultMasks], np.ndarray,
               Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]]


@dataclass(frozen=True)
class StuckAt:
    """Permanent stuck-at faults: fault *f* forces net ``nets[f]`` (the
    faulted gate's output) to ``values[f]`` (0/1) from cycle 0 on."""

    nets: np.ndarray
    values: np.ndarray

    def arm(self, sim: "BitParallelSimulator", layout: _LaneLayout,
            n_cycles: int) -> _Armed:
        nets = np.tile(np.asarray(self.nets, dtype=np.intp),
                       layout.n_spans)
        stuck_one = np.tile(np.asarray(self.values).astype(bool),
                            layout.n_spans)
        shape = (sim.netlist.n_nets, layout.n_words)
        clear = np.zeros(shape, dtype=np.uint64)
        force = np.zeros(shape, dtype=np.uint64)
        np.bitwise_or.at(clear, (nets, layout.fault_word),
                         layout.fault_bit)
        np.bitwise_or.at(
            force,
            (nets[stuck_one], layout.fault_word[stuck_one]),
            layout.fault_bit[stuck_one],
        )
        masks = _FaultMasks(sim, clear, force,
                            sim._scratch(layout.n_words))
        # The stuck value holds from t=0: faulty nets (notably flop
        # outputs, whose forcing is otherwise applied at commit time)
        # start at their forced state rather than the reset state.
        return masks, force.copy(), {}


@dataclass(frozen=True)
class Upset:
    """Single-event upsets: fault *f* inverts flip-flop output net
    ``nets[f]`` at the start of cycle ``cycles[f]`` — the standard SEU
    model (soft errors strike state elements; combinational glitches
    are filtered unless captured)."""

    nets: np.ndarray
    cycles: np.ndarray

    def arm(self, sim: "BitParallelSimulator", layout: _LaneLayout,
            n_cycles: int) -> _Armed:
        if not np.isin(self.nets, sim._flop_out_idx).all():
            raise SimulationError(
                "transient faults target flip-flop outputs only"
            )
        cycles = np.asarray(self.cycles, dtype=np.int64)
        outside = (cycles < 0) | (cycles >= n_cycles)
        if outside.any():
            raise SimulationError(
                f"injection cycle {int(cycles[outside][0])} outside "
                "the workload"
            )
        nets = np.tile(np.asarray(self.nets, dtype=np.intp),
                       layout.n_spans)
        cycles = np.tile(cycles, layout.n_spans)
        flips = {}
        for cycle in np.unique(cycles):
            at = cycles == cycle
            flips[int(cycle)] = (nets[at], layout.fault_word[at],
                                 layout.fault_bit[at])
        values = np.zeros((sim.netlist.n_nets, layout.n_words),
                          dtype=np.uint64)
        return None, values, flips


class MismatchAccumulator:
    """Streaming golden-vs-faulty mismatch accounting, per lane.

    Per-cycle packed mismatch masks are buffered and *popcounted in
    chunks* (one ``unpackbits`` + column sum per :data:`MISMATCH_CHUNK`
    mismatch cycles) instead of being expanded to a boolean lane vector
    on every mismatch cycle, and first-detection cycles are scattered
    with one vectorized assignment per cycle rather than a per-lane
    Python loop.  Every per-lane array spans all ``64 * n_words`` lanes;
    the pass's layout slices out the fault lanes.
    """

    def __init__(self, n_words: int):
        self.seen = np.zeros(n_words, dtype=np.uint64)
        self.detection_cycle = np.full(n_words * 64, -1, dtype=np.int64)
        self._counts = np.zeros(n_words * 64, dtype=np.int64)
        self._chunk = np.zeros((MISMATCH_CHUNK, n_words),
                               dtype=np.uint64)
        self._fill = 0
        self._new = np.empty(n_words, dtype=np.uint64)

    def record(self, mismatch: np.ndarray, cycle: int) -> None:
        """Account one cycle's packed mismatch mask."""
        if not mismatch.any():
            return
        if self._fill == MISMATCH_CHUNK:
            self._flush()
        self._chunk[self._fill] = mismatch
        self._fill += 1

        new = self._new
        np.bitwise_not(self.seen, out=new)
        np.bitwise_and(mismatch, new, out=new)
        if new.any():
            np.bitwise_or(self.seen, mismatch, out=self.seen)
            self.detection_cycle[_lane_flags(new)] = cycle

    def _flush(self) -> None:
        if not self._fill:
            return
        bits = np.unpackbits(
            self._chunk[: self._fill].view(np.uint8),
            axis=1, bitorder="little",
        )
        self._counts += bits.sum(axis=0, dtype=np.int64)
        self._fill = 0

    def error_cycles(self) -> np.ndarray:
        """Per-lane count of mismatch cycles (flushes the chunk)."""
        self._flush()
        return self._counts

    def observed(self) -> np.ndarray:
        """Per-lane flags: at least one mismatch cycle ever occurred."""
        return _lane_flags(self.seen)


class BitParallelSimulator:
    """Levelized, type-grouped, machine-parallel simulator."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._build_schedule()
        self._scratch_cache: Dict[int, _PassScratch] = {}

    # ------------------------------------------------------------------
    # schedule construction
    # ------------------------------------------------------------------
    def _build_schedule(self) -> None:
        netlist = self.netlist
        levels = netlist.levelize()

        grouped: Dict[Tuple[int, str], List[int]] = {}
        for gate in netlist.gates:
            if gate.is_sequential:
                continue
            grouped.setdefault(
                (levels[gate.index], gate.cell.name), []
            ).append(gate.index)

        self._comb_groups: List[Tuple[Cell, np.ndarray, np.ndarray]] = []
        for (_, _), gate_indices in sorted(grouped.items()):
            first = netlist.gates[gate_indices[0]]
            out_idx = np.array(
                [netlist.gates[i].output for i in gate_indices],
                dtype=np.intp,
            )
            in_idx = np.array(
                [netlist.gates[i].inputs for i in gate_indices],
                dtype=np.intp,
            ).reshape(len(gate_indices), first.cell.n_inputs)
            self._comb_groups.append((first.cell, out_idx, in_idx))

        flop_grouped: Dict[str, List[int]] = {}
        for gate in netlist.sequential_gates():
            flop_grouped.setdefault(gate.cell.name, []).append(gate.index)
        self._flop_groups: List[Tuple[Cell, np.ndarray, np.ndarray]] = []
        for _, gate_indices in sorted(flop_grouped.items()):
            first = netlist.gates[gate_indices[0]]
            out_idx = np.array(
                [netlist.gates[i].output for i in gate_indices],
                dtype=np.intp,
            )
            in_idx = np.array(
                [netlist.gates[i].inputs for i in gate_indices],
                dtype=np.intp,
            )
            self._flop_groups.append((first.cell, out_idx, in_idx))

        self._pi_idx = np.array(netlist.input_nets(), dtype=np.intp)
        self._pi_names = netlist.input_names()
        self._po_idx = np.array(
            [net for net, _ in netlist.primary_outputs], dtype=np.intp
        )
        self._flop_out_idx = np.array(
            [gate.output for gate in netlist.sequential_gates()],
            dtype=np.intp,
        )

    def _scratch(self, n_words: int) -> _PassScratch:
        scratch = self._scratch_cache.get(n_words)
        if scratch is None:
            scratch = _PassScratch(self, n_words)
            self._scratch_cache[n_words] = scratch
        return scratch

    # ------------------------------------------------------------------
    # inner loops
    # ------------------------------------------------------------------
    def _check_workload(self, workload: Workload) -> None:
        if workload.input_names != self._pi_names:
            raise SimulationError(
                f"workload {workload.name!r} input order does not match "
                f"netlist {self.netlist.name!r}"
            )

    def _stimulus(self, workloads: Sequence[Workload]) -> np.ndarray:
        """Per-span input bits of one pass's workloads, all of one cycle
        count: uint8 ``(cycles, n_pi, n_spans)``.  The pass spreads one
        cycle at a time onto its lanes (:meth:`_LaneLayout.spread`)."""
        for workload in workloads:
            self._check_workload(workload)
        return np.stack([workload.vectors for workload in workloads],
                        axis=2)

    def _settle(
        self,
        values: np.ndarray,
        masks: Optional[_FaultMasks],
        scratch: _PassScratch,
    ) -> None:
        """Evaluate all combinational groups in level order."""
        for index, (cell, out_idx, in_idx) in enumerate(
            self._comb_groups
        ):
            if in_idx.shape[1] == 0:
                values[out_idx] = (
                    masks.const_out[index] if masks is not None
                    else scratch.const_out[index]
                )
                continue
            gather = scratch.comb_gather[index]
            np.take(values, in_idx, axis=0, out=gather)
            out = cell.function(
                [gather[:, position]
                 for position in range(in_idx.shape[1])],
                ONES,
            )
            if masks is not None and masks.comb[index] is not None:
                keep, forced = masks.comb[index]
                out &= keep
                out |= forced
            values[out_idx] = out

    def _commit(
        self,
        values: np.ndarray,
        masks: Optional[_FaultMasks],
        scratch: _PassScratch,
    ) -> None:
        """Compute and commit all flip-flop next-states."""
        staged: List[Tuple[np.ndarray, np.ndarray]] = []
        for index, (cell, out_idx, in_idx) in enumerate(
            self._flop_groups
        ):
            gather = scratch.flop_gather[index]
            np.take(values, in_idx, axis=0, out=gather)
            out = cell.function(
                [gather[:, position]
                 for position in range(in_idx.shape[1])],
                ONES,
            )
            if masks is not None and masks.flops[index] is not None:
                keep, forced = masks.flops[index]
                out &= keep
                out |= forced
            staged.append((out_idx, out))
        for out_idx, out in staged:
            values[out_idx] = out

    def _output_diff(
        self, values: np.ndarray, layout: _LaneLayout, observation,
        scratch: _PassScratch,
    ) -> np.ndarray:
        """One cycle's strobe-gated per-output mismatch words (a view
        into scratch): each span compares against its own golden lane,
        and a strobed output keeps only the spans whose golden strobe
        is active."""
        po, diff = scratch.po, scratch.diff
        np.take(values, self._po_idx, axis=0, out=po)
        golden = layout.golden(po)
        np.bitwise_xor(po, layout.spread(golden), out=diff)
        if observation is None:
            diff &= layout.valid
        else:  # gated spans are a subset of the valid lanes
            diff &= layout.spread(observation.compare_mask(golden))
        return diff

    # ------------------------------------------------------------------
    # golden runs
    # ------------------------------------------------------------------
    def golden_stats(self, workloads: Sequence[Workload]) -> GoldenStats:
        """Accumulate per-net state/transition counts over workloads.

        Each cycle-count group simulates in one pass with one lane per
        workload.  Every cycle adds each net's popcount over the
        group's valid lanes (constant cells drive the unused tail lanes
        too); the group's first cycle has no predecessor, so it counts
        no transitions.
        """
        n_nets = self.netlist.n_nets
        ones_count = np.zeros(n_nets, dtype=np.int64)
        transition_count = np.zeros(n_nets, dtype=np.int64)
        for positions in cycle_groups(workloads):
            stimulus = self._stimulus([workloads[p] for p in positions])
            layout = _LaneLayout(len(positions), 0)
            scratch = self._scratch(layout.n_words)
            values = np.zeros((n_nets, layout.n_words), dtype=np.uint64)
            live, previous = np.empty_like(values), np.empty_like(values)
            ones = np.zeros(values.shape, dtype=np.int64)
            transitions = np.zeros(values.shape, dtype=np.int64)
            for cycle, bits in enumerate(stimulus):
                values[self._pi_idx] = layout.spread(bits)
                self._settle(values, None, scratch)
                self._commit(values, None, scratch)
                np.bitwise_and(values, layout.valid, out=live)
                ones += np.bitwise_count(live)
                if cycle:
                    np.bitwise_xor(live, previous, out=previous)
                    transitions += np.bitwise_count(previous)
                live, previous = previous, live
            ones_count += ones.sum(axis=1)
            transition_count += transitions.sum(axis=1)
        return GoldenStats(
            net_names=[net.name for net in self.netlist.nets],
            ones_count=ones_count,
            transition_count=transition_count,
            cycles=sum(workload.cycles for workload in workloads),
            workloads=len(workloads),
        )

    def golden_outputs(self, workload: Workload) -> np.ndarray:
        """Golden primary-output trace, shape (cycles, n_outputs).

        Used by cross-check tests against the scalar simulator.
        """
        stimulus = self._stimulus([workload])
        layout = _LaneLayout(1, 0)
        values = np.zeros((self.netlist.n_nets, 1), dtype=np.uint64)
        outputs = np.zeros((workload.cycles, len(self._po_idx)),
                           dtype=np.uint8)
        scratch = self._scratch(1)
        for cycle, bits in enumerate(stimulus):
            values[self._pi_idx] = layout.spread(bits)
            self._settle(values, None, scratch)
            outputs[cycle] = (
                values[self._po_idx, 0] & np.uint64(1)
            ).astype(np.uint8)
            self._commit(values, None, scratch)
        return outputs

    # ------------------------------------------------------------------
    # fault pass
    # ------------------------------------------------------------------
    def run_pass(
        self,
        workloads: Sequence[Workload],
        injection,
        observation=None,
        trace: bool = False,
    ) -> PassResult:
        """Simulate every workload x every fault in one pass.

        Args:
            workloads: Stimuli to replay, one lane span each; all must
                have the same cycle count.
            injection: :class:`StuckAt` or :class:`Upset` faults, the
                same set in every span.
            observation: Optional
                :class:`repro.fi.observation.CompiledObservation`; when
                given, each output participates in the golden-vs-faulty
                comparison only on cycles where its strobe is active in
                the span's golden run.
            trace: Also record a :class:`PassTrace` — the gated
                per-output mismatch words of every cycle and the
                end-of-run per-flop state diff — for incremental (ECO)
                reuse.
        """
        cycles = {workload.cycles for workload in workloads}
        if len(cycles) != 1:
            raise SimulationError(
                "a fault pass needs workloads of one cycle count, got "
                f"{sorted(cycles)}"
            )
        n_cycles = cycles.pop()
        stimulus = self._stimulus(workloads)

        layout = _LaneLayout(len(workloads), len(injection.nets))
        scratch = self._scratch(layout.n_words)
        masks, values, flips = injection.arm(self, layout, n_cycles)
        accumulator = MismatchAccumulator(layout.n_words)
        record = PassTrace.allocate(
            n_cycles, len(self._po_idx), len(self._flop_out_idx),
            layout.n_words,
        ) if trace else None

        for cycle in range(n_cycles):
            flip = flips.get(cycle)
            if flip is not None:
                nets, words, bits = flip
                np.bitwise_xor.at(values, (nets, words), bits)
            values[self._pi_idx] = layout.spread(stimulus[cycle])
            self._settle(values, masks, scratch)
            diff = self._output_diff(values, layout, observation,
                                     scratch)
            if record is not None:
                record.output_diff[cycle] = diff
            accumulator.record(
                np.bitwise_or.reduce(diff, axis=0, out=scratch.mismatch),
                cycle,
            )
            self._commit(values, masks, scratch)

        observed = accumulator.observed()
        if layout.goldens(observed).any():
            raise SimulationError(
                "golden machine diverged from itself — engine bug"
            )
        end_diff = layout.golden_diff(values[self._flop_out_idx])
        if record is not None:
            record.flop_end_diff[:] = end_diff
        corrupted = _lane_flags(np.bitwise_or.reduce(end_diff, axis=0))
        return PassResult(
            error_cycles=layout.faults(accumulator.error_cycles()),
            detection_cycle=layout.faults(accumulator.detection_cycle),
            latent=layout.faults(corrupted & ~observed),
            trace=record,
        )


def cycle_groups(workloads: Sequence[Workload]) -> List[List[int]]:
    """Positions of ``workloads`` grouped by cycle count, in order of
    first appearance: the sets of workloads one pass can carry."""
    groups: Dict[int, List[int]] = {}
    for position, workload in enumerate(workloads):
        groups.setdefault(workload.cycles, []).append(position)
    return list(groups.values())


def _lane_flags(mask_words: np.ndarray) -> np.ndarray:
    """Expand packed lane-mask words into a boolean lane vector."""
    return np.unpackbits(
        mask_words.view(np.uint8), bitorder="little"
    ).astype(bool)
