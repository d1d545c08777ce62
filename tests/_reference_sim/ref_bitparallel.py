"""64-way bit-parallel logic simulation engine.

This is the performance core of the fault-injection substrate (the
stand-in for the paper's Cadence Xcelium campaigns).  Net values are
``numpy.uint64`` words: bit *b* of word *w* carries the value seen by
*machine* ``64*w + b``.  Machine 0 is always the fault-free golden
machine; every other machine runs the same stimulus with one stuck-at
fault permanently forced on one gate output.  A whole fault universe
therefore simulates in a single pass per workload, with every gate
evaluation a handful of vectorized numpy operations.

The schedule is levelized and type-grouped: gates of the same cell type
on the same topological level evaluate together as one gather/compute/
scatter step.

The inner loop is allocation-free on the hot path: per-word-width
scratch buffers (gathers, output comparison, mismatch masks) are built
once and reused across cycles, constant-cell outputs are evaluated once
per pass, fault forcing masks are gathered per group once per pass, and
per-machine error-cycle counts accumulate by popcounting chunks of
packed mismatch words instead of unpacking every mismatch cycle.
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
ZERO = np.uint64(0)

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
    words of flop *q* (the inputs to the latent classification).
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
        self.golden_broadcast = np.empty(
            (n_outputs, n_words), dtype=np.uint64
        )
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


class MismatchAccumulator:
    """Streaming golden-vs-faulty mismatch accounting.

    Shared by the stuck-at and transient passes so both get the same
    optimized bookkeeping: per-cycle packed mismatch masks are buffered
    and *popcounted in chunks* (one ``unpackbits`` + column sum per
    :data:`MISMATCH_CHUNK` mismatch cycles) instead of being expanded to
    a boolean machine vector on every mismatch cycle, and first-detection
    cycles are scattered with one vectorized assignment per cycle rather
    than a per-machine Python loop.
    """

    def __init__(self, n_machines: int, n_words: int):
        self.n_machines = n_machines
        self.n_words = n_words
        self.seen = np.zeros(n_words, dtype=np.uint64)
        self.detection_cycle = np.full(n_machines - 1, -1,
                                       dtype=np.int64)
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
            machines = np.flatnonzero(np.unpackbits(
                new.view(np.uint8), bitorder="little"
            ))
            machines = machines[
                (machines > 0) & (machines < self.n_machines)
            ]
            self.detection_cycle[machines - 1] = cycle

    def _flush(self) -> None:
        if not self._fill:
            return
        bits = np.unpackbits(
            self._chunk[: self._fill].view(np.uint8),
            axis=1, bitorder="little",
        )
        self._counts += bits.sum(axis=0, dtype=np.int64)
        self._fill = 0

    @property
    def golden_diverged(self) -> bool:
        """True when the golden machine mismatched itself (engine bug)."""
        return bool(self.seen[0] & np.uint64(1))

    def error_cycles(self) -> np.ndarray:
        """Per-fault count of mismatch cycles (flushes the chunk)."""
        self._flush()
        return self._counts[1: self.n_machines]

    def observed(self) -> np.ndarray:
        """Per-fault flags: at least one mismatch cycle ever occurred."""
        return _machine_flags(self.seen, self.n_machines)[1:]


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

    def _apply_inputs(self, values: np.ndarray, bits: np.ndarray) -> None:
        # (n_pi, 1) broadcasts across all machine words on assignment.
        values[self._pi_idx] = np.where(bits[:, None], ONES, ZERO)

    def _compare_outputs(
        self, values: np.ndarray, observation, scratch: _PassScratch,
        trace_row: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One cycle's packed mismatch mask (a view into scratch)."""
        mismatch = scratch.mismatch
        if not len(self._po_idx):
            mismatch[:] = ZERO
            return mismatch
        np.take(values, self._po_idx, axis=0, out=scratch.po)
        golden_bits = (scratch.po[:, 0] & np.uint64(1)).astype(bool)
        broadcast = scratch.golden_broadcast
        broadcast[:] = ZERO
        broadcast[golden_bits] = ONES
        np.bitwise_xor(scratch.po, broadcast, out=scratch.diff)
        if observation is not None:
            compare = observation.compare_mask(golden_bits)
            np.bitwise_or.reduce(
                scratch.diff, axis=0, out=mismatch,
                where=compare[:, None], initial=0,
            )
            if trace_row is not None:
                trace_row[compare] = scratch.diff[compare]
        else:
            np.bitwise_or.reduce(scratch.diff, axis=0, out=mismatch)
            if trace_row is not None:
                trace_row[:] = scratch.diff
        return mismatch

    def _latent_flags(
        self, values: np.ndarray, n_machines: int,
        observed: np.ndarray,
        trace: Optional[PassTrace] = None,
    ) -> np.ndarray:
        """End-of-run state corruption that never reached an output."""
        if not len(self._flop_out_idx):
            return np.zeros(n_machines - 1, dtype=bool)
        state = values[self._flop_out_idx]
        golden_state = (state[:, 0] & np.uint64(1)).astype(bool)
        per_flop = state ^ np.where(golden_state[:, None], ONES, ZERO)
        if trace is not None:
            trace.flop_end_diff[:] = per_flop
        state_diff = np.bitwise_or.reduce(per_flop, axis=0)
        corrupted = _machine_flags(state_diff, n_machines)[1:]
        return corrupted & ~observed

    # ------------------------------------------------------------------
    # golden runs
    # ------------------------------------------------------------------
    def golden_stats(self, workloads: Sequence[Workload]) -> GoldenStats:
        """Accumulate per-net state/transition counts over workloads."""
        n_nets = self.netlist.n_nets
        ones_count = np.zeros(n_nets, dtype=np.int64)
        transition_count = np.zeros(n_nets, dtype=np.int64)
        total_cycles = 0
        scratch = self._scratch(1)
        for workload in workloads:
            self._check_workload(workload)
            values = np.zeros((n_nets, 1), dtype=np.uint64)
            stimulus = workload.vectors.astype(bool)
            previous: Optional[np.ndarray] = None
            for cycle in range(workload.cycles):
                self._apply_inputs(values, stimulus[cycle])
                self._settle(values, None, scratch)
                self._commit(values, None, scratch)
                bits = (values[:, 0] & np.uint64(1)).astype(np.int64)
                ones_count += bits
                if previous is not None:
                    transition_count += bits ^ previous
                previous = bits
            total_cycles += workload.cycles
        return GoldenStats(
            net_names=[net.name for net in self.netlist.nets],
            ones_count=ones_count,
            transition_count=transition_count,
            cycles=total_cycles,
            workloads=len(workloads),
        )

    def golden_outputs(self, workload: Workload) -> np.ndarray:
        """Golden primary-output trace, shape (cycles, n_outputs).

        Used by cross-check tests against the scalar simulator.
        """
        self._check_workload(workload)
        values = np.zeros((self.netlist.n_nets, 1), dtype=np.uint64)
        outputs = np.zeros((workload.cycles, len(self._po_idx)),
                           dtype=np.uint8)
        scratch = self._scratch(1)
        stimulus = workload.vectors.astype(bool)
        for cycle in range(workload.cycles):
            self._apply_inputs(values, stimulus[cycle])
            self._settle(values, None, scratch)
            outputs[cycle] = (
                values[self._po_idx, 0] & np.uint64(1)
            ).astype(np.uint8)
            self._commit(values, None, scratch)
        return outputs

    # ------------------------------------------------------------------
    # fault campaign
    # ------------------------------------------------------------------
    def run_fault_pass(
        self,
        workload: Workload,
        fault_nets: np.ndarray,
        fault_values: np.ndarray,
        observation=None,
        trace: Optional[PassTrace] = None,
    ):
        """Simulate one workload against all faults simultaneously.

        Args:
            workload: Stimulus to replay.
            fault_nets: Net index per fault (the faulted gate's output).
            fault_values: Stuck-at value (0/1) per fault.
            observation: Optional
                :class:`repro.fi.observation.CompiledObservation`; when
                given, each output participates in the golden-vs-faulty
                comparison only on cycles where its strobe is active in
                the golden run.
            trace: Optional pre-allocated :class:`PassTrace`; when
                given, the gated per-output mismatch words of every
                cycle and the end-of-run per-flop state diff are
                recorded for incremental (ECO) reuse.

        Returns:
            ``(error_cycles, detection_cycle, latent)`` — per-fault
            count of cycles with a functional output mismatch,
            first-mismatch cycle (-1 when never), and end-of-run
            state-corruption flags for faults that never reached an
            output.
        """
        self._check_workload(workload)
        n_faults = len(fault_nets)
        n_machines = n_faults + 1
        n_words = (n_machines + 63) // 64
        n_nets = self.netlist.n_nets

        clear = np.zeros((n_nets, n_words), dtype=np.uint64)
        force = np.zeros((n_nets, n_words), dtype=np.uint64)
        machine = np.arange(1, n_machines)
        words, bits = machine >> 6, machine & 63
        bit_masks = np.uint64(1) << bits.astype(np.uint64)
        np.bitwise_or.at(clear, (fault_nets, words), bit_masks)
        stuck_one = fault_values.astype(bool)
        np.bitwise_or.at(
            force,
            (fault_nets[stuck_one], words[stuck_one]),
            bit_masks[stuck_one],
        )

        scratch = self._scratch(n_words)
        masks = _FaultMasks(self, clear, force, scratch)
        accumulator = MismatchAccumulator(n_machines, n_words)

        # The stuck value holds from t=0: faulty nets (notably flop
        # outputs, whose forcing is otherwise applied at commit time)
        # start at their forced state rather than the reset state.
        values = force.copy()
        stimulus = workload.vectors.astype(bool)

        for cycle in range(workload.cycles):
            self._apply_inputs(values, stimulus[cycle])
            self._settle(values, masks, scratch)
            mismatch = self._compare_outputs(
                values, observation, scratch,
                trace.output_diff[cycle] if trace is not None else None,
            )
            accumulator.record(mismatch, cycle)
            self._commit(values, masks, scratch)

        if accumulator.golden_diverged:
            raise SimulationError(
                "golden machine diverged from itself — engine bug"
            )

        observed = accumulator.observed()
        latent = self._latent_flags(values, n_machines, observed,
                                    trace)
        return (accumulator.error_cycles(),
                accumulator.detection_cycle, latent)

    def run_packed_fault_trace(
        self,
        workloads: Sequence[Workload],
        fault_nets: np.ndarray,
        fault_values: np.ndarray,
        observation=None,
    ) -> PassTrace:
        """Every workload x every fault in ONE bit-parallel pass.

        The machine axis is laid out workload-major: workload *w* owns
        the contiguous lane span ``[w*(n_faults+1), (w+1)*(n_faults+1))``
        with its own golden machine at the span start, so stimulus,
        golden comparison, and strobe gating are all per-span.  With a
        small netlist (an ECO support cone) the per-cycle Python
        dispatch is the entire cost, and packing divides it by the
        workload count.

        Requires uniform workload cycle counts.  Returns only a
        :class:`PassTrace` (per-output gated mismatch words, per-flop
        end-state diff) — the caller slices per-(workload, fault) lanes
        out of the packed words.
        """
        cycles = {workload.cycles for workload in workloads}
        if len(cycles) != 1:
            raise SimulationError(
                "packed fault trace requires uniform workload cycle "
                f"counts, got {sorted(cycles)}"
            )
        n_cycles = cycles.pop()
        for workload in workloads:
            self._check_workload(workload)

        n_faults = len(fault_nets)
        span = n_faults + 1
        n_machines = span * len(workloads)
        n_words = (n_machines + 63) // 64
        n_nets = self.netlist.n_nets

        machine = np.concatenate([
            group * span + 1 + np.arange(n_faults)
            for group in range(len(workloads))
        ])
        nets_tiled = np.tile(np.asarray(fault_nets, dtype=np.intp),
                             len(workloads))
        values_tiled = np.tile(
            np.asarray(fault_values, dtype=np.uint8), len(workloads)
        )
        words, bits = machine >> 6, machine & 63
        bit_masks = np.uint64(1) << bits.astype(np.uint64)
        clear = np.zeros((n_nets, n_words), dtype=np.uint64)
        force = np.zeros((n_nets, n_words), dtype=np.uint64)
        np.bitwise_or.at(clear, (nets_tiled, words), bit_masks)
        stuck_one = values_tiled.astype(bool)
        np.bitwise_or.at(
            force,
            (nets_tiled[stuck_one], words[stuck_one]),
            bit_masks[stuck_one],
        )

        # Per-span packed masks: group_masks[w] covers workload w's
        # lanes; valid_mask zeroes the unused tail of the last word.
        all_machines = np.arange(n_machines)
        span_of = all_machines // span
        lane_bits = np.zeros((len(workloads), n_words * 64),
                             dtype=np.uint8)
        lane_bits[span_of, all_machines] = 1
        group_masks = np.packbits(
            lane_bits, axis=1, bitorder="little"
        ).view(np.uint64)
        valid_mask = np.bitwise_or.reduce(group_masks, axis=0)

        # Stimulus: per-machine words (each lane replays its span's
        # workload), packed once up front.
        golden_machines = (np.arange(len(workloads)) * span)
        stimulus = np.stack(
            [w.vectors.astype(np.uint8) for w in workloads], axis=2
        )  # (cycles, n_pi, n_workloads)
        machine_bits = np.zeros(
            (n_cycles, len(self._pi_idx), n_words * 64), dtype=np.uint8
        )
        machine_bits[:, :, :n_machines] = stimulus[:, :, span_of]
        stim_words = np.packbits(
            machine_bits, axis=2, bitorder="little"
        ).view(np.uint64)  # (cycles, n_pi, n_words)

        scratch = self._scratch(n_words)
        masks = _FaultMasks(self, clear, force, scratch)
        trace = PassTrace.allocate(
            n_cycles, len(self._po_idx), len(self._flop_out_idx),
            n_words,
        )
        golden_words = (golden_machines >> 6).astype(np.intp)
        golden_shift = (golden_machines & 63).astype(np.uint64)

        def span_broadcast(rows: np.ndarray) -> np.ndarray:
            """Per-row packed golden broadcast: each span filled with
            its own golden machine's bit."""
            golden = ((rows[:, golden_words] >> golden_shift)
                      & np.uint64(1)).astype(bool)
            return golden.astype(np.uint64) @ group_masks

        values = force.copy()
        po_idx = self._po_idx
        for cycle in range(n_cycles):
            values[self._pi_idx] = stim_words[cycle]
            self._settle(values, masks, scratch)
            if len(po_idx):
                po = values.take(po_idx, axis=0)
                diff = (po ^ span_broadcast(po)) & valid_mask
                if observation is not None:
                    gated = self._packed_compare_gate(
                        po, observation, group_masks,
                        golden_words, golden_shift,
                    )
                    diff &= gated
                trace.output_diff[cycle] = diff
            self._commit(values, masks, scratch)

        if len(self._flop_out_idx):
            state = values[self._flop_out_idx]
            trace.flop_end_diff[:] = (
                (state ^ span_broadcast(state)) & valid_mask
            )
        return trace

    def _packed_compare_gate(
        self, po: np.ndarray, observation, group_masks: np.ndarray,
        golden_words: np.ndarray, golden_shift: np.ndarray,
    ) -> np.ndarray:
        """Per-output packed compare-enable words for one cycle: a
        strobed output keeps only the spans whose golden strobe value
        is active; unstrobed outputs keep every span."""
        golden = ((po[:, golden_words] >> golden_shift)
                  & np.uint64(1)).astype(bool)  # (n_out, n_spans)
        enabled = np.ones_like(golden)
        strobed = observation.strobe_index >= 0
        enabled[strobed] = (
            golden[observation.strobe_index[strobed]]
            == observation.strobe_active[strobed, None].astype(bool)
        )
        return enabled.astype(np.uint64) @ group_masks

    # ------------------------------------------------------------------
    # transient (SEU) campaign
    # ------------------------------------------------------------------
    def run_transient_pass(
        self,
        workload: Workload,
        fault_nets: np.ndarray,
        fault_cycles: np.ndarray,
        observation=None,
    ):
        """Simulate single-event upsets: one state-bit flip per machine.

        Machine *m* runs fault-free except that at the start of cycle
        ``fault_cycles[m-1]`` the flip-flop output net
        ``fault_nets[m-1]`` is inverted — the standard SEU model (soft
        errors strike state elements; combinational glitches are
        filtered unless captured).

        Returns ``(error_cycles, detection_cycle, latent)`` with the
        same semantics as :meth:`run_fault_pass`.
        """
        self._check_workload(workload)
        n_faults = len(fault_nets)
        n_machines = n_faults + 1
        n_words = (n_machines + 63) // 64
        n_nets = self.netlist.n_nets

        flop_nets = set(int(net) for net in self._flop_out_idx)
        for net in fault_nets:
            if int(net) not in flop_nets:
                raise SimulationError(
                    "transient faults target flip-flop outputs only"
                )

        machine = np.arange(1, n_machines)
        words, bits = machine >> 6, machine & 63
        bit_masks = np.uint64(1) << bits.astype(np.uint64)

        # Group flips by injection cycle for O(1) lookup per cycle.
        flips_at: dict = {}
        for fault_index in range(n_faults):
            cycle = int(fault_cycles[fault_index])
            if not 0 <= cycle < workload.cycles:
                raise SimulationError(
                    f"injection cycle {cycle} outside the workload"
                )
            flips_at.setdefault(cycle, []).append(fault_index)

        scratch = self._scratch(n_words)
        accumulator = MismatchAccumulator(n_machines, n_words)
        values = np.zeros((n_nets, n_words), dtype=np.uint64)
        stimulus = workload.vectors.astype(bool)

        for cycle in range(workload.cycles):
            for fault_index in flips_at.get(cycle, ()):
                net = int(fault_nets[fault_index])
                word = int(words[fault_index])
                values[net, word] ^= bit_masks[fault_index]

            self._apply_inputs(values, stimulus[cycle])
            self._settle(values, None, scratch)
            mismatch = self._compare_outputs(values, observation,
                                             scratch)
            accumulator.record(mismatch, cycle)
            self._commit(values, None, scratch)

        if accumulator.golden_diverged:
            raise SimulationError(
                "golden machine diverged from itself — engine bug"
            )

        observed = accumulator.observed()
        latent = self._latent_flags(values, n_machines, observed)
        return (accumulator.error_cycles(),
                accumulator.detection_cycle, latent)


def _machine_flags(mask_words: np.ndarray, n_machines: int) -> np.ndarray:
    """Expand packed machine-mask words into a boolean vector."""
    bytes_view = mask_words.view(np.uint8)
    bits = np.unpackbits(bytes_view, bitorder="little")
    return bits[:n_machines].astype(bool)


def _machines_from_mask(mask_words: np.ndarray) -> np.ndarray:
    """Machine indices whose bit is set in packed mask words."""
    bytes_view = mask_words.view(np.uint8)
    bits = np.unpackbits(bytes_view, bitorder="little")
    return np.flatnonzero(bits)
