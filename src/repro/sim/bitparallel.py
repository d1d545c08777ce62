"""Bit-parallel logic simulation engine.

This is the performance core of the fault-injection substrate (the
stand-in for the paper's Cadence Xcelium campaigns).  Net values are
Python ints: bit *k* of a net's int carries the value seen by *lane*
*k*, and an int is as wide as the pass has lanes.  A fault pass
(:meth:`BitParallelSimulator.run_pass`) lays its lanes out
workload-major: each workload owns one contiguous span holding its own
fault-free golden machine followed by one lane per fault.  A whole
fault universe — and, with uniform cycle counts, a whole workload
suite — therefore simulates in a single pass.

Gates evaluate as straight-line Python compiled once per netlist
(:meth:`Netlist.compiled <repro.netlist.netlist.Netlist.compiled>`,
:mod:`repro.netlist.compiled`): one statement per gate in topological
order, ``V[out] = (<expr> & K[out]) | F[out]``, with the stuck-at keep
and force masks applied inline.  A cycle is a few dozen function calls
however many gates and lanes it carries.

The pass has three parts:

* the *lane layout* (:class:`_LaneLayout`): which lane belongs to which
  workload span and fault, and how a per-span bit spreads over lanes;
* the *injector* (:class:`StuckAt` or :class:`Upset`): per-net keep and
  force ints, or a per-cycle schedule of flips on flop outputs;
* the *sink*: a :class:`MismatchAccumulator` always, plus a
  :class:`PassTrace` of gated per-output mismatch words when asked for.

Net values, settle, commit, forcing and flips are ints.  The output
boundary is numpy: each cycle the primary outputs convert to packed
``uint64`` words (bit *b* of word *w* is lane ``64*w + b``), where the
golden comparison, strobe gating and mismatch accounting run.  Stimulus
is spread from per-span bits to lanes one cycle at a time, so a pass
never holds a cycles x inputs x lanes array.

Every statement of a cycle is paid once per pass, however many lanes
it carries, so callers pack workloads of one cycle count into one pass
(:func:`cycle_groups`): golden statistics run one lane per workload,
fault campaigns one span per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload
from repro.utils.errors import SimulationError

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
        #: The span masks' bytes as floats: spans are disjoint, so each
        #: byte of a spread is a sum of at most 255 and a float32
        #: product computes it exactly (numpy has no BLAS for integers).
        self._span_bytes = self.span_masks.view(np.uint8).astype(
            np.float32
        )
        golden = lanes[::self.span]
        self._golden_word = golden >> 6
        self._golden_bit = np.uint64(1) << (golden & 63).astype(np.uint64)
        #: Every lane of the pass as one int (the compiled code's ``M``).
        self.lanes = (1 << self.n_lanes) - 1
        #: Each fault's lane, workload-major.
        self.fault_lanes = lanes.reshape(n_spans, self.span)[:, 1:].ravel()

    def golden(self, rows: np.ndarray) -> np.ndarray:
        """Each span's golden bit of every row: bool (rows, n_spans)."""
        return (rows[:, self._golden_word] & self._golden_bit) != 0

    def spread(self, bits: np.ndarray) -> np.ndarray:
        """Fill every span's lanes with its bit: bool ``(..., n_spans)``
        to packed uint64 ``(..., n_words)`` (spans are disjoint, so the
        product is their union)."""
        return (bits.astype(np.float32) @ self._span_bytes).astype(
            np.uint8
        ).view(np.uint64)

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


class _Armed(NamedTuple):
    """What an injector hands the kernel: per-net keep and force ints
    for the compiled settle and commit steps, the initial net values,
    and the per-cycle flip schedule ``{cycle: [(net, lanes), ...]}``."""

    keep: List[int]
    force: List[int]
    values: List[int]
    flips: Dict[int, List[Tuple[int, int]]]


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
        n_nets = sim.netlist.n_nets
        keep = [layout.lanes] * n_nets
        for net, lanes in _lane_ints(nets, layout.fault_lanes,
                                     layout.n_words).items():
            keep[net] = layout.lanes ^ lanes
        force = [0] * n_nets
        for net, lanes in _lane_ints(nets[stuck_one],
                                     layout.fault_lanes[stuck_one],
                                     layout.n_words).items():
            force[net] = lanes
        # The stuck value holds from t=0: faulty nets (notably flop
        # outputs, whose forcing is otherwise applied at commit time)
        # start at their forced state rather than the reset state.
        return _Armed(keep, force, list(force), {})


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
        if not np.isin(self.nets, sim._flop_nets).all():
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
        n_nets = sim.netlist.n_nets
        keys = (np.tile(cycles, layout.n_spans) * n_nets
                + np.tile(np.asarray(self.nets, dtype=np.int64),
                          layout.n_spans))
        flips: Dict[int, List[Tuple[int, int]]] = {}
        for key, lanes in _lane_ints(keys, layout.fault_lanes,
                                     layout.n_words).items():
            cycle, net = divmod(key, n_nets)
            flips.setdefault(cycle, []).append((net, lanes))
        return _Armed([layout.lanes] * n_nets, [0] * n_nets,
                      [0] * n_nets, flips)


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
    """Machine-parallel simulator over a netlist's compiled evaluator.

    Construction compiles the netlist (once per netlist, cached on it),
    so a simulator built before a fork hands its workers the compiled
    code through copy-on-write pages.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._program = netlist.compiled()
        self._pi_nets = netlist.input_nets()
        self._pi_names = netlist.input_names()
        self._po_nets = [net for net, _ in netlist.primary_outputs]
        self._flop_nets = [
            gate.output for gate in netlist.sequential_gates()
        ]

    # ------------------------------------------------------------------
    # cycle steps
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
        cycle at a time onto its lanes (:meth:`_drive`)."""
        for workload in workloads:
            self._check_workload(workload)
        return np.stack([workload.vectors for workload in workloads],
                        axis=2)

    def _drive(self, values: List[int], layout: _LaneLayout,
               bits: np.ndarray) -> None:
        """Set every primary input to one cycle's per-span bits."""
        for net, lanes in zip(self._pi_nets,
                              _ints(layout.spread(bits))):
            values[net] = lanes

    def _output_diff(self, values: List[int], layout: _LaneLayout,
                     observation) -> np.ndarray:
        """One cycle's strobe-gated per-output mismatch words: each
        span compares against its own golden lane, and a strobed output
        keeps only the spans whose golden strobe is active.  Lanes past
        the layout are zero in every value, so they never differ."""
        po = _words([values[net] for net in self._po_nets],
                    layout.n_words)
        golden = layout.golden(po)
        diff = po ^ layout.spread(golden)
        if observation is not None:
            diff &= layout.spread(observation.compare_mask(golden))
        return diff

    # ------------------------------------------------------------------
    # golden runs
    # ------------------------------------------------------------------
    def golden_stats(self, workloads: Sequence[Workload]) -> GoldenStats:
        """Accumulate per-net state/transition counts over workloads.

        Each cycle-count group simulates in one pass with one lane per
        workload.  Every cycle adds each net's popcount over the
        group's lanes; the group's first cycle has no predecessor, so
        it counts no transitions.
        """
        program = self._program
        n_nets = self.netlist.n_nets
        ones_count = np.zeros(n_nets, dtype=np.int64)
        transition_count = np.zeros(n_nets, dtype=np.int64)
        for positions in cycle_groups(workloads):
            stimulus = self._stimulus([workloads[p] for p in positions])
            layout = _LaneLayout(len(positions), 0)
            lanes = layout.lanes
            keep, force = [lanes] * n_nets, [0] * n_nets
            values = [0] * n_nets
            ones = np.zeros((n_nets, layout.n_words), dtype=np.int64)
            transitions = np.zeros_like(ones)
            previous = None
            for bits in stimulus:
                self._drive(values, layout, bits)
                program.settle(values, keep, force, lanes)
                program.commit(values, keep, force, lanes)
                live = _words(values, layout.n_words)
                ones += np.bitwise_count(live)
                if previous is not None:
                    transitions += np.bitwise_count(live ^ previous)
                previous = live
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
        program = self._program
        stimulus = self._stimulus([workload])
        layout = _LaneLayout(1, 0)
        lanes = layout.lanes
        n_nets = self.netlist.n_nets
        keep, force = [lanes] * n_nets, [0] * n_nets
        values = [0] * n_nets
        outputs = np.zeros((workload.cycles, len(self._po_nets)),
                           dtype=np.uint8)
        for cycle, bits in enumerate(stimulus):
            self._drive(values, layout, bits)
            program.settle(values, keep, force, lanes)
            outputs[cycle] = [values[net] for net in self._po_nets]
            program.commit(values, keep, force, lanes)
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

        program = self._program
        layout = _LaneLayout(len(workloads), len(injection.nets))
        keep, force, values, flips = injection.arm(self, layout,
                                                   n_cycles)
        lanes = layout.lanes
        accumulator = MismatchAccumulator(layout.n_words)
        record = PassTrace.allocate(
            n_cycles, len(self._po_nets), len(self._flop_nets),
            layout.n_words,
        ) if trace else None

        for cycle in range(n_cycles):
            for net, flipped in flips.get(cycle, ()):
                values[net] ^= flipped
            self._drive(values, layout, stimulus[cycle])
            program.settle(values, keep, force, lanes)
            diff = self._output_diff(values, layout, observation)
            if record is not None:
                record.output_diff[cycle] = diff
            accumulator.record(np.bitwise_or.reduce(diff, axis=0), cycle)
            program.commit(values, keep, force, lanes)

        observed = accumulator.observed()
        if layout.goldens(observed).any():
            raise SimulationError(
                "golden machine diverged from itself — engine bug"
            )
        end_diff = layout.golden_diff(_words(
            [values[net] for net in self._flop_nets], layout.n_words
        ))
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


def _ints(rows: np.ndarray) -> List[int]:
    """Packed ``uint64`` rows as lane ints (bit *k* is lane *k*)."""
    data = rows.tobytes()
    size = 8 * rows.shape[-1]
    return [int.from_bytes(data[start:start + size], "little")
            for start in range(0, len(data), size)]


def _words(values: Sequence[int], n_words: int) -> np.ndarray:
    """Lane ints as packed ``uint64`` rows ``(len(values), n_words)``;
    the inverse of :func:`_ints`."""
    size = 8 * n_words
    return np.frombuffer(
        b"".join([value.to_bytes(size, "little") for value in values]),
        dtype=np.uint64,
    ).reshape(len(values), n_words)


def _lane_ints(keys: np.ndarray, lanes: np.ndarray,
               n_words: int) -> Dict[int, int]:
    """OR together the ``lanes`` that share a key: one lane int per
    distinct key."""
    unique, rows = np.unique(keys, return_inverse=True)
    words = np.zeros((len(unique), n_words), dtype=np.uint64)
    np.bitwise_or.at(words, (rows, lanes >> 6),
                     np.uint64(1) << (lanes & 63).astype(np.uint64))
    return dict(zip(unique.tolist(), _ints(words)))


def _lane_flags(mask_words: np.ndarray) -> np.ndarray:
    """Expand packed lane-mask words into a boolean lane vector."""
    return np.unpackbits(
        mask_words.view(np.uint8), bitorder="little"
    ).astype(bool)
