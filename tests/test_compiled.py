"""Tests for the compiled netlist evaluator (:mod:`repro.netlist.compiled`).

The compiled settle and commit steps are checked against a plain
per-gate loop over ``cell.function`` kept here, on designs that use
every library cell, at lane widths on both sides of the 64-bit word
boundary and past a thousand lanes, with and without forcing.  The
remaining tests pin the compiler's contracts: untraceable cells raise
a typed error, structural edits recompile, and no name taken from a
netlist ever reaches the generated source.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_netlist
from repro.fi.faults import full_fault_universe
from repro.netlist import LIBRARY, Cell, Netlist, from_verilog, get_cell
from repro.netlist.cells import FEEDBACK_PORTS
from repro.netlist.compiled import CHUNK_STATEMENTS, cell_template
from repro.sim import BitParallelSimulator, Simulator, StuckAt
from repro.sim import random_workload
from repro.utils.errors import NetlistError, UntraceableCellError

LANE_WIDTHS = (1, 63, 64, 65, 1031)


def interpret_settle(netlist, values, keep, force, lanes):
    """Reference settle: every combinational gate, one at a time."""
    for index in netlist.topological_order():
        gate = netlist.gates[index]
        if gate.is_sequential:
            continue
        out = gate.cell.function([values[net] for net in gate.inputs],
                                 lanes)
        values[gate.output] = (out & keep[gate.output]) | force[gate.output]


def interpret_commit(netlist, values, keep, force, lanes):
    """Reference commit: every next state from this cycle's values."""
    staged = [
        (gate.output,
         (gate.cell.function([values[net] for net in gate.inputs], lanes)
          & keep[gate.output]) | force[gate.output])
        for gate in netlist.sequential_gates()
    ]
    for net, value in staged:
        values[net] = value


def every_cell_netlist(seed, copies=2):
    """A random design holding ``copies`` instances of every library
    cell.  Flip-flops come last so their data pins may read any net,
    while their outputs (created first) feed the combinational logic —
    DFFE feedback included."""
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(4)]
    flops = [name for name, cell in LIBRARY.items() if cell.sequential]
    combinational = [name for name, cell in LIBRARY.items()
                     if not cell.sequential]
    flop_outputs = [f"q{k}" for k in range(len(flops) * copies)]
    available = inputs + flop_outputs
    order = combinational * copies
    rng.shuffle(order)
    gates = []
    for position, cell_name in enumerate(order):
        cell = get_cell(cell_name)
        output = f"n{position}"
        gates.append((cell_name, f"U{position}",
                      [rng.choice(available) for _ in cell.ports], output))
        available.append(output)
    for position, cell_name in enumerate(flops * copies):
        wired = [port for port in get_cell(cell_name).ports
                 if port != FEEDBACK_PORTS.get(cell_name)]
        gates.append((cell_name, f"F{position}",
                      [rng.choice(available) for _ in wired],
                      flop_outputs[position]))
    outputs = [(net, f"o_{net}") for net in available[len(inputs):]]
    return Netlist.from_gates(f"every_cell_{seed}", inputs, gates, outputs)


def test_every_cell_netlist_uses_the_whole_library():
    netlist = every_cell_netlist(0)
    assert {gate.cell.name for gate in netlist.gates} == set(LIBRARY)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       width=st.sampled_from(LANE_WIDTHS),
       forcing=st.booleans())
def test_compiled_steps_match_interpreted_cells(seed, width, forcing):
    netlist = every_cell_netlist(seed)
    program = netlist.compiled()
    rng = random.Random(seed)
    lanes = (1 << width) - 1
    n_nets = netlist.n_nets
    if forcing:
        clear = [rng.getrandbits(width) for _ in range(n_nets)]
        keep = [lanes ^ bits for bits in clear]
        force = [bits & rng.getrandbits(width) for bits in clear]
    else:
        keep, force = [lanes] * n_nets, [0] * n_nets
    values = [rng.getrandbits(width) for _ in range(n_nets)]
    for _ in range(3):  # settle/commit rounds carry state forward
        expected = list(values)
        interpret_settle(netlist, expected, keep, force, lanes)
        program.settle(values, keep, force, lanes)
        assert values == expected
        interpret_commit(netlist, expected, keep, force, lanes)
        program.commit(values, keep, force, lanes)
        assert values == expected
        for net in netlist.input_nets():
            values[net] = rng.getrandbits(width)


def test_source_is_split_into_chunks():
    netlist = random_netlist(n_inputs=6, n_gates=300, n_flops=12,
                             n_outputs=4, seed=3)
    program = netlist.compiled()
    statements = sum(text.count("\n") - 1 for text in program.source)
    n_comb = len(netlist.combinational_gates())
    assert statements == n_comb + 2 * len(netlist.sequential_gates())
    assert len(program.settle_chunks) == -(-n_comb // CHUNK_STATEMENTS)
    assert all(text.count("\n") - 1 <= CHUNK_STATEMENTS
               for text in program.source)


# ----------------------------------------------------------------------
# untraceable cells
# ----------------------------------------------------------------------
UNTRACEABLE = {
    "branches": lambda v, ones: v[1] if v[2] else v[0],
    "inverts": lambda v, ones: ~v[0] & ones,
    "constant": lambda v, ones: v[0] ^ 1,
    "compares": lambda v, ones: ones if v[0] == v[1] else v[0],
    "arithmetic": lambda v, ones: (v[0] + v[1]) & ones,
    # Traces fine, but the trace is not the function on plain ints.
    "disagrees": lambda v, ones: (v[0] if isinstance(v[0], int)
                                  else v[1]),
}


@pytest.mark.parametrize("kind", sorted(UNTRACEABLE))
def test_untraceable_cell_raises_typed_error(kind):
    cell = Cell(f"BAD_{kind}", ("A", "B", "S"), UNTRACEABLE[kind])
    with pytest.raises(UntraceableCellError, match=f"BAD_{kind}"):
        cell_template(cell)

    netlist = Netlist("untraceable")
    a, b, s = (netlist.add_input(name) for name in "abs")
    y = netlist.add_gate("MUX2", [a, b, s])
    netlist.add_output(y, "y")
    netlist.gates[0].cell = cell
    netlist.invalidate_structure()
    with pytest.raises(UntraceableCellError, match=f"BAD_{kind}"):
        BitParallelSimulator(netlist)
    assert issubclass(UntraceableCellError, NetlistError)


def test_library_templates_only_use_operands_and_lanes():
    for cell in LIBRARY.values():
        text = cell_template(cell)
        leftover = text
        for port in range(cell.n_inputs):
            leftover = leftover.replace("{%d}" % port, "")
        assert set(leftover) <= set("()&|^M "), (cell.name, text)


# ----------------------------------------------------------------------
# cache invalidation
# ----------------------------------------------------------------------
def retype(netlist, changes):
    for instance, (was, becomes) in changes.items():
        gate = netlist.gate_by_instance(instance)
        assert gate.cell.name == was
        gate.cell = get_cell(becomes)
    netlist.invalidate_structure()


def cell_swaps(netlist, count):
    """``count`` same-arity cell swaps (AN2 <-> OR2 style)."""
    partner = {"AN": "OR", "OR": "AN", "ND": "NR", "NR": "ND"}
    changes = {}
    for gate in netlist.gates:
        prefix = gate.cell.name[:2]
        if prefix in partner and len(changes) < count:
            changes[gate.instance] = (
                gate.cell.name, partner[prefix] + gate.cell.name[2:],
            )
    assert len(changes) == count
    return changes


def test_program_is_compiled_once_per_netlist():
    """Building a simulator warms the netlist's cache (a campaign builds
    its engine before forking workers), and later simulators reuse it."""
    netlist = random_netlist(n_inputs=4, n_gates=20, n_flops=2,
                             n_outputs=2, seed=9)
    assert netlist._compiled_cache is None
    first = BitParallelSimulator(netlist)
    assert netlist._compiled_cache is first._program
    assert BitParallelSimulator(netlist)._program is first._program


def test_retyped_gate_recompiles_after_invalidation():
    netlist = random_netlist(n_inputs=5, n_gates=40, n_flops=4,
                             n_outputs=4, seed=11)
    workload = random_workload(netlist, cycles=30, seed=2,
                               reset_input="in_0")
    before = BitParallelSimulator(netlist).golden_outputs(workload)
    stale = netlist.compiled()
    retype(netlist, cell_swaps(netlist, 5))
    assert netlist.compiled() is not stale
    after = BitParallelSimulator(netlist).golden_outputs(workload)
    assert np.array_equal(after, Simulator(netlist).run(workload).outputs)
    assert not np.array_equal(before, after)


def test_deepcopied_then_edited_netlist_simulates_its_own_cells():
    """The ECO benchmarks' pattern: compile, deep-copy, edit the copy."""
    original = random_netlist(n_inputs=5, n_gates=40, n_flops=4,
                              n_outputs=4, seed=12)
    workload = random_workload(original, cycles=30, seed=3,
                               reset_input="in_0")
    BitParallelSimulator(original)  # the original's program is cached
    edited = copy.deepcopy(original)
    retype(edited, cell_swaps(edited, 5))
    for netlist in (original, edited):
        assert np.array_equal(
            BitParallelSimulator(netlist).golden_outputs(workload),
            Simulator(netlist).run(workload).outputs,
        )
    assert edited.compiled() is not original.compiled()


# ----------------------------------------------------------------------
# names never reach the generated source
# ----------------------------------------------------------------------
#: Escaped Verilog identifiers (a backslash, then anything up to white
#: space) that would break or subvert generated code if spliced in.
HOSTILE = [
    '__import__("os").system("false")',
    "V[0]];V[1]=(M",
    "K[0]|F[0]",
    "{0}{1}{M}",
    "S[0]=0#",
    "def\\chunk(V,K,F,M):",
    "a,b;c//d/*e*/",
    "'''\"\"\"",
    "endmodule",
]

GATES = [  # cell, instance, input nets, output net
    ("ND2", 0, (0, 1), 3),
    ("MUX2", 1, (3, 2, 0), 4),
    ("AO2", 2, (0, 1, 4, 2), 5),
    ("XNR2", 3, (5, 6), 7),
    ("DFFE", 4, (7, 1), 6),
    ("DFF", 5, (4,), 8),
    ("OA3", 6, (8, 6, 2), 9),
]
N_INPUTS = 3


def gate_verilog(name):
    """A small sequential design whose every identifier is ``name(k)``."""
    nets = [name(f"n{k}") for k in range(10)]
    ports = {"ND2": ("A0", "A1"), "MUX2": ("A", "B", "S"),
             "AO2": ("A0", "A1", "A2", "A3"), "XNR2": ("A0", "A1"),
             "DFFE": ("D", "E"), "DFF": ("D",), "OA3": ("A0", "A1", "A2")}
    outputs = [name(f"o{k}") for k in range(3)]
    lines = [f"module {name('top')} ({', '.join(nets[:N_INPUTS] + outputs)});"]
    lines += [f"  input {net};" for net in nets[:N_INPUTS]]
    lines += [f"  output {port};" for port in outputs]
    for cell, instance, inputs, output in GATES:
        pins = [f".{port}({nets[net]})"
                for port, net in zip(ports[cell], inputs)]
        pins.append(f".{'Q' if cell.startswith('DFF') else 'Y'}"
                    f"({nets[output]})")
        lines.append(f"  {cell} {name(f'u{instance}')} ({', '.join(pins)});")
    for port, net in zip(outputs, (5, 8, 9)):
        lines.append(f"  assign {port} = {nets[net]};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def hostile_name(tag):
    index = int(tag[1:]) if tag[1:].isdigit() else 0
    return HOSTILE[index % len(HOSTILE)] + "_" + tag


def test_hostile_escaped_identifiers_simulate_identically():
    plain = from_verilog(gate_verilog(lambda tag: tag))
    hostile = from_verilog(gate_verilog(
        lambda tag: "\\" + hostile_name(tag) + " "
    ))
    assert hostile.net_index(hostile_name("n0")) == 0
    assert hostile.gate_by_instance(hostile_name("u4")).cell.name == "DFFE"
    assert [gate.cell.name for gate in hostile.gates] == [
        gate.cell.name for gate in plain.gates
    ]

    source = "".join(hostile.compiled().source)
    for name in ([net.name for net in hostile.nets]
                 + [gate.instance for gate in hostile.gates]
                 + hostile.output_names() + [hostile.name]):
        assert name not in source
    assert source == "".join(plain.compiled().source)

    workload = random_workload(plain, cycles=40, seed=5)
    twin = workload.__class__(workload.name, hostile.input_names(),
                              workload.vectors)
    assert np.array_equal(
        BitParallelSimulator(plain).golden_outputs(workload),
        BitParallelSimulator(hostile).golden_outputs(twin),
    )
    faults = full_fault_universe(plain)
    injection = StuckAt(np.array([fault.net_index for fault in faults]),
                        np.array([fault.stuck_at for fault in faults]))
    expected = BitParallelSimulator(plain).run_pass(
        [workload], injection, trace=True,
    )
    actual = BitParallelSimulator(hostile).run_pass(
        [twin], injection, trace=True,
    )
    for left, right in zip(actual.row(0), expected.row(0)):
        assert np.array_equal(left, right)
    assert np.array_equal(actual.trace.output_diff,
                          expected.trace.output_diff)
