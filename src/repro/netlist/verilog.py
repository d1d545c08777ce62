"""Structural Verilog reader and writer.

The paper's flow starts from a synthesized gate-level netlist; this
module provides interchange with the structural-Verilog subset such a
netlist uses:

* one ``module`` per file, flat (no hierarchy);
* ``input`` / ``output`` / ``wire`` declarations, possibly grouped
  (``input a, b;``);
* cell instantiations with *named* port connections
  (``ND2 U1 (.A0(a), .A1(b), .Y(n1));``) — the output port is ``Y``
  for combinational cells and ``Q`` for flip-flops;
* ``assign lhs = rhs;`` aliases, realized as ``BUF`` gates on read;
* ``//`` and ``/* */`` comments;
* escaped identifiers (``\\bus[3] ``: a backslash, then any characters
  up to white space, which names ``bus[3]``), read anywhere a name may
  stand and written for every name that is not a plain identifier.

This is enough to round-trip every design generated by
:mod:`repro.circuits` and to import externally synthesized netlists
mapped onto the :mod:`repro.netlist.cells` library.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.netlist.cells import FEEDBACK_PORTS, LIBRARY, get_cell
from repro.netlist.netlist import Netlist
from repro.utils.errors import NetlistError

_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
#: A plain identifier, or an escaped one: a backslash and everything up
#: to the next white space (never backtracked into).
_IDENT = rf"(?:\\\S+(?!\S)|{_PLAIN.pattern})"


def _name(identifier: str) -> str:
    """The name an identifier stands for: an escaped identifier names
    its text without the leading backslash."""
    return identifier[1:] if identifier[:1] == "\\" else identifier


def _identifier(name: str) -> str:
    """``name`` as a Verilog identifier, escaped unless plain."""
    if _PLAIN.fullmatch(name):
        return name
    if not name or any(char.isspace() for char in name):
        raise NetlistError(
            f"name {name!r} cannot be written as a Verilog identifier"
        )
    return "\\" + name + " "


def output_port_name(cell_name: str) -> str:
    """Verilog output-port name for a library cell."""
    return "Q" if get_cell(cell_name).sequential else "Y"


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
def to_verilog(netlist: Netlist) -> str:
    """Render ``netlist`` as structural Verilog text."""
    input_names = netlist.input_names()
    output_ports = netlist.output_names()
    net_names = [_identifier(net.name) for net in netlist.nets]
    port_list = ", ".join(_identifier(name)
                          for name in input_names + output_ports)

    lines: List[str] = [
        "// generated by repro.netlist.verilog",
        f"module {_identifier(netlist.name)} ({port_list});",
    ]
    for name in input_names:
        lines.append(f"  input {_identifier(name)};")
    for name in output_ports:
        lines.append(f"  output {_identifier(name)};")

    port_names = set(input_names) | set(output_ports)
    for net, name in zip(netlist.nets, net_names):
        if net.name not in port_names:
            lines.append(f"  wire {name};")

    # Primary outputs whose port name differs from the driving net.
    for net_index, port in netlist.primary_outputs:
        if netlist.nets[net_index].name != port:
            lines.append(
                f"  assign {_identifier(port)} = {net_names[net_index]};"
            )

    for gate in netlist.gates:
        feedback = FEEDBACK_PORTS.get(gate.cell.name)
        connections = []
        for port, net in zip(gate.cell.ports, gate.inputs):
            if port == feedback:
                continue  # implicit self-connection, rebuilt on read
            connections.append(f".{port}({net_names[net]})")
        out_port = output_port_name(gate.cell.name)
        connections.append(f".{out_port}({net_names[gate.output]})")
        lines.append(
            f"  {gate.cell.name} {_identifier(gate.instance)} "
            f"({', '.join(connections)});"
        )
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog(netlist: Netlist, path: Union[str, Path]) -> None:
    """Write ``netlist`` to ``path`` as structural Verilog."""
    Path(path).write_text(to_verilog(netlist), encoding="utf-8")


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
#
# The reader is a streaming front end: a statement lexer walks the text
# exactly once (tracking line numbers and stripping comments as it
# goes), a classifier turns statements into declarations / assigns /
# instances, and a single Kahn pass over the name-dependency graph
# computes the insertion round of every combinational gate and assign
# alias.  The gates are then handed to :meth:`Netlist.from_gates` in
# one bulk batch under deferred cache invalidation.  The pipeline is
# O(len(text) + V + E) plus one stable O(V log V) sort, and produces
# netlists bitwise-identical to the historical repeated-sweep parser.

_TOKEN_RE = re.compile(r"\\\S+|//[^\n]*|/\*|;|\n|\bendmodule\b")
_MODULE_RE = re.compile(rf"^module\s+({_IDENT})\s*\((.*)\)\s*$")
_ASSIGN_RE = re.compile(rf"^assign\s+({_IDENT})\s*=\s*({_IDENT})$")
_CONNECTION_RE = re.compile(rf"\.({_IDENT})\s*\(\s*({_IDENT})\s*\)")
_INSTANCE_RE = re.compile(rf"^({_IDENT})\s+({_IDENT})\s*\((.*)\)$")
#: The names of a declaration: comma- or space-separated tokens, where
#: an escaped identifier runs to white space, commas included.
_DECLARED_RE = re.compile(r"\\\S+|[^\s,]+")


def _lex_statements(text: str):
    """Yield ``(kind, line, statement)`` triples in one streaming pass.

    ``kind`` is ``"stmt"`` for a ``;``-terminated statement (comments
    stripped, newlines collapsed to spaces, ``line`` = line of the
    statement's first token) or ``"end"`` for an ``endmodule`` keyword.
    Statement text still pending when ``endmodule`` is hit is yielded
    first: a final unterminated statement is accepted, as it always
    has been.
    """
    line = 1
    pos = 0
    parts: List[str] = []
    stmt_line = 0

    def flush() -> Tuple[str, int]:
        nonlocal parts, stmt_line
        statement, start = "".join(parts).strip(), stmt_line
        parts, stmt_line = [], 0
        return statement, start

    while True:
        match = _TOKEN_RE.search(text, pos)
        chunk = text[pos:match.start()] if match else text[pos:]
        if chunk:
            if not stmt_line and not chunk.isspace():
                stmt_line = line
            parts.append(chunk)
        if match is None:
            break
        token = match.group()
        pos = match.end()
        if token[0] == "\\":  # an escaped identifier, kept whole
            if not stmt_line:
                stmt_line = line
            parts.append(token)
        elif token == "\n":
            line += 1
            parts.append(" ")
        elif token == ";":
            statement, start = flush()
            if statement:
                yield "stmt", start, statement
        elif token == "endmodule":
            statement, start = flush()
            if statement:
                yield "stmt", start, statement
            yield "end", line, token
        elif token == "/*":
            close = text.find("*/", pos)
            if close < 0:
                raise NetlistError(
                    f"line {line}: unterminated block comment"
                )
            line += text.count("\n", pos, close)
            pos = close + 2
            parts.append(" ")
        else:  # // line comment (no newline consumed)
            parts.append(" ")
    statement, start = flush()
    if statement:
        yield "stmt", start, statement


class _Instance:
    """Parsed cell instantiation awaiting netlist insertion."""

    def __init__(
        self,
        cell_name: str,
        name: str,
        connections: Dict[str, str],
        line: int,
    ):
        self.cell = get_cell(cell_name)
        self.name = name
        self.connections = connections
        self.line = line
        out_port = output_port_name(cell_name)
        if out_port not in connections:
            raise NetlistError(
                f"line {line}: instance {name} of {cell_name} has no "
                f"output connection .{out_port}(...)"
            )
        self.output_net = connections[out_port]

    def wired_input_ports(self) -> List[str]:
        feedback = FEEDBACK_PORTS.get(self.cell.name)
        return [port for port in self.cell.ports if port != feedback]

    def input_net_names(self) -> List[str]:
        names = []
        for port in self.wired_input_ports():
            if port not in self.connections:
                raise NetlistError(
                    f"line {self.line}: instance {self.name} missing "
                    f"connection .{port}(...)"
                )
            names.append(self.connections[port])
        return names


def from_verilog(text: str) -> Netlist:
    """Parse structural Verilog text into a :class:`Netlist`.

    Parse errors (unknown cells, missing connections, nets with two
    drivers, combinational loops, unresolvable aliases) are reported
    with the 1-based source line of the offending statement.
    """
    module_name = None
    input_decls: List[Tuple[str, int]] = []
    output_decls: List[Tuple[str, int]] = []
    assigns: List[Tuple[str, str, int]] = []
    instances: List[_Instance] = []
    ended = False

    for kind, line, statement in _lex_statements(text):
        if module_name is None:
            # Text outside the module is ignored, matching the old
            # search-for-module behaviour.
            if kind == "stmt" and statement.split(None, 1)[0] == "module":
                header = _MODULE_RE.match(statement)
                if not header:
                    raise NetlistError("no module found in Verilog source")
                module_name = _name(header.group(1))
            continue
        if kind == "end":
            ended = True
            break
        head = statement.split(None, 1)[0]
        if head in ("input", "output", "wire"):
            names = [_name(token) for token in
                     _DECLARED_RE.findall(statement, len(head))]
            if head == "input":
                input_decls.extend((name, line) for name in names)
            elif head == "output":
                output_decls.extend((name, line) for name in names)
            continue  # wire declarations carry no structure
        if head == "assign":
            assign_match = _ASSIGN_RE.match(statement)
            if not assign_match:
                raise NetlistError(
                    f"line {line}: unsupported assign: {statement!r}"
                )
            assigns.append((_name(assign_match.group(1)),
                            _name(assign_match.group(2)), line))
            continue
        inst_match = _INSTANCE_RE.match(statement)
        if not inst_match:
            raise NetlistError(
                f"line {line}: unparseable statement: {statement!r}"
            )
        cell_name, instance, connection_text = inst_match.groups()
        cell_name, instance = _name(cell_name), _name(instance)
        if cell_name not in LIBRARY:
            raise NetlistError(
                f"line {line}: unknown cell {cell_name!r} in {statement!r}"
            )
        connections = {
            _name(port): _name(net)
            for port, net in _CONNECTION_RE.findall(connection_text)
        }
        instances.append(_Instance(cell_name, instance, connections, line))

    if module_name is None or not ended:
        raise NetlistError("no module found in Verilog source")

    return _build_module(module_name, input_decls, output_decls,
                         assigns, instances)


def _build_module(
    module_name: str,
    input_decls: List[Tuple[str, int]],
    output_decls: List[Tuple[str, int]],
    assigns: List[Tuple[str, str, int]],
    instances: List[_Instance],
) -> Netlist:
    """Resolve dependency order in one Kahn pass and build the netlist.

    Combinational gates land in the exact order the historical
    repeated-sweep parser inserted them: each gate's sweep round is the
    max over its dependencies (same-pass for earlier statements,
    next-pass for later ones; assigns resolve after the gates of their
    round), and gates are stably sorted by (round, statement position).
    """
    flops = [inst for inst in instances if inst.cell.sequential]
    combinational = [inst for inst in instances if not inst.cell.sequential]
    n_comb = len(combinational)
    n_nodes = n_comb + len(assigns)

    seen_instances: set = set()
    for inst in instances:
        if inst.name in seen_instances:
            raise NetlistError(
                f"line {inst.line}: duplicate instance name {inst.name!r}"
            )
        seen_instances.add(inst.name)

    # Producer table: net name -> -1 for primary inputs and flop
    # outputs (available from the first round), else the dependency
    # node that creates it (comb gate i -> i, assign j -> n_comb + j).
    producer: Dict[str, int] = {}

    def declare(name: str, line: int, node: int) -> None:
        if name in producer:
            raise NetlistError(f"line {line}: net {name!r} has two drivers")
        producer[name] = node

    for name, line in input_decls:
        declare(name, line, -1)
    comb_position = {id(inst): i for i, inst in enumerate(combinational)}
    for inst in instances:
        if inst.cell.sequential:
            declare(inst.output_net, inst.line, -1)
        else:
            declare(inst.output_net, inst.line, comb_position[id(inst)])
    for j, (lhs, _, line) in enumerate(assigns):
        declare(lhs, line, n_comb + j)

    # Dependency edges producer-node -> consumer-node; base producers
    # (inputs, flop outputs) contribute round 1 and need no edge.
    comb_inputs = [inst.input_net_names() for inst in combinational]
    edges_from: List[List[int]] = [[] for _ in range(n_nodes)]
    indegree = [0] * n_nodes

    def reference(name: str, line: int, consumer: int) -> None:
        node = producer.get(name)
        if node is None:
            raise NetlistError(
                f"line {line}: net {name!r} used but never driven"
            )
        if node >= 0:
            edges_from[node].append(consumer)
            indegree[consumer] += 1

    for i, inst in enumerate(combinational):
        for name in comb_inputs[i]:
            reference(name, inst.line, i)
    for j, (_, rhs, line) in enumerate(assigns):
        reference(rhs, line, n_comb + j)
    for inst in flops:
        for name in inst.input_net_names():
            if name not in producer:
                raise NetlistError(
                    f"line {inst.line}: net {name!r} used but never driven"
                )

    # Kahn traversal; rounds replicate the old sweep schedule, and
    # assign aliases are canonicalized in dependency order.
    rounds = [1] * n_nodes
    canonical: Dict[str, str] = {}
    ready = [node for node in range(n_nodes) if indegree[node] == 0]
    cursor = 0
    while cursor < len(ready):
        u = ready[cursor]
        cursor += 1
        r_u = rounds[u]
        u_assign = u >= n_comb
        if u_assign:
            lhs, rhs, _ = assigns[u - n_comb]
            canonical[lhs] = canonical.get(rhs, rhs)
        for v in edges_from[u]:
            v_assign = v >= n_comb
            if u_assign:
                contribution = r_u if v_assign and u < v else r_u + 1
            else:
                contribution = r_u if v_assign or u < v else r_u + 1
            if contribution > rounds[v]:
                rounds[v] = contribution
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)

    if cursor < n_nodes:
        stuck_nodes = [node for node in range(n_nodes) if indegree[node] > 0]
        stuck = [
            combinational[node].name if node < n_comb
            else assigns[node - n_comb][0]
            for node in stuck_nodes
        ]
        lines = [
            combinational[node].line if node < n_comb
            else assigns[node - n_comb][2]
            for node in stuck_nodes
        ]
        raise NetlistError(
            f"could not resolve drivers for {stuck[:8]} "
            f"(combinational loop or missing driver) at lines {lines[:8]}"
        )

    def resolve(name: str) -> str:
        return canonical.get(name, name)

    gates: List[Tuple[str, str, List[str], str]] = []
    for i in sorted(range(n_comb), key=lambda i: (rounds[i], i)):
        inst = combinational[i]
        gates.append((
            inst.cell.name, inst.name,
            [resolve(name) for name in comb_inputs[i]],
            inst.output_net,
        ))
    for inst in flops:
        gates.append((
            inst.cell.name, inst.name,
            [resolve(name) for name in inst.input_net_names()],
            inst.output_net,
        ))

    outputs: List[Tuple[str, str]] = []
    for name, line in output_decls:
        if name not in producer:
            raise NetlistError(f"line {line}: output {name!r} never driven")
        outputs.append((resolve(name), name))

    return Netlist.from_gates(
        module_name,
        [name for name, _ in input_decls],
        gates,
        outputs,
    )


def read_verilog(path: Union[str, Path]) -> Netlist:
    """Read a structural Verilog file into a :class:`Netlist`."""
    return from_verilog(Path(path).read_text(encoding="utf-8"))
