"""Compile a netlist into straight-line bitwise Python.

The bit-parallel engine (:mod:`repro.sim.bitparallel`) evaluates a
netlist on Python ints: bit *k* of a net's int is the net's value in
lane *k*, and an int is as wide as the pass needs.  Each netlist is
compiled once into source with one statement per gate, in topological
order::

    V[out] = (<expr> & K[out]) | F[out]

``V`` holds the net values, ``K`` and ``F`` each net's keep and force
masks (stuck-at faults clear and force lanes inline), and ``M`` every
lane of the pass.  ``<expr>`` is the gate's cell function called on
symbolic operands that only combine with ``&``, ``|`` and ``^``, so the
library (:mod:`repro.netlist.cells`) stays the only definition of each
cell, and every traced expression is checked against the cell's truth
table.  Flip-flops commit through a staging list ``S``, so every next
state reads this cycle's values.

The source holds only integer net indices and the tracer's own text,
never a name taken from the netlist.  It is split into functions of
:data:`CHUNK_STATEMENTS` statements, each compiled on its own: compiling
one function per netlist costs far more peak memory than many small
ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.netlist.cells import Cell
from repro.utils.errors import UntraceableCellError

if TYPE_CHECKING:
    from repro.netlist.netlist import Gate, Netlist

#: Statements per generated function.
CHUNK_STATEMENTS = 64


class _Operand:
    """A symbolic cell input: it combines with ``&``, ``|`` and ``^``
    on other operands, and refuses everything else (``~``, arithmetic,
    constants, comparisons, and branching on its value)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def _combine(self, other: object, symbol: str) -> "_Operand":
        if not isinstance(other, _Operand):
            raise TypeError(f"combines an input with {other!r}")
        return _Operand(f"({self.text} {symbol} {other.text})")

    def __and__(self, other: object) -> "_Operand":
        return self._combine(other, "&")

    def __or__(self, other: object) -> "_Operand":
        return self._combine(other, "|")

    def __xor__(self, other: object) -> "_Operand":
        return self._combine(other, "^")

    def __bool__(self) -> bool:
        raise TypeError("branches on an input value")

    def __eq__(self, other: object) -> bool:
        raise TypeError("compares input values")


def cell_template(cell: Cell) -> str:
    """``cell``'s function as an expression over ``{0}``, ``{1}``, ...
    (its inputs in port order) and ``M`` (every lane).

    Raises :class:`UntraceableCellError` when the function is not a
    pure ``&``/``|``/``^`` expression of its inputs, or when the traced
    expression disagrees with :meth:`Cell.truth_table`.
    """
    operands = [_Operand("{%d}" % port) for port in range(cell.n_inputs)]
    try:
        traced = cell.function(operands, _Operand("M"))
    except (TypeError, AttributeError, IndexError) as error:
        raise UntraceableCellError(
            f"cell {cell.name!r} is not a pure &/|/^ function of its "
            f"inputs: {error}"
        ) from error
    if not isinstance(traced, _Operand):
        raise UntraceableCellError(
            f"cell {cell.name!r} returns {type(traced).__name__}, not a "
            "bitwise expression of its inputs"
        )
    evaluate = eval(  # every character was written by the tracer
        "lambda v, M: " + traced.text.format(
            *(f"v[{port}]" for port in range(cell.n_inputs))
        ),
        {"__builtins__": {}},
    )
    for bits, out in cell.truth_table():
        if evaluate(bits, 1) & 1 != out:
            raise UntraceableCellError(
                f"cell {cell.name!r} traces to an expression that "
                f"disagrees with its truth table at inputs {bits}"
            )
    return traced.text


@dataclass(frozen=True)
class CompiledNetlist:
    """One netlist's settle and commit steps as compiled functions.

    Every function takes ``(V, K, F, M)``: net values, per-net keep
    and force masks, and the all-lanes mask; commit functions also take
    the staging list ``S``.  ``source`` is the text the functions were
    compiled from.
    """

    settle_chunks: Tuple[Callable[..., None], ...]
    commit_chunks: Tuple[Callable[..., None], ...]
    n_flops: int
    source: Tuple[str, ...]

    def settle(self, values: List[int], keep: Sequence[int],
               force: Sequence[int], lanes: int) -> None:
        """Evaluate every combinational gate in topological order."""
        for chunk in self.settle_chunks:
            chunk(values, keep, force, lanes)

    def commit(self, values: List[int], keep: Sequence[int],
               force: Sequence[int], lanes: int) -> None:
        """Clock every flip-flop; each next state reads this cycle's
        values."""
        staged = [0] * self.n_flops
        for chunk in self.commit_chunks:
            chunk(values, keep, force, lanes, staged)


def compile_netlist(netlist: "Netlist") -> CompiledNetlist:
    """Compile ``netlist``'s gates (see the module docstring)."""
    templates: Dict[Cell, str] = {}

    def expression(gate: "Gate") -> str:
        template = templates.get(gate.cell)
        if template is None:
            template = templates[gate.cell] = cell_template(gate.cell)
        return template.format(
            *(f"V[{operator.index(net)}]" for net in gate.inputs)
        )

    settle = []
    for index in netlist.topological_order():
        gate = netlist.gates[index]
        if not gate.is_sequential:
            out = operator.index(gate.output)
            settle.append(
                f"V[{out}] = ({expression(gate)} & K[{out}]) | F[{out}]"
            )
    flops = netlist.sequential_gates()
    commit = []
    for slot, gate in enumerate(flops):
        out = operator.index(gate.output)
        commit.append(
            f"S[{slot}] = ({expression(gate)} & K[{out}]) | F[{out}]"
        )
    commit.extend(
        f"V[{operator.index(gate.output)}] = S[{slot}]"
        for slot, gate in enumerate(flops)
    )

    settle_source = _chunk_sources(settle, "V, K, F, M")
    commit_source = _chunk_sources(commit, "V, K, F, M, S")
    return CompiledNetlist(
        settle_chunks=tuple(_define(text) for text in settle_source),
        commit_chunks=tuple(_define(text) for text in commit_source),
        n_flops=len(flops),
        source=tuple(settle_source + commit_source),
    )


def _chunk_sources(statements: List[str], arguments: str) -> List[str]:
    """``statements`` as function definitions of at most
    :data:`CHUNK_STATEMENTS` statements each."""
    return [
        f"def chunk({arguments}):\n    " + "\n    ".join(
            statements[start:start + CHUNK_STATEMENTS]
        ) + "\n"
        for start in range(0, len(statements), CHUNK_STATEMENTS)
    ]


def _define(source: str) -> Callable[..., None]:
    namespace: Dict[str, object] = {"__builtins__": {}}
    exec(compile(source, "<compiled netlist>", "exec"), namespace)
    return namespace["chunk"]  # type: ignore[return-value]
