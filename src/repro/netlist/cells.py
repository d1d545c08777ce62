"""Generic standard-cell library.

The library models the cell set that appears in the paper's evaluation
(Table 2 names nodes such as ``ND2_U393``, ``AO3_U373``, ``IV_U112``,
``NR4_U129``): inverters/buffers, 2-4 input AND/NAND/OR/NOR, XOR/XNOR,
a 2:1 mux, AND-OR-INVERT / OR-AND-INVERT complex cells, tie cells, and
D flip-flops (plain, with synchronous reset, and with enable).

Every cell's logic is a pure bitwise function so the same definition
drives the scalar reference simulator (operating on Python ints with
``ones == 1``) and the bit-parallel simulator, whose compiler
(:mod:`repro.netlist.compiled`) traces each function into a ``&``/``|``/
``^`` expression over lane ints with ``ones`` set in every lane.
Inversion is expressed as ``x ^ ones`` rather than ``~x`` so Python
ints never go negative.

Sequential cells are modeled uniformly: their function computes the
*next state* from the input values; the simulator owns the state
register and exposes the current state as the cell's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Sequence, Tuple

from repro.utils.errors import NetlistError

# A cell function maps (input_words, ones_mask) -> output_word.  Inputs
# arrive in declared port order.
CellFunction = Callable[[Sequence[object], object], object]

# Memoized truth tables, keyed by the (frozen, hashable) cell itself.
_TRUTH_TABLE_CACHE: Dict["Cell", Tuple] = {}


@dataclass(frozen=True)
class Cell:
    """Immutable description of one library cell.

    Attributes:
        name: Library name, e.g. ``"ND2"``.
        ports: Input port names in positional order.
        function: Bitwise evaluation function (next-state for flops).
        inverting: True when the cell logically negates (the paper's
            "Boolean tag, if gate negates logic" feature).
        sequential: True for state elements (D flip-flops).
        area: Relative area estimate in gate-equivalents, used only by
            netlist statistics.
        description: Human-readable summary.
    """

    name: str
    ports: Tuple[str, ...]
    function: CellFunction
    inverting: bool = False
    sequential: bool = False
    area: float = 1.0
    description: str = ""

    @property
    def n_inputs(self) -> int:
        """Number of input ports."""
        return len(self.ports)

    def evaluate(self, inputs: Sequence[object], ones: object = 1) -> object:
        """Evaluate the cell on bitwise input words.

        For sequential cells this returns the *next state*.
        """
        if len(inputs) != self.n_inputs:
            raise NetlistError(
                f"cell {self.name} expects {self.n_inputs} inputs, "
                f"got {len(inputs)}"
            )
        return self.function(inputs, ones)

    def truth_table(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """Enumerate the full truth table as ((inputs...), output) rows.

        Only meaningful for combinational cells with at least one input;
        used by analytic signal-probability propagation.  Memoized per
        cell: probability propagation calls this once per gate per
        fixpoint iteration, so recomputing 2^n rows each time dominated
        large-design feature extraction.
        """
        cached = _TRUTH_TABLE_CACHE.get(self)
        if cached is None:
            rows = []
            for bits in product((0, 1), repeat=self.n_inputs):
                rows.append((bits, int(self.function(bits, 1)) & 1))
            cached = tuple(rows)
            _TRUTH_TABLE_CACHE[self] = cached
        return cached

    def output_probability(self, input_probabilities: Sequence[float]) -> float:
        """P(output == 1) given independent P(input_i == 1) values.

        Computed exactly from the truth table (cells have at most four
        inputs, so at most 16 minterms).
        """
        if len(input_probabilities) != self.n_inputs:
            raise NetlistError(
                f"cell {self.name} expects {self.n_inputs} probabilities, "
                f"got {len(input_probabilities)}"
            )
        total = 0.0
        for bits, out in self.truth_table():
            if not out:
                continue
            term = 1.0
            for bit, probability in zip(bits, input_probabilities):
                term *= probability if bit else (1.0 - probability)
            total += term
        # Minterm accumulation can overshoot 1.0 by an ulp (e.g. ND4
        # with mixed 0/irrational inputs); the true value is a
        # probability, so clamp the rounding error away.
        return min(1.0, max(0.0, total))


def _ports(count: int) -> Tuple[str, ...]:
    return tuple(f"A{index}" for index in range(count))


def _and(values: Sequence[object]) -> object:
    out = values[0]
    for value in values[1:]:
        out = out & value
    return out


def _or(values: Sequence[object]) -> object:
    out = values[0]
    for value in values[1:]:
        out = out | value
    return out


def _build_library() -> Dict[str, Cell]:
    cells: Dict[str, Cell] = {}

    def add(cell: Cell) -> None:
        if cell.name in cells:
            raise NetlistError(f"duplicate cell {cell.name}")
        cells[cell.name] = cell

    add(Cell("IV", _ports(1), lambda v, ones: v[0] ^ ones,
             inverting=True, area=0.7, description="inverter"))
    add(Cell("BUF", _ports(1), lambda v, ones: v[0],
             area=1.0, description="buffer"))

    for width in (2, 3, 4):
        add(Cell(f"AN{width}", _ports(width),
                 lambda v, ones: _and(v),
                 area=1.0 + 0.3 * width, description=f"{width}-input AND"))
        add(Cell(f"ND{width}", _ports(width),
                 lambda v, ones: _and(v) ^ ones,
                 inverting=True, area=0.8 + 0.3 * width,
                 description=f"{width}-input NAND"))
        add(Cell(f"OR{width}", _ports(width),
                 lambda v, ones: _or(v),
                 area=1.0 + 0.3 * width, description=f"{width}-input OR"))
        add(Cell(f"NR{width}", _ports(width),
                 lambda v, ones: _or(v) ^ ones,
                 inverting=True, area=0.8 + 0.3 * width,
                 description=f"{width}-input NOR"))

    add(Cell("XOR2", _ports(2), lambda v, ones: v[0] ^ v[1],
             area=2.0, description="2-input XOR"))
    add(Cell("XNR2", _ports(2), lambda v, ones: (v[0] ^ v[1]) ^ ones,
             inverting=True, area=2.0, description="2-input XNOR"))

    # MUX2 ports: (A, B, S) -> S ? B : A
    add(Cell("MUX2", ("A", "B", "S"),
             lambda v, ones: (v[0] & (v[2] ^ ones)) | (v[1] & v[2]),
             area=2.2, description="2:1 multiplexer"))

    # Complex AOI/OAI cells, named after the compact LSI-style convention
    # the paper's Table 2 uses (AO2, AO3).
    add(Cell("AO2", _ports(4),
             lambda v, ones: ((v[0] & v[1]) | (v[2] & v[3])) ^ ones,
             inverting=True, area=2.0,
             description="2x2 AND-OR-INVERT: ~((A0&A1)|(A2&A3))"))
    add(Cell("AO3", _ports(3),
             lambda v, ones: ((v[0] & v[1]) | v[2]) ^ ones,
             inverting=True, area=1.6,
             description="2-1 AND-OR-INVERT: ~((A0&A1)|A2)"))
    add(Cell("OA2", _ports(4),
             lambda v, ones: ((v[0] | v[1]) & (v[2] | v[3])) ^ ones,
             inverting=True, area=2.0,
             description="2x2 OR-AND-INVERT: ~((A0|A1)&(A2|A3))"))
    add(Cell("OA3", _ports(3),
             lambda v, ones: ((v[0] | v[1]) & v[2]) ^ ones,
             inverting=True, area=1.6,
             description="2-1 OR-AND-INVERT: ~((A0|A1)&A2)"))

    add(Cell("TIE0", (), lambda v, ones: ones ^ ones,
             area=0.3, description="constant 0"))
    add(Cell("TIE1", (), lambda v, ones: ones,
             area=0.3, description="constant 1"))

    # Sequential cells compute next-state; output is the registered state.
    add(Cell("DFF", ("D",), lambda v, ones: v[0],
             sequential=True, area=4.0, description="D flip-flop"))
    add(Cell("DFFR", ("D", "R"),
             lambda v, ones: v[0] & (v[1] ^ ones),
             sequential=True, area=4.5,
             description="D flip-flop with synchronous reset (R=1 -> 0)"))
    add(Cell("DFFE", ("D", "E", "QFB"),
             lambda v, ones: (v[0] & v[1]) | (v[2] & (v[1] ^ ones)),
             sequential=True, area=5.0,
             description="D flip-flop with enable; port QFB is the fed-back "
                         "current state, wired automatically by Netlist"))
    return cells


LIBRARY: Dict[str, Cell] = _build_library()

#: Cells whose output feeds back their own state (the builder must wire
#: the flop's output net to this input port).
FEEDBACK_PORTS: Dict[str, str] = {"DFFE": "QFB"}


def get_cell(name: str) -> Cell:
    """Look up a cell by library name, raising NetlistError if unknown."""
    try:
        return LIBRARY[name]
    except KeyError:
        raise NetlistError(
            f"unknown cell {name!r}; known cells: {sorted(LIBRARY)}"
        ) from None


def combinational_cells() -> Tuple[str, ...]:
    """Names of all combinational (non-sequential, non-tie) cells."""
    return tuple(
        name for name, cell in LIBRARY.items()
        if not cell.sequential and cell.n_inputs > 0
    )


def sequential_cells() -> Tuple[str, ...]:
    """Names of all sequential cells."""
    return tuple(name for name, cell in LIBRARY.items() if cell.sequential)
