"""Tests for the structural-Verilog reader/writer."""

import numpy as np
import pytest

from repro.circuits import random_netlist
from repro.netlist import (
    Netlist,
    from_verilog,
    read_verilog,
    to_verilog,
    validate,
    write_verilog,
)
from repro.sim import Simulator, random_workload
from repro.utils.errors import NetlistError


def roundtrip(netlist):
    return from_verilog(to_verilog(netlist))


def test_roundtrip_preserves_structure(all_designs):
    for design in all_designs:
        parsed = roundtrip(design)
        validate(parsed)
        assert parsed.name == design.name
        assert parsed.n_gates == design.n_gates
        assert parsed.n_nets == design.n_nets
        assert sorted(parsed.node_names()) == sorted(design.node_names())
        assert parsed.input_names() == design.input_names()
        assert parsed.output_names() == design.output_names()


def test_roundtrip_preserves_behaviour(icfsm):
    parsed = roundtrip(icfsm)
    workload = random_workload(icfsm, cycles=40, seed=5)
    original = Simulator(icfsm).run(workload)
    replay = Simulator(parsed).run(workload)
    assert np.array_equal(original.outputs, replay.outputs)


def test_roundtrip_random_netlists():
    for seed in range(4):
        netlist = random_netlist(n_inputs=5, n_gates=30, n_flops=4,
                                 n_outputs=3, seed=seed)
        parsed = roundtrip(netlist)
        validate(parsed)
        workload = random_workload(netlist, cycles=30, seed=seed,
                                   reset_input="in_0")
        a = Simulator(netlist).run(workload)
        b = Simulator(parsed).run(workload)
        assert np.array_equal(a.outputs, b.outputs)


def test_file_io(tmp_path, tiny_netlist):
    path = tmp_path / "tiny.v"
    write_verilog(tiny_netlist, path)
    parsed = read_verilog(path)
    assert parsed.n_gates == tiny_netlist.n_gates


def test_parse_simple_module():
    source = """
    // a comment
    module demo (a, b, y);
      input a, b;      /* grouped decl */
      output y;
      wire n1;
      ND2 U1 (.A0(a), .A1(b), .Y(n1));
      IV U2 (.A0(n1), .Y(y));
    endmodule
    """
    netlist = from_verilog(source)
    assert netlist.name == "demo"
    assert netlist.n_gates == 2
    assert netlist.node_names() == ["ND2_U1", "IV_U2"]


def test_parse_out_of_order_statements():
    source = """
    module ooo (a, y);
      input a;
      output y;
      IV U2 (.A0(n1), .Y(y));
      IV U1 (.A0(a), .Y(n1));
    endmodule
    """
    netlist = from_verilog(source)
    assert netlist.n_gates == 2
    validate(netlist)


def test_parse_assign_alias():
    source = """
    module alias_demo (a, y);
      input a;
      output y;
      assign y = n1;
      IV U1 (.A0(a), .Y(n1));
    endmodule
    """
    netlist = from_verilog(source)
    assert netlist.n_gates == 1
    assert netlist.output_names() == ["y"]


def test_parse_flop_feedback():
    source = """
    module counter1 (rst, q);
      input rst;
      output q;
      IV U1 (.A0(q), .Y(nq));
      DFFR R1 (.D(nq), .R(rst), .Q(q));
    endmodule
    """
    netlist = from_verilog(source)
    validate(netlist)
    sim = Simulator(netlist)
    values = [sim.step({"rst": 0})["q"] for _ in range(4)]
    assert values == [0, 1, 0, 1]  # toggle flop


def test_parse_errors():
    with pytest.raises(NetlistError, match="no module"):
        from_verilog("wire x;")
    with pytest.raises(NetlistError, match="unknown cell"):
        from_verilog("module m (a, y); input a; output y;"
                     " FOO U1 (.A0(a), .Y(y)); endmodule")
    with pytest.raises(NetlistError, match="output"):
        from_verilog("module m (a, y); input a; output y;"
                     " IV U1 (.A0(a)); endmodule")
    with pytest.raises(NetlistError, match="never driven|could not"):
        from_verilog("module m (a, y); input a; output y;"
                     " IV U1 (.A0(nx), .Y(y)); endmodule")
    with pytest.raises(NetlistError, match="unsupported assign"):
        from_verilog("module m (a, y); input a; output y;"
                     " assign y = a & a; endmodule")


def test_parse_combinational_loop_rejected():
    source = """
    module loopy (a, y);
      input a;
      output y;
      AN2 U1 (.A0(a), .A1(n2), .Y(n1));
      OR2 U2 (.A0(n1), .A1(a), .Y(n2));
      OR2 U3 (.A0(n1), .A1(n2), .Y(y));
    endmodule
    """
    with pytest.raises(NetlistError, match="could not resolve"):
        from_verilog(source)


# ----------------------------------------------------------------------
# line-numbered parse errors
# ----------------------------------------------------------------------
def parse_error(source):
    with pytest.raises(NetlistError) as excinfo:
        from_verilog(source)
    return str(excinfo.value)


def test_error_unknown_cell_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a;\n"
        "  output y;\n"
        "  FOO U1 (.A0(a), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 4" in message and "unknown cell 'FOO'" in message


def test_error_missing_output_connection_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  IV U1 (.A0(a));\n"
        "endmodule\n"
    )
    assert "line 3" in message
    assert "no output connection .Y(...)" in message


def test_error_missing_input_connection_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  ND2 U1 (.A0(a), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 3" in message
    assert "missing connection .A1(...)" in message


def test_error_two_drivers_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  IV U1 (.A0(a), .Y(y));\n"
        "  IV U2 (.A0(a), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 4" in message and "net 'y' has two drivers" in message


def test_error_two_drivers_flop_vs_gate_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  IV U1 (.A0(a), .Y(q));\n"
        "  DFF R1 (.D(a), .Q(q));\n"
        "  IV U2 (.A0(q), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 4" in message and "net 'q' has two drivers" in message


def test_error_never_driven_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  IV U1 (.A0(nx), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 3" in message and "never driven" in message


def test_error_undriven_output_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a;\n"
        "  output y;\n"
        "  BUF U1 (.A0(a), .Y(n1));\n"
        "endmodule\n"
    )
    assert "line 3" in message and "output 'y' never driven" in message


def test_error_combinational_loop_reports_lines():
    message = parse_error(
        "module loopy (a, y);\n"
        "  input a; output y;\n"
        "  AN2 U1 (.A0(a), .A1(n2), .Y(n1));\n"
        "  OR2 U2 (.A0(n1), .A1(a), .Y(n2));\n"
        "  BUF U3 (.A0(n1), .Y(y));\n"
        "endmodule\n"
    )
    assert "could not resolve drivers for ['U1', 'U2', 'U3']" in message
    assert "at lines [3, 4, 5]" in message


def test_error_unsupported_assign_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  assign y = a & a;\n"
        "endmodule\n"
    )
    assert "line 3" in message and "unsupported assign" in message


def test_error_duplicate_instance_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  IV U1 (.A0(a), .Y(n1));\n"
        "  IV U1 (.A0(n1), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 4" in message
    assert "duplicate instance name 'U1'" in message


def test_error_unterminated_comment_reports_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "  /* oops\n"
        "  IV U1 (.A0(a), .Y(y));\n"
        "endmodule\n"
    )
    assert "line 3" in message
    assert "unterminated block comment" in message


def test_multiline_statements_report_first_line():
    message = parse_error(
        "module m (a, y);\n"
        "  input a; output y;\n"
        "\n"
        "  FOO U1 (.A0(a),\n"
        "          .Y(y));\n"
        "endmodule\n"
    )
    assert "line 4" in message


def test_final_statement_without_semicolon_still_parses():
    # The historical parser accepted an unterminated final statement.
    netlist = from_verilog(
        "module m (a, y); input a; output y;"
        " IV U1 (.A0(a), .Y(y)) endmodule"
    )
    assert netlist.n_gates == 1


def test_escaped_identifiers_read_as_their_names():
    text = (
        "module \\top.v  (\\a[0] , b, \\y;z );\n"
        "  input \\a[0] , b;\n"
        "  output \\y;z ;\n"
        "  wire \\n/*1*/ ;\n"
        "  ND2 \\u$1//x  (.A0(\\a[0] ), .A1(b), .Y(\\n/*1*/ ));\n"
        "  assign \\y;z  = \\n/*1*/ ;\n"
        "endmodule\n"
    )
    netlist = from_verilog(text)
    assert netlist.name == "top.v"
    assert netlist.input_names() == ["a[0]", "b"]
    assert netlist.output_names() == ["y;z"]
    assert netlist.gate_by_instance("u$1//x").cell.name == "ND2"
    assert netlist.nets[netlist.gates[0].output].name == "n/*1*/"
    # An escaped plain name is the plain name.
    assert from_verilog(text.replace("\\top.v ", "\\top ")).name == "top"


def test_roundtrip_escapes_names_that_are_not_identifiers():
    netlist = Netlist.from_gates(
        "core[0]",
        ["in,0", "in;1", "plain"],
        [("AN2", "u/1", ["in,0", "in;1"], "n[0]"),
         ("DFF", "q(0)", ["n[0]"], "state\\0"),
         ("OR2", "u2", ["state\\0", "plain"], "out//0")],
        outputs=[("out//0", "y.0"), ("n[0]", "n[0]")],
    )
    parsed = roundtrip(netlist)
    assert parsed.name == "core[0]"
    assert [net.name for net in parsed.nets] == [
        net.name for net in netlist.nets
    ]
    assert sorted(parsed.node_names()) == sorted(netlist.node_names())
    assert parsed.output_names() == ["y.0", "n[0]"]
    assert to_verilog(roundtrip(parsed)) == to_verilog(parsed)
    assert "  input plain;" in to_verilog(netlist)


def test_names_with_white_space_cannot_be_written():
    netlist = Netlist("spaced")
    netlist.add_output(netlist.add_input("a b"), "y")
    with pytest.raises(NetlistError, match="'a b'"):
        to_verilog(netlist)
