"""Netlist emission: byte-exact writer output on a network whose PI and PO
names collide with every generated name, and the memory the writers take."""

import tracemalloc

import pytest
from click.testing import CliRunner

from pbmap import bench
from pbmap.balance import CHUNK_CHARS, BalanceError
from pbmap.cli import main
from pbmap.flow import map_graph, prepare_match_table
from pbmap.library import parse_library
from pbmap.netlist import parse_netlist, write_blif

from conftest import DATA

# PIs named like an internal net (n5), DFF nets (pbd0), a DFF label
# (u_pbd1), the clock (clk) and an instance label (u0); POs named like an
# instance label (u3), a DFF net (pbd2) and an internal net (n7).  Pads on
# PI and PO edges keep DFFs after retiming.
CLASH = (".model clash\n.inputs n5 pbd0 u_pbd1 clk u0 d\n"
         ".outputs u3 pbd2 n7 f\n"
         ".names n5 pbd0 x\n11 1\n.names x u_pbd1 y\n11 1\n"
         ".names y clk u3\n10 1\n.names d pbd2\n1 1\n.names u0 d n7\n11 1\n"
         ".names u3 n7 f\n01 1\n.end\n")


BLIF_BEFORE = """\
.model clash
.inputs n5 pbd0 u_pbd1 clk u0 d
.outputs u3 pbd2 n7 f
.gate split a=u0 o=n14 o2=n15
.gate split a=d o=n16 o2=n17
.gate split a=n17 o=n18 o2=n19
.gate and2 a=n5 b=pbd0 o=n6
.gate inv a=clk o=n7_1
.gate and2 a=u_pbd1 b=n7_1 o=n8
.gate and2 a=n8 b=n6 o=n9
.gate split a=n9 o=n20 o2=n21
.gate and2 a=n14 b=n16 o=n10
.gate and2 a=n15 b=n18 o=n11
.gate inv a=n20 o=n12
.gate dff a=n11 q=pbd0_1
.gate and2 a=pbd0_1 b=n12 o=n13
.gate dff a=n21 q=pbd1
.names pbd1 u3
1 1
.gate dff a=n19 q=pbd2_1
.gate dff a=pbd2_1 q=pbd3
.gate dff a=pbd3 q=pbd4
.names pbd4 pbd2
1 1
.gate dff a=n10 q=pbd5
.gate dff a=pbd5 q=pbd6
.names pbd6 n7
1 1
.names n13 f
1 1
.end
"""

VERILOG_BEFORE = """\
module clash (n5, pbd0, u_pbd1, clk, u0, d, u3, pbd2, n7, f, clk_1);
  input n5, pbd0, u_pbd1, clk, u0, d, clk_1;
  output u3, pbd2, n7, f;
  wire n10, n11, n12, n13, n14, n15, n16, n17, n18, n19, n20, n21, n6, n7_1, n8, n9, pbd0_1, pbd1, pbd2_1, pbd3, pbd4, pbd5, pbd6;
  split u0_1 (.a(u0), .o(n14), .o2(n15));
  split u1 (.a(d), .o(n16), .o2(n17));
  split u2 (.a(n17), .o(n18), .o2(n19));
  and2 u3_1 (.a(n5), .b(pbd0), .o(n6), .clk(clk_1));
  inv u4 (.a(clk), .o(n7_1));
  and2 u5 (.a(u_pbd1), .b(n7_1), .o(n8), .clk(clk_1));
  and2 u6 (.a(n8), .b(n6), .o(n9), .clk(clk_1));
  split u7 (.a(n9), .o(n20), .o2(n21));
  and2 u8 (.a(n14), .b(n16), .o(n10), .clk(clk_1));
  and2 u9 (.a(n15), .b(n18), .o(n11), .clk(clk_1));
  inv u10 (.a(n20), .o(n12));
  dff u_pbd0_1 (.a(n11), .q(pbd0_1), .clk(clk_1));
  and2 u11 (.a(pbd0_1), .b(n12), .o(n13), .clk(clk_1));
  dff u_pbd1_1 (.a(n21), .q(pbd1), .clk(clk_1));
  assign u3 = pbd1;
  dff u_pbd2_1 (.a(n19), .q(pbd2_1), .clk(clk_1));
  dff u_pbd3 (.a(pbd2_1), .q(pbd3), .clk(clk_1));
  dff u_pbd4 (.a(pbd3), .q(pbd4), .clk(clk_1));
  assign pbd2 = pbd4;
  dff u_pbd5 (.a(n10), .q(pbd5), .clk(clk_1));
  dff u_pbd6 (.a(pbd5), .q(pbd6), .clk(clk_1));
  assign n7 = pbd6;
  assign f = n13;
endmodule
"""

BLIF_AFTER = """\
.model clash
.inputs n5 pbd0 u_pbd1 clk u0 d
.outputs u3 pbd2 n7 f
.gate dff a=u0 q=pbd0_1
.gate split a=pbd0_1 o=n14 o2=n15
.gate dff a=d q=pbd1
.gate split a=pbd1 o=n16 o2=n17
.gate split a=n17 o=n18 o2=n19
.gate and2 a=n5 b=pbd0 o=n6
.gate inv a=clk o=n7_1
.gate and2 a=u_pbd1 b=n7_1 o=n8
.gate and2 a=n8 b=n6 o=n9
.gate split a=n9 o=n20 o2=n21
.gate and2 a=n14 b=n16 o=n10
.gate and2 a=n15 b=n18 o=n11
.gate inv a=n20 o=n12
.gate and2 a=n11 b=n12 o=n13
.gate dff a=n21 q=pbd2_1
.names pbd2_1 u3
1 1
.gate dff a=n19 q=pbd3
.gate dff a=pbd3 q=pbd4
.names pbd4 pbd2
1 1
.gate dff a=n10 q=pbd5
.names pbd5 n7
1 1
.names n13 f
1 1
.end
"""

VERILOG_AFTER = """\
module clash (n5, pbd0, u_pbd1, clk, u0, d, u3, pbd2, n7, f, clk_1);
  input n5, pbd0, u_pbd1, clk, u0, d, clk_1;
  output u3, pbd2, n7, f;
  wire n10, n11, n12, n13, n14, n15, n16, n17, n18, n19, n20, n21, n6, n7_1, n8, n9, pbd0_1, pbd1, pbd2_1, pbd3, pbd4, pbd5;
  dff u_pbd0_1 (.a(u0), .q(pbd0_1), .clk(clk_1));
  split u0_1 (.a(pbd0_1), .o(n14), .o2(n15));
  dff u_pbd1_1 (.a(d), .q(pbd1), .clk(clk_1));
  split u1 (.a(pbd1), .o(n16), .o2(n17));
  split u2 (.a(n17), .o(n18), .o2(n19));
  and2 u3_1 (.a(n5), .b(pbd0), .o(n6), .clk(clk_1));
  inv u4 (.a(clk), .o(n7_1));
  and2 u5 (.a(u_pbd1), .b(n7_1), .o(n8), .clk(clk_1));
  and2 u6 (.a(n8), .b(n6), .o(n9), .clk(clk_1));
  split u7 (.a(n9), .o(n20), .o2(n21));
  and2 u8 (.a(n14), .b(n16), .o(n10), .clk(clk_1));
  and2 u9 (.a(n15), .b(n18), .o(n11), .clk(clk_1));
  inv u10 (.a(n20), .o(n12));
  and2 u11 (.a(n11), .b(n12), .o(n13), .clk(clk_1));
  dff u_pbd2_1 (.a(n21), .q(pbd2_1), .clk(clk_1));
  assign u3 = pbd2_1;
  dff u_pbd3 (.a(n19), .q(pbd3), .clk(clk_1));
  dff u_pbd4 (.a(pbd3), .q(pbd4), .clk(clk_1));
  assign pbd2 = pbd4;
  dff u_pbd5 (.a(n10), .q(pbd5), .clk(clk_1));
  assign n7 = pbd5;
  assign f = n13;
endmodule
"""


@pytest.fixture(scope="module")
def clash(lib, table):
    return map_graph(parse_netlist(CLASH), lib, table)


def test_writers_are_byte_exact_on_colliding_names(clash):
    assert (clash.dffs_before, clash.dffs_after) == (7, 6)
    assert clash.before.write_blif() == BLIF_BEFORE
    assert clash.before.write_verilog() == VERILOG_BEFORE
    assert clash.after.write_blif() == BLIF_AFTER
    assert clash.after.write_verilog() == VERILOG_AFTER


# constant POs z (0) and y (1) on either side of the logic PO f
CONST_PORTS = (".model m\n.inputs a b\n.outputs z f y\n.names z\n"
               ".names a b f\n11 1\n.names y\n1\n.end\n")


@pytest.mark.parametrize("fmt,head", [
    ("blif", ".model m\n.inputs a b\n.outputs z f y\n"),
    ("verilog", "module m (a, b, z, f, y, clk);\n  input a, b, clk;\n"
                "  output z, f, y;\n"),
])
def test_constant_pos_keep_their_port_position(lib, table, fmt, head):
    net = map_graph(parse_netlist(CONST_PORTS), lib, table).after
    assert "".join(net.netlist_chunks(fmt)).startswith(head)


# model, PI and PO names that are no simple Verilog identifier, or are a
# reserved word, are written as escaped identifiers; the others as they are
ODD_NAMES = (".model top.1\n.inputs a[0] b.1 wire\n.outputs f<0> g\n"
             ".names a[0] b.1 f<0>\n11 1\n.names b.1 wire g\n11 1\n.end\n")
VERILOG_ODD_NAMES = r"""module \top.1  (\a[0] , \b.1 , \wire , \f<0> , g, clk);
  input \a[0] , \b.1 , \wire , clk;
  output \f<0> , g;
  wire n3, n4, n5, n6;
  split u0 (.a(\b.1 ), .o(n5), .o2(n6));
  and2 u1 (.a(\a[0] ), .b(n5), .o(n3), .clk(clk));
  and2 u2 (.a(n6), .b(\wire ), .o(n4), .clk(clk));
  assign \f<0>  = n3;
  assign g = n4;
endmodule
"""


def test_verilog_escapes_names_that_are_no_identifier(lib, table):
    net = map_graph(parse_netlist(ODD_NAMES), lib, table).after
    assert net.write_verilog() == VERILOG_ODD_NAMES
    # BLIF takes any name without whitespace as it is
    assert net.write_blif().startswith(
        ".model top.1\n.inputs a[0] b.1 wire\n.outputs f<0> g\n")


# the bundled library with a cell name and pin names that are no Verilog
# identifier (and2.x, or%2) or are reserved words (input, reg)
VERILOG_ODD_CELLS = r"""module m (a, b, c, f, clk);
  input a, b, c, clk;
  output f;
  wire n3, n4, pbd0;
  \and2.x  u0 (.\input (a), .b(b), .o(n3), .clk(clk));
  dff u_pbd0 (.a(c), .q(pbd0), .clk(clk));
  \or%2  u1 (.a(n3), .\reg (pbd0), .o(n4), .clk(clk));
  assign f = n4;
endmodule
"""


def test_verilog_escapes_cell_and_pin_names():
    text = ((DATA / "sfq.genlib").read_text()
            .replace("GATE and2   0.0060 o=a*b;",
                     "GATE and2.x 0.0060 o=input*b;")
            .replace("GATE or2    0.0050 o=a+b;", "GATE or%2 0.0050 o=a+reg;"))
    odd = parse_library(text, name="odd")
    g = parse_netlist(".model m\n.inputs a b c\n.outputs f\n"
                      ".names a b t\n11 1\n.names t c f\n1- 1\n-1 1\n.end\n")
    net = map_graph(g, odd, prepare_match_table(odd)).after
    assert net.write_verilog() == VERILOG_ODD_CELLS
    # BLIF takes the names as they are
    assert ".gate or%2 a=n3 reg=pbd0 o=n4\n" in net.write_blif()


@pytest.fixture(scope="module")
def rca64(lib, table):
    return map_graph(bench.ripple_adder(64), lib, table).after


@pytest.mark.parametrize("fmt", ["blif", "verilog"])
def test_writers_peak_near_the_text_length(rca64, fmt):
    # the chunks and their join, not a list of lines beside the text
    write = rca64.write_blif if fmt == "blif" else rca64.write_verilog
    tracemalloc.start()
    try:
        text = write()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 4 * CHUNK_CHARS  # several chunks
    assert peak < 2.5 * len(text), (peak, len(text))


@pytest.mark.parametrize("fmt", ["blif", "verilog"])
def test_cli_output_file_is_the_written_text(tmp_path, rca64, fmt):
    src = tmp_path / "rca64.blif"
    src.write_text(write_blif(bench.ripple_adder(64)))
    out = tmp_path / f"rca64.{fmt}"
    result = CliRunner().invoke(main, ["map", "-o", str(out),
                                       "--netlist-format", fmt, str(src)])
    assert result.exit_code == 0, result.output
    text = rca64.write_blif() if fmt == "blif" else rca64.write_verilog()
    assert out.read_bytes() == text.encode()


def test_unwritable_network_raises_before_any_text(lib, table):
    # a PO named like a PI and delayed by pad DFFs: the net would have two
    # drivers, which netlist_chunks finds before it makes a chunk
    text = (".model m\n.inputs a b c\n.outputs a f\n"
            ".names a b t\n11 1\n.names t c f\n11 1\n.end\n")
    net = map_graph(parse_netlist(text), lib, table).after
    for fmt in ("blif", "verilog"):
        with pytest.raises(BalanceError, match="PO a is named like a PI"):
            net.netlist_chunks(fmt)
    with pytest.raises(ValueError, match="unknown netlist format"):
        net.netlist_chunks("edif")
