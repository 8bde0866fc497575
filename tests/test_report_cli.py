import csv
import io
import json
import pathlib

import pytest
from click.testing import CliRunner

from pbmap import bench, trees
from pbmap.cli import main
from pbmap.flow import map_graph
from pbmap.netlist import write_blif
from pbmap.report import (CSV_HEADER, MappingReport, ReportError, build_report,
                          emit)
from test_netlist import and_chain_blif

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbmap" / "data"
KSA4 = DATA / "ksa4.blif"


@pytest.fixture(scope="module")
def ksa_report(lib, table):
    res = map_graph(bench.ksa4(), lib, table)
    return build_report(res)


def test_build_report_fields(ksa_report):
    r = ksa_report
    assert r.circuit == "ksa4"
    assert r.dffs_after <= r.dffs_before
    assert r.logical_depth == 6
    assert r.area > 0 and r.jj_total > 0
    assert 0.0 <= r.hit_rate <= 1.0


def test_json_round_trip(ksa_report):
    doc = json.loads(emit([ksa_report], "json"))
    assert doc["schema_version"] == 1
    for key, val in ksa_report.to_dict().items():
        assert doc[key] == val


def test_csv_header_and_rows(ksa_report):
    text = emit([ksa_report], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("ksa4,")
    assert len(lines) == 2  # no averages row for a single circuit


def test_csv_batch_appends_average(ksa_report):
    other = MappingReport("x", 2, 1, 0.5, 10, 3, 0, 0.5, 0.01, 0)
    lines = emit([ksa_report, other], "csv").strip().split("\n")
    assert lines[-1].startswith("average,")
    assert len(lines) == 4


def test_csv_quotes_a_circuit_name_with_a_comma(ksa_report):
    named = MappingReport("a,b", 29, 25, 0.5, 10, 3, 0, 0.5, 0.01, 0)
    rows = list(csv.reader(io.StringIO(emit([named, ksa_report], "csv"))))
    assert {len(row) for row in rows} == {len(CSV_HEADER.split(","))}
    assert rows[1][:3] == ["a,b", "29", "25"]
    # a plain name is written bare, as before the csv module wrote the rows
    assert emit([ksa_report], "csv").splitlines()[1].startswith("ksa4,")


def test_text_table(ksa_report):
    text = emit([ksa_report], "text")
    assert text.splitlines()[0].startswith("circuit")
    assert "ksa4" in text


def test_unknown_format_rejected(ksa_report):
    with pytest.raises(ReportError):
        emit([ksa_report], "yaml")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_map_ksa4_text():
    runner = CliRunner()
    result = runner.invoke(main, ["map", str(KSA4)])
    assert result.exit_code == 0
    assert "ksa4" in result.output


def test_cli_map_json_depth6():
    runner = CliRunner()
    result = runner.invoke(main, ["map", "--json", str(KSA4)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["logical_depth"] == 6
    assert doc["dffs_after"] <= doc["dffs_before"]


def test_cli_map_no_retime_reports_before():
    runner = CliRunner()
    res = runner.invoke(main, ["map", "--json", "--no-retime", str(KSA4)])
    doc = json.loads(res.output)
    assert doc["dffs_after"] == doc["dffs_before"]


def test_cli_map_writes_netlist_and_csv(tmp_path):
    out = tmp_path / "mapped.blif"
    csv = tmp_path / "report.csv"
    runner = CliRunner()
    result = runner.invoke(main, ["map", str(KSA4), "-o", str(out),
                                  "--csv", str(csv)])
    assert result.exit_code == 0
    assert out.read_text().startswith(".model")
    assert csv.read_text().startswith(CSV_HEADER)


@pytest.mark.parametrize("option", ["-o", "--csv"])
def test_cli_directory_as_output_path_is_a_usage_error(tmp_path, monkeypatch,
                                                       option):
    # once every circuit was mapped first, then the write exited 4
    def refuse(*args, **kwargs):
        raise AssertionError("a circuit was mapped")

    monkeypatch.setattr("pbmap.flow.map_graph", refuse)
    result = CliRunner().invoke(main, ["map", str(KSA4), option,
                                       str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "is a directory" in result.output


def test_cli_map_directory_batch(tmp_path):
    for g in (bench.and_chain(6), bench.ripple_adder(3)):
        (tmp_path / f"{g.name}.blif").write_text(write_blif(g))
    runner = CliRunner()
    result = runner.invoke(main, ["map", str(tmp_path)])
    assert result.exit_code == 0
    assert "chain6" in result.output
    assert "rca3" in result.output


def test_cli_map_deterministic_netlist(tmp_path):
    runner = CliRunner()
    outs = []
    for i in range(2):
        out = tmp_path / f"m{i}.blif"
        res = runner.invoke(main, ["map", str(KSA4), "-o", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # reports identical except wall-clock runtime
    docs = [json.loads(runner.invoke(main, ["map", "--json", str(KSA4)]).output)
            for _ in range(2)]
    for d in docs:
        d.pop("runtime")
    assert docs[0] == docs[1]


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.blif"
    bad.write_text(".model x\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end\n")
    runner = CliRunner()
    result = runner.invoke(main, ["map", str(bad)])
    assert result.exit_code == 2


def test_cli_truncated_aag_exit_code(tmp_path):
    bad = tmp_path / "short.aag"
    bad.write_text("aag 3 2 0 1 1\n2\n4\n6\n")  # header declares an and line
    result = CliRunner().invoke(main, ["map", str(bad)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "line 5" in result.output


def test_cli_aag_undefined_literal_exit_code(tmp_path):
    bad = tmp_path / "undef.aag"
    bad.write_text("aag 3 2 0 1 1\n2\n4\n6\n6 2 8\n")  # 8 is never defined
    result = CliRunner().invoke(main, ["map", str(bad)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "line 5: undefined literal 8" in result.output


def test_cli_aag_cyclic_ands_exit_code(tmp_path):
    bad = tmp_path / "cycle.aag"
    bad.write_text("aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 8 4\n")  # 8 <-> 6
    result = CliRunner().invoke(main, ["map", str(bad)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "line 6: cyclic definition of literal 8" in result.output


def test_cli_duplicate_output_name_exit_code(tmp_path):
    # once mapped to a netlist in which two cells write net f
    bad = tmp_path / "dup.blif"
    bad.write_text(".model x\n.inputs a b\n.outputs f f\n"
                   ".names a b f\n11 1\n.end\n")
    result = CliRunner().invoke(main, ["map", str(bad)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "duplicate output name 'f'" in result.output


@pytest.mark.parametrize("symbols,message", [
    ("i0 a\ni1 b\no0 a\n", "output 'a' is named like an input"),
    ("i0 my in\ni1 b\no0 f\n", "input name 'my in' holds whitespace"),
], ids=["po-named-like-a-pi", "name-with-space"])
def test_cli_aag_port_name_exit_code(tmp_path, symbols, message):
    # once mapped, the first gives net a two drivers and the second
    # declares three inputs
    bad = tmp_path / "names.aag"
    bad.write_text("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n" + symbols)
    out = tmp_path / "out.blif"
    result = CliRunner().invoke(main, ["map", "-o", str(out), str(bad)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert message in result.output
    assert not out.exists()


def test_cli_emit_names_nets_apart_from_ports(tmp_path):
    # net n3 is the PI, so the AND node's net is renamed; PO a is PI a
    src = tmp_path / "clash.blif"
    src.write_text(".model t\n.inputs n3 a\n.outputs a f\n"
                   ".names n3 a f\n11 1\n.end\n")
    runner = CliRunner()
    first = runner.invoke(main, ["emit", str(src)])
    assert first.exit_code == 0, first.output
    again = tmp_path / "again.blif"
    again.write_text(first.output)
    second = runner.invoke(main, ["emit", str(again)])
    assert second.exit_code == 0, second.output
    assert second.output == first.output



def test_cli_maps_and_writes_with_a_logic_cell_named_like_a_splitter(tmp_path):
    # placed first, nosplit_and was once the library's splitter, and
    # writing the netlist failed on its two pins (exit 4)
    genlib = tmp_path / "nosplit.genlib"
    genlib.write_text("GATE nosplit_and 0.0060 o=a*b; # JJ=6 CLOCKED=1\n"
                      + (DATA / "sfq.genlib").read_text())
    out = tmp_path / "ksa4.mapped.blif"
    result = CliRunner().invoke(main, ["map", "--lib", str(genlib), "-o",
                                       str(out), str(KSA4)])
    assert result.exit_code == 0, result.output
    assert ".gate split a=" in out.read_text()


def test_cli_inverting_dff_exits_3(tmp_path):
    # once the balancing DFF by its name, inverting every padded signal
    genlib = tmp_path / "invdff.genlib"
    genlib.write_text((DATA / "sfq.genlib").read_text()
                      .replace("q=a;", "q=!a;"))
    result = CliRunner().invoke(main, ["map", "--lib", str(genlib), str(KSA4)])
    assert result.exit_code == 3, result.output
    assert "library has no DFF cell" in result.output


def test_cli_infinite_area_exits_3(tmp_path):
    # once mapped, with "area": Infinity in the --json report, which is no
    # JSON (RFC 8259)
    genlib = tmp_path / "inf.genlib"
    genlib.write_text((DATA / "sfq.genlib").read_text()
                      .replace("GATE and2   0.0060", "GATE and2 1e400"))
    result = CliRunner().invoke(main, ["map", "--lib", str(genlib), "--json",
                                       str(KSA4)])
    assert result.exit_code == 3, result.output
    assert "cell 'and2' has a non-finite area '1e400'" in result.output
    assert "Infinity" not in result.output


@pytest.mark.parametrize("old,new,error", [
    ("GATE and2   0.0060", "GATE and2   -1.0", "a negative area '-1.0'"),
    ("o=a*b;   # JJ=6", "o=a*b;   # JJ=-6", "an unreadable JJ count '-6'")],
    ids=["negative_area", "unreadable_jj"])
def test_cli_nonsense_cell_cost_exits_3(tmp_path, old, new, error):
    # each once mapped with exit 0: a negative "area", or ksa4's jj_total
    # down from 633 to 489 with the and2 cells read as 0 JJs
    text = (DATA / "sfq.genlib").read_text()
    genlib = tmp_path / "bad.genlib"
    genlib.write_text(text.replace(old, new, 1))
    assert genlib.read_text() != text
    result = CliRunner().invoke(main, ["map", "--lib", str(genlib), "--json",
                                       str(KSA4)])
    assert result.exit_code == 3, result.output
    assert f"cell 'and2' has {error}" in result.output


def test_cli_unreadable_clocked_flag_exits_3(tmp_path):
    # once mapped with exit 0, the inverter taken as clocked: a flag other
    # than 0 or 1 was read as no flag
    text = (DATA / "sfq.genlib").read_text()
    genlib = tmp_path / "bad.genlib"
    genlib.write_text(text.replace("# JJ=4 CLOCKED=0", "# JJ=4 CLOCKED=2", 1))
    assert "GATE inv    0.0030 o=!a;    # JJ=4 CLOCKED=2" in genlib.read_text()
    result = CliRunner().invoke(main, ["map", "--lib", str(genlib), "--json",
                                       str(KSA4)])
    assert result.exit_code == 3, result.output
    assert "cell 'inv' has an unreadable CLOCKED flag '2'" in result.output


def test_cli_library_expression_error_names_its_cell(tmp_path):
    badlib = tmp_path / "bad.genlib"
    badlib.write_text((DATA / "sfq.genlib").read_text()
                      + "GATE or2x 0.005 o=a|b;\n")
    result = CliRunner().invoke(main, ["map", "--lib", str(badlib), str(KSA4)])
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "cell 'or2x': trailing tokens in expression: |" in result.output


def test_cli_emit_deep_blif_chain(tmp_path):
    src = tmp_path / "deep.blif"
    src.write_text(and_chain_blif(5000))
    result = CliRunner().invoke(main, ["emit", str(src)])
    assert result.exit_code == 0, result.output
    assert result.output.count(".names") == 5001  # the ANDs plus the PO buffer


def test_cli_map_deep_alternating_chain(tmp_path):
    src = tmp_path / "altchain500.blif"
    src.write_text(write_blif(bench.alternating_chain(500)))
    result = CliRunner().invoke(main, ["map", "--json", str(src)])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert json.loads(result.output)["circuit"] == "altchain500"


@pytest.mark.parametrize("cmd", ["map", "emit", "hit-rate"])
def test_cli_non_utf8_netlist_exit_code(tmp_path, cmd):
    bad = tmp_path / "bad.blif"
    bad.write_bytes(b".model x\n.inputs a\xff\n.outputs f\n.names a f\n1 1\n.end\n")
    result = CliRunner().invoke(main, [cmd, str(bad)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "not UTF-8" in result.output


def test_cli_non_utf8_library_exit_code(tmp_path):
    badlib = tmp_path / "bad.genlib"
    badlib.write_bytes((DATA / "sfq.genlib").read_bytes() + b"# \xff\n")
    result = CliRunner().invoke(main, ["map", "--lib", str(badlib), str(KSA4)])
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "not UTF-8" in result.output


@pytest.mark.parametrize("args,code,stage", [
    (["map", "--lib", "{dir}", str(KSA4)], 3, "library"),
    (["emit", "{dir}"], 2, "parse"),
    # a directory of netlists is an input to map and hit-rate; this one
    # holds none
    (["hit-rate", "{dir}"], 2, "input"),
    (["map", "{dir}"], 2, "input"),
    (["map", "--csv", "{dir}/missing/x.csv", str(KSA4)], 4, "write"),
], ids=["lib-dir", "emit-dir", "hit-rate-dir", "map-dir", "csv-missing-dir"])
def test_cli_unreadable_path_keeps_exit_code(tmp_path, args, code, stage):
    result = CliRunner().invoke(
        main, [a.replace("{dir}", str(tmp_path)) for a in args])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"error [{stage}" in result.output
    assert "Traceback" not in result.output


def test_cli_map_output_needs_single_input(tmp_path):
    out = tmp_path / "out.blif"
    result = CliRunner().invoke(main, ["map", "-o", str(out), str(KSA4),
                                       str(KSA4)])
    assert result.exit_code == 2
    assert "single input" in result.output
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["blif", "verilog"])
def test_cli_po_named_like_a_pi_exits_4(tmp_path, fmt):
    src = tmp_path / "m.blif"
    src.write_text(".model m\n.inputs a b c\n.outputs a f\n"
                   ".names a b t\n11 1\n.names t c f\n11 1\n.end\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["map", "-o", str(out),
                                       "--netlist-format", fmt, str(src)])
    assert result.exit_code == 4
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error [write]: PO a is named like a PI" in result.stderr
    assert not out.exists()


def test_cli_po_that_is_its_own_pi_has_no_verilog(tmp_path):
    # the BLIF of the same network is valid; Verilog would declare port a
    # as both input and output
    src = tmp_path / "w.blif"
    src.write_text(".model w\n.inputs a b\n.outputs a\n.end\n")
    out = tmp_path / "w.v"
    result = CliRunner().invoke(main, ["map", "-o", str(out),
                                       "--netlist-format", "verilog", str(src)])
    assert result.exit_code == 4
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error [write]: PO a is named like a PI" in result.stderr
    assert not out.exists()
    blif = tmp_path / "w.blif.out"
    result = CliRunner().invoke(main, ["map", "-o", str(blif), str(src)])
    assert result.exit_code == 0
    assert blif.read_text() == ".model w\n.inputs a b\n.outputs a\n.end\n"


def test_cli_uncoverable_node_blames_supergate_depth():
    # depth-1 supergates are single cells: no cell of the bundled library
    # is an AND with a complemented input
    result = CliRunner().invoke(main, ["map", "--supergate-depth", "1",
                                       str(KSA4)])
    assert result.exit_code == 4
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "(positive) has no matchable cut" in result.stderr
    assert "supergate depth" in result.stderr


@pytest.mark.parametrize("args", [
    ["map", "-k", "9"], ["map", "-k", "1"],
    ["map", "--supergate-depth", "0"], ["hit-rate", "-k", "9"],
    ["hit-rate", "--supergate-depth", "0"],
])
def test_cli_out_of_range_option_is_usage_error(args):
    result = CliRunner().invoke(main, args + [str(KSA4)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Invalid value" in result.output


def test_cli_library_error_exit_code(tmp_path):
    badlib = tmp_path / "bad.genlib"
    badlib.write_text("GATE and2 2.0 o=a*b;\n")  # no inverter/dff/splitter
    runner = CliRunner()
    result = runner.invoke(main, ["map", "--lib", str(badlib), str(KSA4)])
    assert result.exit_code == 3


def test_cli_analyze_tree_height4_pins9():
    runner = CliRunner()
    result = runner.invoke(main, ["analyze-tree", "--height", "4",
                                  "--pins", "9"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["y"] == {"y2": 1, "y3": 1, "y4": 1}
    assert doc["pins"] == 9
    assert doc["nodes"] == 8
    assert doc["pin_identity"] is True


def test_cli_analyze_tree_default_is_most_unbalanced():
    runner = CliRunner()
    result = runner.invoke(main, ["analyze-tree", "-x", "5"])
    doc = json.loads(result.output)
    assert doc["nodes"] == 9  # two chains under a root
    assert doc["buffers"] == 12


@pytest.mark.parametrize("args", [["-x", "0"], ["-x", "4", "-n", "100"],
                                  ["-x", "4", "-n", "4"]])
def test_cli_analyze_tree_bad_shape_is_usage_error(args):
    result = CliRunner().invoke(main, ["analyze-tree", *args])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_cli_analyze_tree_taller_than_the_recursion_limit():
    result = CliRunner().invoke(main, ["analyze-tree", "-x", "3000"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["height"] == 3000
    assert doc["buffers"] == 2998 * 2999
    assert doc["nodes"] == 2 * 3000 - 1


def test_cli_check_identities_all_ok():
    runner = CliRunner()
    result = runner.invoke(main, ["check-identities", "--max-height", "12"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert result.output.count("ok  ") == 5


def test_cli_check_identities_pin_count_can_fail(monkeypatch):
    # a measure that sees one gate too many must fail the pin check
    real = trees.measure_tree
    monkeypatch.setattr(trees, "measure_tree",
                        lambda tree: real((tree, None)))
    result = CliRunner().invoke(main, ["check-identities", "--max-height", "4"])
    assert result.exit_code == 1
    assert "FAIL pin count = node count + 1 (random trees)" in result.output



def test_cli_check_identities_minimal_profile_can_fail(monkeypatch):
    # (0, 3) has the 5 pins of the minimal (1, 1) at height 3, and one more
    # buffer: a pin-count check alone cannot see it
    real = trees.most_balanced
    monkeypatch.setattr(trees, "most_balanced", lambda x, n: (
        trees.TreeProfile(3, (0, 3)) if (x, n) == (3, 5) else real(x, n)))
    assert trees.most_balanced(3, 5).n == 5
    result = CliRunner().invoke(main, ["check-identities", "--max-height", "4"])
    assert result.exit_code == 1
    assert "FAIL most-balanced profile is minimal" in result.output


@pytest.mark.parametrize("height", ["1", "-3"])
def test_cli_check_identities_rejects_a_height_that_checks_nothing(height):
    # the push-to-last-level check starts at height 2: below it no case runs
    result = CliRunner().invoke(main, ["check-identities", "--max-height",
                                       height])
    assert result.exit_code == 2
    assert "ok  " not in result.output


def test_cli_hit_rate():
    runner = CliRunner()
    result = runner.invoke(main, ["hit-rate", "--json", str(KSA4)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert 0.0 < doc["ksa4"] <= 1.0


def test_cli_hit_rate_reads_a_directory(tmp_path):
    # the netlists of a directory, as map reads them
    for g in (bench.and_chain(6), bench.ripple_adder(3)):
        (tmp_path / f"{g.name}.blif").write_text(write_blif(g))
    (tmp_path / "notes.txt").write_text("not a netlist")
    runner = CliRunner()
    result = runner.invoke(main, ["hit-rate", "--json", str(tmp_path)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert sorted(doc) == ["chain6", "rca3"]
    mapped = runner.invoke(main, ["map", "--json", str(tmp_path)])
    assert [d["circuit"] for d in json.loads(mapped.output)] == sorted(doc)
    assert [d["hit_rate"] for d in json.loads(mapped.output)] == [
        doc[name] for name in sorted(doc)]


def test_cli_emit_round_trip(tmp_path):
    src = tmp_path / "c.blif"
    src.write_text(write_blif(bench.and_chain(5)))
    runner = CliRunner()
    first = runner.invoke(main, ["emit", str(src)])
    assert first.exit_code == 0
    again = tmp_path / "c2.blif"
    again.write_text(first.output)
    second = runner.invoke(main, ["emit", str(again)])
    assert second.output == first.output
