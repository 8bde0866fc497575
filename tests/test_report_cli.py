import json
import pathlib

import pytest
from click.testing import CliRunner

from pbmap import bench
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
    doc = json.loads(emit(ksa_report, "json"))
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


def test_text_table(ksa_report):
    text = emit([ksa_report], "text")
    assert text.splitlines()[0].startswith("circuit")
    assert "ksa4" in text


def test_unknown_format_rejected(ksa_report):
    with pytest.raises(ReportError):
        emit(ksa_report, "yaml")


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


def test_cli_map_output_needs_single_input(tmp_path):
    out = tmp_path / "out.blif"
    result = CliRunner().invoke(main, ["map", "-o", str(out), str(KSA4),
                                       str(KSA4)])
    assert result.exit_code == 2
    assert "single input" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["map", "-k", "9"], ["map", "-k", "1"], ["map", "--cut-cap", "1"],
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


def test_cli_check_identities_all_ok():
    runner = CliRunner()
    result = runner.invoke(main, ["check-identities", "--max-height", "12"])
    assert result.exit_code == 0
    assert "FAIL" not in result.output
    assert result.output.count("ok  ") == 5


def test_cli_hit_rate():
    runner = CliRunner()
    result = runner.invoke(main, ["hit-rate", "--json", str(KSA4)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert 0.0 < doc["ksa4"] <= 1.0


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
