"""The benchmark's traced pipeline calls the stage functions one by one,
``enumerate_cuts``, ``map_dag`` and ``hit_rate`` each on its own; it must
measure the program ``flow.map_graph`` runs."""

import sys
from pathlib import Path

import pytest

from pbmap import bench, flow
from pbmap.netlist import parse_netlist, write_blif

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def qor(before, after):
    return (before.dff_total, after.dff_total, after.jj_count,
            after.splitter_count, after.depth)


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_traced_pipeline_gives_the_flow_result(lib, table, clocked_lib,
                                               clocked_table, lib_name):
    library, tbl = ((lib, table) if lib_name == "bundled"
                    else (clocked_lib, clocked_table))
    blif = write_blif(bench.kogge_stone_adder(16))
    traced = tracing.map_traced(tracing.Spans(), None, "ksa16", blif,
                                library, tbl)
    res = flow.map_graph(parse_netlist(blif), library, tbl)
    assert qor(traced.before, traced.after) == qor(res.before, res.after)
    assert traced.hit_rate == res.hit_rate
    # the traced counters read the cut sets: every kernel row but each
    # node's trivial one
    counts = tracing.layer_counts([traced])
    cutsets = traced.cutsets
    assert counts["cuts.nontrivial"] == len(cutsets.func) - len(cutsets)
