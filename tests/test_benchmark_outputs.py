"""The benchmark's output check, run on the benchmark's own circuits: every
workload's circuits at seed 1, mapped under the workload's library, are
balanced, splitter-legal and compute their generator's function on 4096
random patterns (``perfbench/checks.py``), before and after retiming,
and keep their instance lists topological, in a copy too.  The benchmark's
modules are imported as they are, never changed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

from pbmap import flow  # noqa: E402
from pbmap.library import parse_library  # noqa: E402
from pbmap.netlist import parse_netlist  # noqa: E402

from conftest import assert_topological  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_pass_the_benchmark_check(name):
    wl = workloads.build(name, SEED)
    lib = parse_library(wl.genlib.read_text(), name=wl.genlib.stem)
    table = flow.prepare_match_table(lib)
    for c in wl.circuits:
        res = flow.map_graph(parse_netlist(c.blif), lib, table)
        checks.check_circuit(SEED, c.name, c.graph, res.graph,
                             {"before retiming": res.before,
                              "after retiming": res.after})
        for net in (res.before, res.before.copy(), res.after):
            assert_topological(net)
