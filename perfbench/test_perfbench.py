"""Tests of the benchmark itself: seeded inputs, the clocked-inverter
library, the metric list in BENCHMARK.json and the output check."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

from pbmap import bench, flow  # noqa: E402
from pbmap.library import parse_library  # noqa: E402
from pbmap.netlist import parse_netlist  # noqa: E402


def _digests(seed: int) -> dict[str, str]:
    return {f"{name}/{c.name}": hashlib.sha256(c.blif.encode()).hexdigest()
            for name in WORKLOADS for c in workloads.build(name, seed).circuits}


def test_one_seed_gives_byte_identical_blif():
    # a second interpreter with another string-hash seed must agree too
    code = ("import json, test_perfbench as t; "
            "print(json.dumps(t._digests(7)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert json.loads(out) == _digests(7)


def test_seed_draws_the_random_circuit():
    a = {c.name: c.blif for c in workloads.build("prefix", 1).circuits}
    b = {c.name: c.blif for c in workloads.build("prefix", 2).circuits}
    assert a["ksa64"] == b["ksa64"]
    assert a["rand600"] != b["rand600"]
    # every sink stays a PO, so the draw keeps (nearly) all of its ANDs
    assert len(parse_netlist(a["rand600"]).nodes) > 500


def test_clocked_inv_genlib_differs_only_in_the_inverter_clocking():
    bundled = workloads.BUNDLED_GENLIB.read_text().splitlines()
    clocked = workloads.CLOCKED_INV_GENLIB.read_text().splitlines()
    assert len(bundled) == len(clocked)
    diff = [(a, b) for a, b in zip(bundled, clocked) if a != b]
    assert len(diff) == 1
    old, new = diff[0]
    assert old.split()[:2] == ["GATE", "inv"]
    assert old.replace("CLOCKED=0", "CLOCKED=1") == new


def test_benchmark_json_lists_the_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_output_check_catches_a_wrong_gate():
    lib = parse_library(workloads.BUNDLED_GENLIB.read_text(), name="sfq")
    table = flow.prepare_match_table(lib)
    graph = bench.ksa4()
    res = flow.map_graph(graph, lib, table)
    checks.check_circuit(1, "ksa4", graph, res.graph, {"after": res.after})

    wrong = res.after.copy()
    and2 = next(i for i in wrong.instances if i.cell.name == "and2")
    and2.cell = lib.by_name["or2"]
    with pytest.raises(checks.CheckError):
        checks.check_circuit(1, "ksa4", graph, res.graph, {"after": wrong})
