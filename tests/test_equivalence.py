"""Mapped networks compute their subject graph's function on circuits too
wide to check exhaustively: seeded random patterns, simulated bit-parallel
on the subject graph and on the mapped network before and after retiming.
Each circuit is mapped by the DP under the bundled library, and then by the
depth-greedy baseline and by the DP under the clocked-inverter library."""

import random

import pytest

from pbmap import bench, flow
from pbmap.netlist import random_aig

CIRCUITS = {
    "ksa32": lambda: bench.kogge_stone_adder(32),
    "alu32": lambda: bench.alu(32),
    "rca64": lambda: bench.ripple_adder(64),
    "bshift32": lambda: bench.barrel_shifter(32),
    "prio32": lambda: bench.priority_encoder(32),
    "rand600": lambda: random_aig(600, 24, seed=5),
}
PATTERNS = 1024  # bit-parallel: one int per signal


def assert_equivalent_on_random_patterns(name, g, res):
    assert len(g.pis) > 10
    rng = random.Random(f"equivalence:{name}")
    mask = (1 << PATTERNS) - 1
    packed = [rng.getrandbits(PATTERNS) for _ in g.pis]
    want = dict(zip(g.po_names,
                    (v & mask for v in g.simulate(dict(zip(g.pis, packed))))))
    by_name = dict(zip((g.pi_names[p] for p in g.pis), packed))
    for tag, net in (("pre-retime", res.before), ("post-retime", res.after)):
        got = net.simulate([by_name[n] for n in net.pi_names], mask)
        bad = sorted(po for po in want if got[po] != want[po])
        assert not bad, (tag, len(bad), bad[:3])


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_wide_circuit_equivalence_on_random_patterns(lib, table, name):
    g = CIRCUITS[name]()
    assert_equivalent_on_random_patterns(name, g, flow.map_graph(g, lib, table))


@pytest.mark.parametrize("variant", ["depth_greedy", "clocked_inv"])
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_wide_circuit_equivalence_variants(lib, table, clocked_lib,
                                           clocked_table, name, variant):
    g = CIRCUITS[name]()
    if variant == "depth_greedy":
        res = flow.map_graph(g, lib, table, depth_greedy=True)
    else:
        res = flow.map_graph(g, clocked_lib, clocked_table)
    assert_equivalent_on_random_patterns(name, g, res)
