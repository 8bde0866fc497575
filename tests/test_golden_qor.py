"""Golden QoR snapshot: the exact figures of the default flow on a small
corpus with the bundled library.

A change meant to leave the mapper's results alone (a speed-up, a refactor)
must keep every figure here.  A change that moves QoR on purpose updates the
snapshot and says why in CHANGES.md.
"""

import pytest

from pbmap import bench, flow
from pbmap.netlist import random_aig

# circuit: (dffs_before, dffs_after, jj_total, splitters, depth)
GOLDEN = {
    "ksa16": (252, 225, 5104, 407, 10),
    "alu8": (453, 270, 2556, 147, 18),
    "bshift16": (384, 12, 2340, 236, 8),
    "prio16": (80, 63, 839, 50, 9),
    "rand200": (654, 441, 5764, 418, 9),
}

CIRCUITS = {
    "ksa16": lambda: bench.kogge_stone_adder(16),
    "alu8": lambda: bench.alu(8),
    "bshift16": lambda: bench.barrel_shifter(16),
    "prio16": lambda: bench.priority_encoder(16),
    "rand200": lambda: random_aig(200, 16, seed=5, n_pos=None),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_qor(name, lib, table):
    res = flow.map_graph(CIRCUITS[name](), lib, table)
    got = (res.dffs_before, res.dffs_after, res.after.jj_count,
           res.after.splitter_count, res.after.depth)
    assert got == GOLDEN[name]
