"""Golden QoR snapshot: the exact figures of the default flow on a small
corpus with the bundled library.

A change meant to leave the mapper's results alone (a speed-up, a refactor)
must keep every figure here.  A change that moves QoR on purpose updates the
snapshot and says why in CHANGES.md.
"""

import hashlib

import pytest

from pbmap import bench, flow
from pbmap.netlist import random_aig
from test_balance import independent_arrivals

# circuit: (dffs_before, dffs_after, jj_total, splitters, depth)
GOLDEN = {
    "ksa16": (252, 225, 5104, 407, 10),
    "alu8": (453, 270, 2556, 147, 18),
    "bshift16": (384, 12, 2340, 236, 8),
    "prio16": (80, 63, 839, 50, 9),
    "rand200": (654, 441, 5764, 418, 9),
}

# circuit: sha256 of (before BLIF, before Verilog, after BLIF, after Verilog)
GOLDEN_TEXT = {
    "ksa16": ("7a2c671ca4b1e7abee3beacb47d3ebed75bd17b3863f90ff9b5080e97a0df5ec",
              "52fb41eb661797971fab81682ed737f385cc083159a69e5519c2d467361d6b7a",
              "db4a1104cb87f9258828e2a104b4fce4e2412d35180281ab0f2122b33babef5c",
              "775910f3190170065bec9672ae84a1a95389e7ae621177ac57839ed2df53659d"),
    "alu8": ("f2c72201a2831d51ef153b957f5f09f4802952148bd3b7292e5382ca2be53dca",
             "1d85b7dc0a478a5aefcd67977b4d80229f912a8e57506d6fbb66af8f3a3394dd",
             "6f5cd2c3bf5d9a6427e1c0dda107cb6dac110e1e13b11c7476fdcaed5aee448d",
             "72a65c6d01acdbff6c0b88210a7221115f15cc842ed2ef570a036b071babe507"),
    "bshift16": ("2d511072f09ab47c00b462d5ce9c0326d8608031295f8218496f1be3a6c4d1a2",
                 "f69d514d4a70938664d43991949f80a8bb4cbe5f2dc58bfd4202278213efc2d3",
                 "79976a0c2f98be19cbee99af9c806c2ea7542391596a3c359ebc1760509778dd",
                 "7248061c3b7ac9750c42757dc3774691104817a62b76f568bd15f83645ccdbb4"),
    "prio16": ("f7d34e1256cc9da87a033b2d0de98f0446b1a20da4279e6aa7940f9ddcbe9809",
               "a1efa3138617eeeeb6b05fb6215e50bb7a02dd825fe08d19720fbdaeb8b32e1f",
               "a1e6d9a150e90948a3cbd2cd5975dd6a8a0cfe59bbbe771ce9af2dae03934baa",
               "234609ba8a6920061c23963aa762b4404b3add5127fda62c5ae47a6d758fec87"),
    "rand200": ("cd7e95091bbd94d7e0e073f3e626ff084dce0108ce611eb2fe2e2190ec79ffa3",
                "1232ca9eb6fb167fbe67f938e3d20ba3258e2277e3378f07d6a0037911fb8ec3",
                "46461f18bac107f0339cc5cc258f4634bd06ae06da65e239e711604c17746117",
                "c3590265d4f50224ad8264f1a0d204d85c54d05b85fa98c80290a0746bc62a53"),
}

CIRCUITS = {
    "ksa16": lambda: bench.kogge_stone_adder(16),
    "alu8": lambda: bench.alu(8),
    "bshift16": lambda: bench.barrel_shifter(16),
    "prio16": lambda: bench.priority_encoder(16),
    "rand200": lambda: random_aig(200, 16, seed=5, n_pos=None),
}


@pytest.fixture(scope="module")
def mapped(lib, table):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = flow.map_graph(CIRCUITS[name](), lib, table)
        return cache[name]
    return get


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_qor(name, mapped):
    res = mapped(name)
    got = (res.dffs_before, res.dffs_after, res.after.jj_count,
           res.after.splitter_count, res.after.depth)
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_netlist_text(name, mapped):
    res = mapped(name)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for net in (res.before, res.after)
                for text in (net.write_blif(), net.write_verilog()))
    assert got == GOLDEN_TEXT[name]
    # depth is the one PO arrival of the balanced network, before and after
    # retiming, by an arrival walk written independently of the mapper's
    for net in (res.before, res.after):
        h = independent_arrivals(net)
        po_arr = {h[s] + net.dff.get((s, ("po", i)), 0)
                  for i, s in enumerate(net.pos)}
        assert po_arr == {net.depth}
