"""Golden QoR snapshot: the exact figures of the default flow on a small
corpus with the bundled library, and of two variants: the depth-greedy
baseline, and the default flow under the clocked-inverter library (the
library of the benchmark's ``clocked_inv.genlib``).

A change meant to leave the mapper's results alone (a speed-up, a refactor)
must keep every figure here.  A change that moves QoR on purpose updates the
snapshot and says why in CHANGES.md.
"""

import hashlib

import pytest

from pbmap import bench, flow
from pbmap.netlist import random_aig
from conftest import assert_topological, balanced_po_arrivals

# circuit: (dffs_before, dffs_after, jj_total, splitters, depth)
GOLDEN = {
    "ksa16": (252, 225, 5104, 407, 10),
    "alu8": (453, 270, 2556, 147, 18),
    "bshift16": (384, 12, 2340, 236, 8),
    "prio16": (80, 63, 839, 50, 9),
    "rand200": (654, 441, 5764, 418, 9),
    # long DFF chains on every carry: guards the writers' chain expansion
    "rca64": (19596, 12030, 53821, 564, 127),
}

# circuit: sha256 of (before BLIF, before Verilog, after BLIF, after Verilog)
GOLDEN_TEXT = {
    "ksa16": ("21bd0ba7f965b20cb93e0d4be02d4d43951af375ec2f9f774e475f1f9210440f",
              "46f2e91ad18b23da3add04b7f244efc1d863df8c0a69a027b79a96f6963a051e",
              "b24ab6863d40393238623c7787f7806de0244ca5fa5efb377d0e7c87fa075b5a",
              "a68253e7ff25f7f340ad20694d9a889d3afd02280a0c8b81b72a353154d23b93"),
    "alu8": ("c73db0a9a06b40a6a84f195c01f8743825e4881bb0881ea029ce61dddba91bf0",
             "dd2fe7c019934893dc6755aa861f69144b975c3b33315ab833573fadbca6f4c2",
             "63f29d8890cd733bb855ec3469a30674844bc9645414b3a4625c8f21d7377aa7",
             "99a8e713cb940dd89744cdb088fb1c0cddedd912e83ac8b94784608eb6e3f200"),
    "bshift16": ("1cf0c29ba3413202620892e7ded35f227e545ced3d36bb53b0e2ce90a2e7bad0",
                 "e6cf703648fbfbef07cd4bbe6fd327a1013882382a64eb78efabd1c22458058d",
                 "f689a33a51057f86e91cac7d1fcd463275299f29310c52a071b491cfb5e9431f",
                 "3baad3d6480b3c5939f197c7b22203c3ec9c7ec0ab0fafc7d2dd1729461bed9f"),
    "prio16": ("3fcfd7df5070087238f72e5c77224c49ac5bc88b97a507cf02c090e2d55ceae0",
               "73d8c3a63570e0769c9d2a779f9a8a70fafc64f6c002afe77f615149d0107915",
               "01d79007ee799c3e5718c8c71c9cc3f6b704d9cf72da023fc744a8bbd3abcf61",
               "bcd84c04f3483ebfa7d431737295171a2d9a78b133007be16fccf6472f6aec24"),
    "rand200": ("dc7eabee7ed3b4c17a65937b56032b95af72e39b63af17dbc8951666aeb87ce1",
                "7b2b25db2bf82fadf34485a9b619bd690718437ea343ad20dbc97f7cf6241215",
                "6cf97f8b42bc284b349b5ebf157b2d980d53a8dd15994a738356961c71a3d4e2",
                "d0b632bd3fcaa93553017920eaa12f52a87c31a6fba670055f5782939d1928bd"),
    "rca64": ("c438ec42a3da870c79d6bd34f42d5b5097ce5a2e8c3030082682900344f997fa",
              "a68f19ac99b7d391fb4e4f9248bb36a2e1b4c09746179b1b6a4a8e8e9f7d52aa",
              "a338e85792c0b1b593ee49c422116e560dcd85634a2c79ac9986d60a71b8c1f7",
              "b00625822e7a8673c1743559566860061e834888fc874324e08a9233c9ddd911"),
}

# (variant, circuit): (dffs_before, dffs_after, jj_total, splitters, depth,
#                      sha256 of the four netlist texts, in GOLDEN_TEXT's order)
GOLDEN_VARIANTS = {
    ("depth_greedy", "ksa16"): (269, 220, 4475, 349, 10,
        "0d5e410e0af78d8f7059ca592222321a89ed28e0c23d5d5d0df0e482889b6157"),
    ("depth_greedy", "alu8"): (464, 270, 2411, 133, 18,
        "5a5d39569a1bf5a49d64e5c3c9bfd800e1e2fd590091590366c0a492b68f9fca"),
    ("depth_greedy", "bshift16"): (384, 12, 2340, 236, 8,
        "1215ce86f8a5028942014be25a19b7a06420be662ef29a4ce3e1133177f37e22"),
    ("depth_greedy", "prio16"): (80, 63, 839, 50, 9,
        "93295db72bed9ecf3b59b34011025b9ad0d3d287bf8fb8590e3db2ba4be94218"),
    ("depth_greedy", "rand200"): (678, 439, 5702, 415, 9,
        "d1e730f75e5896c636877d614d9563e49372adc0b77f9205516863e48b167078"),
    ("depth_greedy", "rca64"): (19657, 12030, 53882, 564, 127,
        "e895543ce206eba9ed742a306aae10fbb685d43f6baa3408f90476d4a829afa5"),
    ("clocked_inv", "ksa16"): (222, 196, 3787, 273, 12,
        "9990dac99308a0f470f557170ff61f64c59bd4c21ec7a001cc6df10a8b144c7b"),
    ("clocked_inv", "alu8"): (421, 260, 2408, 131, 18,
        "104a1c8ce6563b4e26b96ceb9afdf814ca60aa555ebae094d4f74921db376559"),
    ("clocked_inv", "bshift16"): (624, 76, 3860, 316, 11,
        "9bf4610608d74fb49fa98491b9134b72aa9466aeabf026b852b1d89a846273ff"),
    ("clocked_inv", "prio16"): (94, 79, 919, 50, 12,
        "df8e7fbb6de5b5366a4e0ad59d35459c5a1b515c07525ad6e14cd9164f0193ba"),
    ("clocked_inv", "rand200"): (655, 505, 5756, 373, 11,
        "c93929ab45e2544923b4887eb660bd7803a2399d27d10b77eb2bfde0250744d0"),
    ("clocked_inv", "rca64"): (19472, 12030, 52528, 379, 127,
        "1a30dda0faa6507e3a580e593924d2dca083514ff88dde068072a0014c9fccf2"),
}

CIRCUITS = {
    "ksa16": lambda: bench.kogge_stone_adder(16),
    "alu8": lambda: bench.alu(8),
    "bshift16": lambda: bench.barrel_shifter(16),
    "prio16": lambda: bench.priority_encoder(16),
    "rand200": lambda: random_aig(200, 16, seed=5, n_pos=None),
    "rca64": lambda: bench.ripple_adder(64),
}


@pytest.fixture(scope="module")
def mapped(lib, table):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = flow.map_graph(CIRCUITS[name](), lib, table)
        return cache[name]
    return get


@pytest.fixture(scope="module")
def mapped_variant(lib, table, clocked_lib, clocked_table):
    cache = {}

    def get(variant, name):
        if (variant, name) not in cache:
            if variant == "depth_greedy":
                res = flow.map_graph(CIRCUITS[name](), lib, table,
                                     depth_greedy=True)
            else:
                res = flow.map_graph(CIRCUITS[name](), clocked_lib,
                                     clocked_table)
            cache[variant, name] = res
        return cache[variant, name]
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
        assert balanced_po_arrivals(net) == {net.depth}


@pytest.mark.parametrize("variant,name", list(GOLDEN_VARIANTS))
def test_golden_variant(variant, name, mapped_variant):
    res = mapped_variant(variant, name)
    digest = hashlib.sha256()
    for net in (res.before, res.after):
        for text in (net.write_blif(), net.write_verilog()):
            digest.update(text.encode())
    got = (res.dffs_before, res.dffs_after, res.after.jj_count,
           res.after.splitter_count, res.after.depth, digest.hexdigest())
    assert got == GOLDEN_VARIANTS[variant, name]


@pytest.mark.parametrize("variant,name",
                         [("dp", name) for name in GOLDEN] + list(GOLDEN_VARIANTS))
def test_instance_list_is_topological(variant, name, mapped, mapped_variant):
    # after splitter insertion, in a copy and after retiming
    res = mapped(name) if variant == "dp" else mapped_variant(variant, name)
    for net in (res.before, res.before.copy(), res.after):
        assert_topological(net)
