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
from conftest import balanced_po_arrivals

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
    "ksa16": ("7a2c671ca4b1e7abee3beacb47d3ebed75bd17b3863f90ff9b5080e97a0df5ec",
              "52fb41eb661797971fab81682ed737f385cc083159a69e5519c2d467361d6b7a",
              "2cec17d76c28b561c1d883b8c33932fc69e57d535bd9b148d19dd0a38bb777e3",
              "47224bcd96e9efacb2ff6b9201bbcde78a73cd3b1942b8a4a4db50f6884b627a"),
    "alu8": ("f2c72201a2831d51ef153b957f5f09f4802952148bd3b7292e5382ca2be53dca",
             "1d85b7dc0a478a5aefcd67977b4d80229f912a8e57506d6fbb66af8f3a3394dd",
             "42aafa25e29855d29ea9c3de5e32a253aed90d91e88d90b9fc4c367e24719899",
             "944ce734a42c3e1a2c2854d12db7245d144e1568604316e53cb230356c092c9b"),
    "bshift16": ("2d511072f09ab47c00b462d5ce9c0326d8608031295f8218496f1be3a6c4d1a2",
                 "f69d514d4a70938664d43991949f80a8bb4cbe5f2dc58bfd4202278213efc2d3",
                 "79976a0c2f98be19cbee99af9c806c2ea7542391596a3c359ebc1760509778dd",
                 "7248061c3b7ac9750c42757dc3774691104817a62b76f568bd15f83645ccdbb4"),
    "prio16": ("f7d34e1256cc9da87a033b2d0de98f0446b1a20da4279e6aa7940f9ddcbe9809",
               "a1efa3138617eeeeb6b05fb6215e50bb7a02dd825fe08d19720fbdaeb8b32e1f",
               "63650a4dfcb63ba1e8dce59db5562d5ec20d0df210cf4750b64de8e17d56fce9",
               "b3e5528e720783b6d61fb71849db816a2c1729e190912cecf27bb7310a1374db"),
    "rand200": ("cd7e95091bbd94d7e0e073f3e626ff084dce0108ce611eb2fe2e2190ec79ffa3",
                "1232ca9eb6fb167fbe67f938e3d20ba3258e2277e3378f07d6a0037911fb8ec3",
                "f32dc89373b6379eee5f6fb30a7470aaf9eee087b73494031b3dfdd14476f1d1",
                "c64be066e8beb14ff9b0f386e577d3506cd4dd2d26231c99a61bf06e7e6ccdb2"),
    "rca64": ("fcd018dea97882f114fb2af6bd7649b21ee7b2cb04ca544cd4fac6282ee4a3cd",
              "539db13901f06939972ccd7b32f2bde07c3649d326c70408a1a172b33f5a19dd",
              "3dbe82341f3d01adcab65e4f4aac718df583967ef6fe34e46ba683eb5fb00cac",
              "31225236f725c67adc849fead01bf3a2887fd16df298a571fd944c079ba5b60c"),
}

# (variant, circuit): (dffs_before, dffs_after, jj_total, splitters, depth,
#                      sha256 of the four netlist texts, in GOLDEN_TEXT's order)
GOLDEN_VARIANTS = {
    ("depth_greedy", "ksa16"): (269, 220, 4475, 349, 10,
        "c4e7a17a30f28bef56d8cfc7ed6061fdb18e927b854f9e1b5eb6b158cb17fe3f"),
    ("depth_greedy", "alu8"): (464, 270, 2411, 133, 18,
        "6c48ff7ea5c03dcbeae94523a583d0842b05a9a3f70f900f36ba572397e15cfc"),
    ("depth_greedy", "bshift16"): (384, 12, 2340, 236, 8,
        "264bcd8a74aa5dc18af3bdccb92eb45007799ea0a9a703491ad004240460f4aa"),
    ("depth_greedy", "prio16"): (80, 63, 839, 50, 9,
        "46b439aaf251f28df7270aa9464d76d6e4648f689b64b9fd2d8014fd7ee50c9b"),
    ("depth_greedy", "rand200"): (678, 439, 5702, 415, 9,
        "d52702f559eb8f946e918d42680975dfa146cd4ce03b007004cf3e2723bcbe5f"),
    ("depth_greedy", "rca64"): (19657, 12030, 53882, 564, 127,
        "8a2b9f029d0a62cbbddfe9af18fa23a3cb323f02c8009cd4cff06fb45bace220"),
    ("clocked_inv", "ksa16"): (222, 196, 3787, 273, 12,
        "efc4bd0cbbc7172f8da5a87283a6a814cf0826167f41a3dca98920dd46c2eefe"),
    ("clocked_inv", "alu8"): (421, 260, 2408, 131, 18,
        "0e038709da636d26400da2d90546d236d121c9444c5e87db3f614930b25bd6ac"),
    ("clocked_inv", "bshift16"): (624, 76, 3860, 316, 11,
        "d84dd075eccd7c626278975f1042d3d9824ad9c5bf0b5e69a26614ca0c2fa06f"),
    ("clocked_inv", "prio16"): (94, 79, 919, 50, 12,
        "fd42569fe9cd144f0017da85957a1e264ce8d1fe184bd72c8b68b71871e03757"),
    ("clocked_inv", "rand200"): (655, 505, 5756, 373, 11,
        "3a1fcbd69c500a9bb17d76bc240407298db3de22aab22d5057f68ab25fb9de61"),
    ("clocked_inv", "rca64"): (19472, 12030, 52528, 379, 127,
        "cf3858e6225f43243c6e5bcc9261b9cba69c329ea04897c1ccc3106944eca1a3"),
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
