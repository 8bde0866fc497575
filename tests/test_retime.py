import random

import pytest

from pbmap import bench
from pbmap.balance import MappedNetwork
from pbmap.flow import map_graph
from pbmap.mapper import _instantiate
from pbmap.retime import (push_to_last_level_check, retime_min_registers,
                          retimed_match_dffs)


def test_push_to_last_level_examples():
    per_child_sum, per_level_sum, equal = push_to_last_level_check(4, 2)
    assert per_child_sum == per_level_sum == 6
    assert equal
    per_child_sum, per_level_sum, equal = push_to_last_level_check(9, 8)  # x = h-1: single-level push
    assert per_child_sum == per_level_sum == 2
    assert equal


def test_push_to_last_level_sweep():
    for h in range(2, 21):
        for x in range(1, h):
            per_child_sum, per_level_sum, equal = push_to_last_level_check(h, x)
            assert equal
            assert per_child_sum == 2 ** (h - x + 1) - 2


def test_push_to_last_level_preconditions():
    with pytest.raises(ValueError):
        push_to_last_level_check(4, 4)
    with pytest.raises(ValueError):
        push_to_last_level_check(4, 0)


def sg_by_name(table, name):
    return next(sg for sg in table.supergates if sg.name == name)


def test_equal_heights_reproduce_internal_dffs(table):
    rng = random.Random(3)
    for sg in rng.sample(table.supergates, 50):
        for base in (0, 2, 5):
            assert retimed_match_dffs(sg, [base] * sg.n_inputs) == sg.internal_dffs


def test_hoisting_beats_per_leaf_padding(table):
    sg = sg_by_name(table, "and2(and2(x0,x1),and2(x2,x3))")
    heights = (1, 1, 0, 0)
    arrivals = [h + d for h, d in zip(heights, sg.leaf_depths)]
    per_leaf = sum(max(arrivals) - a for a in arrivals)
    assert per_leaf == 2
    # the two short-leaf pads share one register on the internal edge
    assert retimed_match_dffs(sg, heights) == 1


def test_leaf_height_count_checked(table):
    sg = table.supergates[0]
    with pytest.raises(ValueError):
        retimed_match_dffs(sg, [0] * (sg.n_inputs + 1))


def expand_match(lib, sg, heights):
    """Realize a match as a standalone network: each leaf arrives through a
    chain of DFF cells of the requested height."""
    net = MappedNetwork(name="cone")
    net.dff_cell = lib.dff
    net.splitter_cell = lib.splitter
    leaf_sigs = []
    for i, h in enumerate(heights):
        sig = net.add_pi(f"x{i}")
        for _ in range(h):
            sig = net.add_gate(lib.dff, [sig])
        leaf_sigs.append(sig)
    root = _instantiate(net, sg, leaf_sigs)
    net.add_po(root, "f")
    net.insert_balancing()
    return net


def test_retimed_count_matches_lp_on_cones(lib, table):
    rng = random.Random(17)
    pool = [sg for sg in table.supergates if sg.n_inputs <= 5]
    for sg in rng.sample(pool, 40):
        heights = [rng.randint(0, 3) for _ in range(sg.n_inputs)]
        want = retimed_match_dffs(sg, heights)
        net = expand_match(lib, sg, heights)
        after = retime_min_registers(net)
        assert after.dff_total == want, (sg.name, heights)
        assert net.dff_total >= want  # naive balancing never beats hoisting


def shared_source_net(lib):
    """A 2-fanout AND whose two sink edges each carry one balancing DFF."""
    and2 = next(c for c in lib.cells if c.name == "and2")
    net = MappedNetwork(name="push")
    pis = [net.add_pi(n) for n in "abcdefgh"]
    a, b, c, d, e, f, g, hh = pis
    g0 = net.add_gate(and2, [a, b])
    sp = net.add_gate(lib.splitter, [g0])
    spi = net.instances[-1]
    l1 = net.add_gate(and2, [c, d])
    l2 = net.add_gate(and2, [l1, e])
    s1 = net.add_gate(and2, [spi.outs[0], l2])
    r1 = net.add_gate(and2, [f, g])
    r2 = net.add_gate(and2, [r1, hh])
    s2 = net.add_gate(and2, [spi.outs[1], r2])
    net.add_po(s1, "o1")
    net.add_po(s2, "o2")
    net.dff_cell = lib.dff
    net.splitter_cell = lib.splitter
    net.insert_balancing()
    return net


def test_push_back_across_splitter(lib):
    net = shared_source_net(lib)
    # one DFF per splitter sink edge, plus one inside each side cone
    sink_edges = [(s, c) for (s, c), w in net.dff.items()
                  if c[0] == "inst" and net.instances[c[1]].cell.name == "and2"
                  and net.driver[s][0] == "inst"
                  and net.instances[net.driver[s][1]].cell.kind == "splitter"]
    assert len(sink_edges) == 2
    assert net.dff_total == 4
    after = retime_min_registers(net, allow_across_splitters=True)
    assert after.dff_total == 3  # sibling sink DFFs merge behind the splitter
    after.validate()
    # with splitters pinned to their drivers, no sharing is possible
    pinned = retime_min_registers(net, allow_across_splitters=False)
    assert pinned.dff_total == 4


def test_already_minimal_network_unchanged(lib, table):
    res = map_graph(bench.parity(8), lib, table)
    assert res.dffs_before == 0
    assert res.dffs_after == 0


def test_retiming_idempotent_at_minimum(lib, table):
    res = map_graph(bench.ksa4(), lib, table)
    again = retime_min_registers(res.after)
    assert again.dff_total == res.after.dff_total


def test_retiming_monotone_and_balanced(lib, table):
    for g in [bench.ksa4(), bench.ripple_adder(4), bench.comparator(4)]:
        res = map_graph(g, lib, table)
        assert res.dffs_after <= res.dffs_before
        res.after.validate()
