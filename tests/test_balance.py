import random
import re

import pytest

from pbmap import bench
from pbmap.balance import BalanceError, MappedNetwork
from pbmap.flow import map_graph, prepare_match_table
from pbmap.library import parse_library
from pbmap.netlist import parse_netlist
from pbmap.trees import (buffer_band_check, caterpillar, double_caterpillar,
                         input_pins_from_profile, measure_tree, most_balanced,
                         most_unbalanced, random_tree, tree_leaf_depths)

from conftest import (DATA, assert_topological, balanced_po_arrivals,
                      tree_buffer_count, tree_height, tree_node_count)


# ----------------------------------------------------------------------
# mapped-network structure
# ----------------------------------------------------------------------


def check_balanced(net):
    po_arr = balanced_po_arrivals(net)
    assert po_arr is not None, "unbalanced fanins"
    assert len(po_arr) <= 1, "PO path lengths differ"


def test_mapped_corpus_invariants(lib, table):
    for g in [bench.ksa4(), bench.alternating_chain(9), bench.comparator(4),
              bench.mux_tree(3), bench.ripple_adder(4)]:
        res = map_graph(g, lib, table)
        for net in (res.before, res.after):
            net.validate()
            check_balanced(net)
            # post-splitter fanout is at most 1 per signal
            for sig, sinks in net.consumers().items():
                assert len(sinks) <= 1


def test_splitter_count_matches_fanout_excess(lib, table):
    rng = random.Random(6)
    from pbmap.cuts import compute_cut_functions, enumerate_cuts
    from pbmap.mapper import extract_cover, map_dag

    for trial in range(10):
        g = bench.random_aig(rng.randint(25, 70), rng.randint(5, 8),
                             seed=700 + trial, n_pos=3) \
            if hasattr(bench, "random_aig") else None
        if g is None:
            from pbmap.netlist import random_aig
            g = random_aig(rng.randint(25, 70), rng.randint(5, 8),
                           seed=700 + trial, n_pos=3)
        cutsets = compute_cut_functions(g, enumerate_cuts(g, k=5))
        sols = map_dag(g, cutsets, table)
        net = extract_cover(sols, g)
        excess = sum(len(sinks) - 1 for sinks in net.consumers().values()
                     if len(sinks) > 1)
        net.insert_splitters(lib)
        assert net.splitter_count == excess
        for sig, sinks in net.consumers().items():
            assert len(sinks) <= 1


def fanout4_net(lib):
    """One AND whose output feeds three gates and a PO, with one sink much
    deeper (least DFF slack, i.e. most critical)."""
    net = MappedNetwork(name="f4")
    and2 = next(c for c in lib.cells if c.name == "and2")
    a = net.add_pi("a")
    b = net.add_pi("b")
    src = net.add_gate(and2, [a, b])
    # deep sink: three extra logic levels before consuming src
    d1 = net.add_gate(and2, [a, b])
    d2 = net.add_gate(and2, [d1, b])
    d3 = net.add_gate(and2, [d2, b])
    deep = net.add_gate(and2, [src, d3])
    s1 = net.add_gate(and2, [src, a])
    s2 = net.add_gate(and2, [src, b])
    for i, s in enumerate((deep, s1, s2)):
        net.add_po(s, f"o{i}")
    net.add_po(src, "osrc")
    return net, src


def test_the_instance_list_stays_topological(lib):
    net, src = fanout4_net(lib)
    assert_topological(net)
    net.insert_splitters(lib)
    assert net.splitter_count > 0
    assert_topological(net)
    # chains on PIs come first; a chain on a gate's output right after it
    assert net.instances[0].cell.kind == "splitter"
    head = net.instances[net.driver[src] + 1]
    assert head.cell.kind == "splitter" and head.fanins == [src]
    net.insert_balancing()
    n = len(net.instances)
    cp = net.copy()
    assert_topological(cp)
    # a gate added to the copy comes last, and changes the copy only
    and2 = next(c for c in lib.cells if c.name == "and2")
    cp.add_po(cp.add_gate(and2, [cp.pos[0], 0]), "g")
    assert_topological(cp)
    assert cp.driver[-1] == n and len(net.instances) == n
    assert_topological(net)


@pytest.mark.parametrize("sig", [2, 99, -1],
                         ids=["next-signal", "unknown", "negative"])
def test_only_driven_signals_are_read(lib, sig):
    and2 = next(c for c in lib.cells if c.name == "and2")
    net = MappedNetwork(name="early")
    a, b = net.add_pi("a"), net.add_pi("b")
    with pytest.raises(BalanceError, match=f"signal {sig} is not driven"):
        net.add_gate(and2, [a, sig])
    with pytest.raises(BalanceError, match=f"signal {sig} is not driven"):
        net.add_po(sig, "f")
    assert (net.instances, net.pos, net.driver) == ([], [], [-1, -1])


def test_pis_come_before_every_gate(lib):
    # PI k is signal k, so no PI may follow a gate
    and2 = next(c for c in lib.cells if c.name == "and2")
    net = MappedNetwork(name="late_pi")
    a, b = net.add_pi("a"), net.add_pi("b")
    net.add_gate(and2, [a, b])
    with pytest.raises(BalanceError, match="PI c added after a gate"):
        net.add_pi("c")
    assert (net.pi_names, net.driver) == (["a", "b"], [-1, -1, 0])


@pytest.mark.parametrize("cycle", [False, True], ids=["acyclic", "cycle"])
def test_validate_rejects_a_read_before_its_driver(lib, cycle):
    # u0 = and2(u2, u1), u1 = and2(c, d), u2 = and2(a, b): balanced, every
    # signal read once, but u0 reads two signals driven after it; or u0
    # reads itself
    and2 = next(c for c in lib.cells if c.name == "and2")
    net = MappedNetwork(name="late")
    a, b, c, d = (net.add_pi(name) for name in "abcd")
    u0 = net.add_gate(and2, [a, b])
    u1 = net.add_gate(and2, [c, d])
    u2 = net.add_gate(and2, [a, b])
    net.add_po(u0, "f")
    net.instances[0].fanins = [u0 if cycle else u2, u1]
    net.depth = 2
    with pytest.raises(BalanceError, match="not driven before it"):
        net.validate()


def test_fanout4_gets_three_splitters_critical_first(lib):
    net, src = fanout4_net(lib)
    excess = sum(len(s) - 1 for s in net.consumers().values() if len(s) > 1)
    net.insert_splitters(lib)
    assert net.splitter_count == excess
    src_splitters = [i for i in net.instances
                     if i.cell.kind == "splitter" and i.fanins == [src]]
    assert len(src_splitters) == 1  # head of a 3-splitter chain for 4 sinks
    # follow the splitter chain from src: first tap feeds the deep consumer
    first = next(i for i in net.instances
                 if i.cell.kind == "splitter" and i.fanins == [src])
    tap = first.outs[0]
    consumer = net.consumers()[tap][0]
    assert consumer[0] >= 0  # an instance's pin, not a PO
    deep_inst = net.instances[consumer[0]]
    assert deep_inst.cell.kind != "splitter"
    net.insert_balancing()
    net.validate()
    check_balanced(net)


def test_chain_puts_instance_pins_before_pos_on_a_tie(lib):
    # src arrives at the network's depth, so its PO's edge and the edge of
    # the unclocked inverter reading it both get pad 0
    net = MappedNetwork(name="tie")
    and2 = next(c for c in lib.cells if c.name == "and2")
    assert not lib.inverter.is_clocked
    src = net.add_gate(and2, [net.add_pi("a"), net.add_pi("b")])
    net.add_po(src, "p")
    net.add_po(net.add_gate(lib.inverter, [src]), "q")
    net.insert_splitters(lib)
    head, inv = net.instances[1:]
    assert head.fanins == [src] and inv.cell is lib.inverter
    cons = net.consumers()
    assert cons[head.outs[0]] == [(2, 0)] and cons[head.outs[1]] == [(-1, 0)]


def test_fanout1_gets_no_splitters(lib, table):
    g = bench.and_chain(5)
    res = map_graph(g, lib, table)
    # chain cover has no multi-fanout signals beyond what mapping introduces
    for sig, sinks in res.after.consumers().items():
        assert len(sinks) <= 1


def test_balancing_example_heights_3_5(lib):
    net = MappedNetwork(name="skew")
    and2 = next(c for c in lib.cells if c.name == "and2")
    a = net.add_pi("a")
    b = net.add_pi("b")
    # left arm: height 3, right arm: height 5
    l = a
    for _ in range(3):
        l = net.add_gate(and2, [l, l])
    r = b
    for _ in range(5):
        r = net.add_gate(and2, [r, r])
    top = net.add_gate(and2, [l, r])
    net.add_po(top, "f")
    net.insert_balancing()
    assert next(i for i in net.instances if i.out == top).pads == [2, 0]
    assert net.dff_total == 2


def test_fully_balanced_cover_needs_no_dffs(lib, table):
    g = bench.parity(8)
    res = map_graph(g, lib, table)
    assert res.dffs_before == 0
    assert res.dffs_after == 0


def test_dff_total_decomposition(lib, table):
    res = map_graph(bench.ksa4(), lib, table)
    net = res.before
    edge_sum = sum(w for _, _, w in net.retiming_edges())
    assert edge_sum == net.dff_total  # every edge's pads, counted once
    assert net.po_pad_dffs == sum(net.po_pads) <= net.dff_total


def test_write_blif_contains_dff_instances(lib, table):
    res = map_graph(bench.ksa4(), lib, table)
    text = res.after.write_blif()
    assert text.count(".gate dff") == res.dffs_after
    assert text.count(".gate split") == res.after.splitter_count


def test_write_verilog_smoke(lib, table):
    res = map_graph(bench.and_chain(6), lib, table)
    v = res.after.write_verilog()
    assert "module" in v and "endmodule" in v


def test_writers_take_dff_pins_from_library():
    # a library whose DFF reads Q=D: both writers must bind the same pins
    text = (DATA / "sfq.genlib").read_text().replace(
        "GATE dff    0.0025 q=a;", "GATE dff    0.0025 Q=D;")
    lib = parse_library(text, name="sfq_qd")
    assert lib.dff.pin_names == ("D",) and lib.dff.out_name == "Q"
    res = map_graph(bench.ksa4(), lib, prepare_match_table(lib))
    net = res.after
    assert net.dff_total > 0
    blif = [l for l in net.write_blif().splitlines() if l.startswith(".gate dff ")]
    verilog = [l for l in net.write_verilog().splitlines()
               if l.startswith("  dff ")]
    assert len(blif) == len(verilog) == net.dff_total
    for b, v in zip(blif, verilog):
        _, _, d, q = b.split()
        assert d.startswith("D=") and q.startswith("Q=")
        assert f".D({d[2:]}), .Q({q[2:]}), .clk(clk)" in v
        assert ".a(" not in v and ".q(" not in v


def _driven_and_read(lib, text):
    """(driven nets, read nets) of a BLIF or Verilog text from either
    writer, a cell's output pins told apart by the library."""
    driven, read = [], []
    for line in text.splitlines():
        f = line.replace(",", " ").replace(";", " ").split()
        if not f:
            continue
        if f[0] in (".inputs", "input"):
            driven += [n for n in f[1:] if n != "clk"]
        elif f[0] == ".names":
            driven.append(f[-1])
            read += f[1:-1]
        elif f[0] == "assign":
            driven.append(f[1])
            read.append(f[3])
        elif f[0] == ".gate" or f[0] in lib.by_name:
            cell = lib.by_name[f[1] if f[0] == ".gate" else f[0]]
            outs = (cell.out_name, f"{cell.out_name}2")
            for pin, net in re.findall(r"\.?(\w+)[=(](\w+)", " ".join(f[2:])):
                if pin != "clk":
                    (driven if pin in outs else read).append(net)
    return driven, read


# a PI named like an internal net; POs named like internal nets; a PI named
# like the PO pad DFF on g's edge
NAME_CLASHES = {
    "pi": (".model pi\n.inputs n5 b c d\n.outputs f\n.names n5 b x\n11 1\n"
           ".names c d y\n11 1\n.names x y f\n10 1\n.end\n"),
    "po": (".model po\n.inputs a b c d\n.outputs n4 n6 f\n.names a b x\n11 1\n"
           ".names x c n4\n11 1\n.names c d n6\n01 1\n.names n4 n6 f\n11 1\n"
           ".end\n"),
    "dff": (".model pbd\n.inputs a b pbd0\n.outputs f g\n.names a b f\n11 1\n"
            ".names pbd0 g\n1 1\n.end\n"),
}


@pytest.mark.parametrize("case", list(NAME_CLASHES))
def test_internal_nets_never_take_io_names(lib, table, case):
    res = map_graph(parse_netlist(NAME_CLASHES[case]), lib, table)
    if case == "dff":
        assert res.before.dff_total > 0
    for net in (res.before, res.after):
        io = set(net.pi_names) | set(net.po_names)
        for text in (net.write_blif(), net.write_verilog()):
            driven, read = _driven_and_read(lib, text)
            assert len(driven) == len(set(driven)), text
            assert set(read) <= set(driven), text
            assert io <= set(driven)


# PO a is PI a delayed by pad DFFs: writing it drives net a a second time
PO_NAMED_LIKE_PI = (".model m\n.inputs a b c\n.outputs a f\n"
                    ".names a b t\n11 1\n.names t c f\n11 1\n.end\n")


def test_po_named_like_a_pi_is_never_written(lib, table):
    res = map_graph(parse_netlist(PO_NAMED_LIKE_PI), lib, table)
    for net in (res.before, res.after):
        assert net.po_pads[0] > 0
        for write in (net.write_blif, net.write_verilog):
            with pytest.raises(BalanceError, match="PO a is named like a PI"):
                write()


def test_po_named_like_a_pi_through_a_splitter_is_never_written(lib, table):
    # PO a reads PI a undelayed, but through the splitter of a's two reads:
    # writing it drives net a a second time
    text = ".model s\n.inputs a b\n.outputs a g\n.names a g\n1 1\n.end\n"
    res = map_graph(parse_netlist(text), lib, table)
    for net in (res.before, res.after):
        assert net.depth == 0 and net.dff_total == 0
        assert [i.cell.kind for i in net.instances] == ["splitter"]
        for write in (net.write_blif, net.write_verilog):
            with pytest.raises(BalanceError, match="PO a is named like a PI"):
                write()


def test_po_that_is_its_own_pi_is_written(lib, table):
    # an undelayed PO on the PI of its name: the BLIF reads one driver
    text = ".model w\n.inputs a b\n.outputs a\n.end\n"
    net = map_graph(parse_netlist(text), lib, table).after
    assert net.write_blif() == ".model w\n.inputs a b\n.outputs a\n.end\n"


def test_po_that_is_its_own_pi_has_no_verilog(lib, table):
    # Verilog would declare port a twice, as input and as output, and
    # assign it to itself
    text = ".model w\n.inputs a b\n.outputs a\n.end\n"
    net = map_graph(parse_netlist(text), lib, table).after
    with pytest.raises(BalanceError, match="PO a is named like a PI"):
        net.write_verilog()


def test_verilog_labels_never_take_io_names(lib, table):
    # PIs named like instance 0's label and DFF 0's label, a PO named like
    # instance 3's
    text = (".model u\n.inputs u0 b u_pbd0 d\n.outputs u3 g\n"
            ".names u0 b x\n11 1\n.names x u_pbd0 y\n11 1\n"
            ".names y d u3\n11 1\n.names u_pbd0 g\n1 1\n.end\n")
    res = map_graph(parse_netlist(text), lib, table)
    assert res.before.dff_total > 0 and len(res.before.instances) > 3
    for net in (res.before, res.after):
        declared = []
        for line in net.write_verilog().splitlines():
            f = line.replace(",", " ").replace(";", " ").split()
            if f and f[0] in ("input", "output", "wire"):
                declared += f[1:]
            elif f and f[0] in lib.by_name:
                declared.append(f[1])  # instance label
        assert len(declared) == len(set(declared)), sorted(declared)
        assert {"u0", "u3", "u_pbd0"} <= set(declared)


def test_verilog_clock_never_takes_io_names(lib, table):
    # a PI named clk and a PO named clk_1: the clock port becomes clk_2
    text = ".model m\n.inputs clk b\n.outputs clk_1\n.names clk b clk_1\n11 1\n.end\n"
    res = map_graph(parse_netlist(text), lib, table)
    for net in (res.before, res.after):
        lines = net.write_verilog().splitlines()
        assert lines[0] == "module m (clk, b, clk_1, clk_2);"
        assert lines[1] == "  input clk, b, clk_2;"
        gates = [line for line in lines if ".clk(" in line]
        assert gates and all(".clk(clk_2)" in line for line in gates)


def test_validate_checks_po_arrival_against_depth(lib, table):
    res = map_graph(bench.ksa4(), lib, table)
    for net in (res.before, res.after):
        net.validate()
        net.depth += 1
        with pytest.raises(BalanceError, match="differ from depth"):
            net.validate()
        net.depth -= 1


def test_validate_rejects_a_signal_read_twice(lib, table):
    # balanced without splitters: arrivals and depth hold, fanout does not
    net, _src = fanout4_net(lib)
    net.insert_balancing()
    with pytest.raises(BalanceError, match=r"signal \d+ has fanout 3 after"):
        net.validate()
    # one more read of a mapped signal: a second PO on PO 0's net, padded
    # like PO 0, so only the fanout is wrong
    res = map_graph(bench.ksa4(), lib, table)
    for net in (res.before, res.after):
        net.validate()
        net.add_po(net.pos[0], "again")
        net.po_pads[-1] = net.po_pads[0]
        with pytest.raises(BalanceError, match="has fanout 2"):
            net.validate()


def test_validate_catches_imbalance(lib):
    net, _src = fanout4_net(lib)
    net.insert_splitters(lib)
    net.insert_balancing()
    net.validate()
    # corrupt one edge weight
    inst = next((i for i in net.instances if any(i.pads)), None)
    if inst is None:
        pytest.skip("no weighted edges to corrupt")
    inst.pads[next(pin for pin, w in enumerate(inst.pads) if w)] += 1
    with pytest.raises(BalanceError):
        net.validate()


# ----------------------------------------------------------------------
# tree analytics (pbmap.trees)
# ----------------------------------------------------------------------


def test_pin_identity_example():
    assert input_pins_from_profile(4, (1, 1, 1)) == 16 - 4 - 2 - 1


def test_pin_identity_errors():
    with pytest.raises(ValueError):
        input_pins_from_profile(0, ())
    with pytest.raises(ValueError):
        input_pins_from_profile(3, (1,))  # wrong length
    with pytest.raises(ValueError):
        input_pins_from_profile(3, (-1, 0))
    with pytest.raises(ValueError):
        input_pins_from_profile(3, (4, 0))  # prunes everything


def test_profile_identities_on_random_trees():
    for seed in range(300):
        t = random_tree(random.Random(seed).randint(1, 40), seed=seed)
        prof = measure_tree(t)
        # pin identity: profile reproduces the measured pin count
        assert prof.n == len(tree_leaf_depths(t))
        # one more pin than nodes
        assert prof.n == tree_node_count(t) + 1
        assert prof.N == tree_node_count(t)
        # buffer total equals per-pin padding
        assert prof.Y == tree_buffer_count(t)
        assert prof.H == tree_height(t)


def test_caterpillar_profiles():
    t = caterpillar(3)
    assert sorted(tree_leaf_depths(t)) == [1, 2, 3, 3]
    prof = measure_tree(t)
    assert prof.H == 3 and prof.N == 3 and prof.Y == 3


def test_measure_tree_deeper_than_the_recursion_limit():
    x = 5000
    prof = measure_tree(caterpillar(x))
    assert prof.H == x
    assert prof.Y == (x - 1) * x // 2
    assert prof.y[:3] == (1, 2, 3)
    assert prof.N == x


def test_most_unbalanced_closed_forms():
    for x in range(1, 11):
        prof = most_unbalanced(x)
        tree = caterpillar(x) if x <= 3 else double_caterpillar(x)
        assert measure_tree(tree).y == prof.y if x > 1 else True
        if x <= 3:
            assert prof.N == x
            assert prof.Y == (x - 1) * x // 2
        else:
            assert prof.N == 2 * x - 1
            assert prof.Y == (x - 2) * (x - 1)
        assert prof.H == x


def test_double_caterpillar_structure():
    t = double_caterpillar(5)
    assert tree_height(t) == 5
    assert tree_node_count(t) == 9


def enumerate_profiles(x):
    """All feasible pruning profiles of a height-x tree: at each level prune
    some of the available slots, keeping at least one expandable node."""
    results = []

    def rec(lvl, fertile, y):
        if lvl > x:
            results.append((tuple(y), fertile))
            return
        slots = 2 * fertile
        for take in range(slots):
            rec(lvl + 1, slots - take, y + [take])

    if x == 1:
        return [((), 2)]
    rec(2, 2, [])
    return results


def test_most_balanced_examples():
    assert most_balanced(4, 9).y == (1, 1, 1)
    assert most_balanced(4, 12).y == (1, 0, 0)
    assert most_balanced(4, 15).y == (0, 0, 1)
    assert most_balanced(1, 2).y == ()
    with pytest.raises(ValueError):
        most_balanced(3, 9)  # more pins than a height-3 tree has
    with pytest.raises(ValueError):
        most_balanced(4, 4)  # too few pins for height 4


def test_most_balanced_minimal_over_profiles():
    for x in range(2, 6):
        by_pins = {}
        for y, fertile in enumerate_profiles(x):
            n = input_pins_from_profile(x, y)
            if fertile != n or n < x + 1:
                continue  # not a realizable full-height pruning
            by_pins.setdefault(n, []).append(sum(y))
        for n, ys in sorted(by_pins.items()):
            prof = most_balanced(x, n)
            assert prof.n == n
            assert prof.Y == min(ys)


def test_buffer_band_examples():
    y_diff, holds = buffer_band_check(4, 1)
    assert y_diff == 4
    assert holds
    with pytest.raises(ValueError):
        buffer_band_check(3, 1)
    with pytest.raises(ValueError):
        buffer_band_check(5, 0)


def test_buffer_band_never_strictly_inside():
    for x in range(4, 60):
        for p in range(1, x):
            _, holds = buffer_band_check(x, p)
            assert holds, (x, p)
