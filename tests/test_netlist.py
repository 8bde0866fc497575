import heapq
import random

import pytest

from pbmap import bench
from pbmap.netlist import (CONST0, AndNode, NetlistError, SubjectGraph, _and_op,
                           _neg, _or_op, _xor_op, balanced_reduce,
                           parse_netlist, random_aig, write_aag, write_blif,
                           write_netlist)

from conftest import subject_depth


def chain4():
    """F = a & b & !c & d as a left-leaning chain."""
    g = SubjectGraph(name="chain")
    a, b, c, d = [(g.add_pi(x), False) for x in "abcd"]
    n1 = _and_op(g, a, b)
    n2 = _and_op(g, n1, _neg(c))
    n3 = _and_op(g, n2, d)
    g.add_po(n3, "F")
    return g


def test_structural_hashing_dedups():
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    b = (g.add_pi("b"), False)
    x = g.add_and(a, b)
    y = g.add_and(b, a)  # commuted operands hash to the same node
    assert x == y
    assert len(g.nodes) == 1


def test_add_and_constant_folding():
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    assert g.add_and(a, g.const_lit(True)) == a
    assert g.add_and(a, g.const_lit(False)) == (CONST0, False)
    assert g.add_and(a, a) == a
    assert g.add_and(a, (a[0], True)) == (CONST0, False)
    assert len(g.nodes) == 0


def test_levels_and_depth_chain_vs_balanced():
    g = chain4()
    assert subject_depth(g) == 3
    g2 = SubjectGraph()
    lits = [(g2.add_pi(x), False) for x in "abcd"]
    g2.add_po(balanced_reduce(g2, lits, _and_op), "F")
    assert subject_depth(g2) == 2


def test_balanced_reduce_structure():
    g = SubjectGraph()
    lits = [(g.add_pi(f"x{i}"), False) for i in range(7)]
    out = balanced_reduce(g, lits, _and_op)
    g.add_po(out, "f")
    assert subject_depth(g) == 3  # ceil(log2(7))
    assert len(g.nodes) == 6


def test_simulate_chain_truth():
    g = chain4()
    pis = g.pis
    for m in range(16):
        vals = {pis[i]: (m >> i) & 1 for i in range(4)}
        (out,) = g.simulate(vals)
        a, b, c, d = (vals[pis[i]] for i in range(4))
        assert out == (a & b & (1 - c) & d)


def test_blif_round_trip_signature():
    g = bench.ripple_adder(3)
    text = write_blif(g)
    g2 = parse_netlist(text)
    assert g2.signature() == g.signature()
    # simulate agreement on random patterns
    rng = random.Random(3)
    for _ in range(20):
        vals = {p: rng.randint(0, 1) for p in g.pis}
        vals2 = {p: v for (p, v) in zip(g2.pis, (vals[q] for q in g.pis))}
        assert g.simulate(vals) == g2.simulate(vals2)


def test_aag_round_trip_signature():
    g = bench.comparator(3)
    text = write_aag(g)
    g2 = parse_netlist(text)
    assert g2.signature() == g.signature()


def test_write_netlist_format_dispatch():
    g = chain4()
    assert write_netlist(g, "blif").startswith(".model")
    assert write_netlist(g, "aag").startswith("aag ")
    with pytest.raises(ValueError):
        write_netlist(g, "edif")


def test_blif_latch_rejected():
    text = """.model seq
.inputs a
.outputs q
.latch a q re clk 0
.end
"""
    with pytest.raises(NetlistError):
        parse_netlist(text)


def test_blif_undefined_signal_rejected():
    text = """.model bad
.inputs a
.outputs f
.names a ghost f
11 1
.end
"""
    with pytest.raises(NetlistError):
        parse_netlist(text)


# a 2-input AND with its symbol table; each case below breaks one line
GOOD_AAG = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 f\n"
BAD_AAG = [
    pytest.param("aag 3 2 0 1 1\n2\n4\n6\n", 5, id="truncated-and"),
    pytest.param("aag 3 2 0 1 1\n2\n", 3, id="truncated-input"),
    pytest.param("aag 3 2 0 1 1\n2\n\n6\n6 2 4\n", 3, id="blank-input"),
    pytest.param("aag 3 2 0 1 1\n2\n4\nf\n6 2 4\n", 4, id="text-output"),
    pytest.param("aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n", 5, id="text-and"),
    pytest.param(GOOD_AAG.replace("i1 b", "ix b"), 7, id="text-symbol"),
    pytest.param(GOOD_AAG.replace("i1 b", "i1"), 7, id="unnamed-symbol"),
    pytest.param(GOOD_AAG.replace("6 2 4", "6 2 8"), 5, id="undefined-and-input"),
    pytest.param(GOOD_AAG.replace("\n6\n", "\n8\n"), 4, id="undefined-output"),
    pytest.param(GOOD_AAG.replace("6 2 4", "7 2 4"), 5, id="odd-and-output"),
    pytest.param(GOOD_AAG.replace("6 2 4", "4 2 2"), 5, id="and-redefines-input"),
    pytest.param("aag 1 2 0 1 0\n2\n2\n2\n", 3, id="input-defined-twice"),
    pytest.param("aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 2 5\n", 6,
                 id="and-defined-twice"),
    pytest.param(GOOD_AAG.replace("6 2 4\n", "6 2 4\n6 2 4\n"), 6,
                 id="extra-and-line"),
    pytest.param(GOOD_AAG + "x1 q\n", 9, id="stray-symbol-line"),
]


def test_aag_symbol_table_names():
    g = parse_netlist(GOOD_AAG)
    assert [g.pi_names[p] for p in g.pis] == ["a", "b"]
    assert g.po_names == ["f"]


def test_aag_comment_section_is_skipped():
    g = parse_netlist(GOOD_AAG + "c\n6 2 4\nfree text\n")
    assert g.po_names == ["f"] and len(g.nodes) == 1


@pytest.mark.parametrize("text,line", BAD_AAG)
def test_aag_malformed_line_raises_netlist_error(text, line):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert err.value.line == line


def and_chain_blif(depth: int) -> str:
    """f = a & b through ``depth`` chained .names records, each ANDing b in."""
    lines = [".model deep", ".inputs a b", ".outputs f", ".names a b n0", "11 1"]
    for i in range(1, depth):
        lines += [f".names n{i - 1} b n{i}", "11 1"]
    lines += [f".names n{depth - 1} f", "1 1", ".end"]
    return "\n".join(lines) + "\n"


def test_blif_deep_chain_parses():
    g = parse_netlist(and_chain_blif(5000))
    assert len(g.nodes) == 5000
    assert subject_depth(g) == 5000
    a, b = g.pis
    assert g.simulate({a: 0b0101, b: 0b0011}) == [0b0001]


def test_blif_two_record_cycle_rejected():
    text = """.model loop
.inputs a
.outputs f
.names a g f
11 1
.names f g
1 1
.end
"""
    with pytest.raises(NetlistError, match="cyclic definition"):
        parse_netlist(text)


def test_blif_sop_semantics():
    text = """.model sop
.inputs a b c
.outputs f
.names a b c f
1-1 1
01- 1
.end
"""
    g = parse_netlist(text)
    for m in range(8):
        vals = {g.pis[i]: (m >> i) & 1 for i in range(3)}
        a, b, c = (vals[g.pis[i]] for i in range(3))
        expect = (a & c) | ((1 - a) & b)
        assert g.simulate(vals) == [expect]


def test_random_aig_deterministic_and_bounded():
    g1 = random_aig(80, 8, seed=5, n_pos=4)
    g2 = random_aig(80, 8, seed=5, n_pos=4)
    assert g1.signature() == g2.signature()
    assert len(g1.pis) == 8
    assert len(g1.pos) == 4
    g3 = random_aig(80, 8, seed=6, n_pos=4)
    assert g3.signature() != g1.signature()


def test_add_po_resets_the_fanout_cache():
    g = SubjectGraph()
    a, b, c = ((g.add_pi(n), False) for n in "abc")
    ab = g.add_and(a, b)
    g.add_po(g.add_and(ab, c))
    assert g.fanout_counts()[ab[0]] == 1
    g.add_po(ab)  # ab now drives a gate and a PO
    assert g.fanout_counts()[ab[0]] == 2


def test_sweep_dangling_removes_dead_cone():
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    b = (g.add_pi("b"), False)
    live = _and_op(g, a, b)
    _or_op(g, _xor_op(g, a, b), b)  # dead cone
    g.add_po(live, "f")
    before = len(g.nodes)
    g.sweep_dangling()
    assert len(g.nodes) < before
    assert len(g.nodes) == 1


# ----------------------------------------------------------------------
# node order is topological order
# ----------------------------------------------------------------------


def kahn_order(g):
    """Kahn's order of the AND nodes, smallest id first among the ready
    ones, from the fanin edges alone."""
    indeg, fanouts = {}, {}
    for nid, n in g.nodes.items():
        deps = [f for f, _ in (n.fanin0, n.fanin1) if f in g.nodes]
        indeg[nid] = len(deps)
        for d in deps:
            fanouts.setdefault(d, []).append(nid)
    ready = [nid for nid, d in indeg.items() if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for f in fanouts.get(nid, ()):
            indeg[f] -= 1
            if not indeg[f]:
                heapq.heappush(ready, f)
    assert len(order) == len(g.nodes), "cycle"
    return order


def shuffled_blif(g, seed):
    """``write_blif(g)`` with its ``.names`` records in a seeded random
    order, so most records come before the ones defining their inputs."""
    head, *body = write_blif(g).split("\n.names ")
    last = body[-1].split("\n.end")[0]
    records = body[:-1] + [last]
    random.Random(seed).shuffle(records)
    return "\n.names ".join([head, *records]) + "\n.end\n"


def _order_cases():
    yield "ksa16", bench.kogge_stone_adder(16)
    yield "alu8", bench.alu(8)
    yield "rca16", bench.ripple_adder(16)
    yield "bshift16", bench.barrel_shifter(16)
    yield "prio16", bench.priority_encoder(16)
    yield "mux4", bench.mux_tree(4)
    yield "cmp8", bench.comparator(8)
    yield "dec4", bench.one_hot_decoder(4)
    yield "parity9", bench.parity(9)
    yield "altchain40", bench.alternating_chain(40)
    for seed in range(5):
        # few POs: sweep_dangling drops most of the graph
        yield f"rand{seed}", random_aig(200, 10, seed=seed, n_pos=3)
    for seed in range(3):
        g = random_aig(150, 8, seed=20 + seed)
        yield f"blif{seed}", parse_netlist(shuffled_blif(g, seed))
        yield f"aag{seed}", parse_netlist(write_aag(g))


@pytest.mark.parametrize("name,g", list(_order_cases()))
def test_node_order_is_topological(name, g):
    for nid, n in g.nodes.items():
        assert n.fanin0[0] < nid and n.fanin1[0] < nid, (name, nid)
    assert g.topo_order() == kahn_order(g)


def test_shuffled_blif_is_out_of_dependency_order():
    g = random_aig(150, 8, seed=20)
    text = shuffled_blif(g, 0)
    records = [line.split()[1:] for line in text.splitlines()
               if line.startswith(".names")]
    defined_at = {rec[-1]: i for i, rec in enumerate(records)}
    assert any(defined_at.get(net, -1) > i
               for i, rec in enumerate(records) for net in rec[:-1])
    g2 = parse_netlist(text)
    assert g2.signature() == g.signature()


def test_nodes_cannot_be_passed_in():
    with pytest.raises(TypeError):
        SubjectGraph(nodes={3: AndNode(3, (1, False), (2, False))})
