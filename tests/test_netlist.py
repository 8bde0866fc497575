import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pytest.param(GOOD_AAG.replace("i1 b", "i7 b"), 7, id="symbol-past-inputs"),
    pytest.param(GOOD_AAG.replace("o0 f", "o3 f"), 8,
                 id="symbol-past-outputs"),
    pytest.param(GOOD_AAG.replace("i1 b", "i0 b"), 7, id="symbol-given-twice"),
    # int() takes a sign, and digits of any script
    pytest.param("aag 1 1 0 1 0\n-2\n-2\n", 2, id="signed-input"),
    pytest.param(GOOD_AAG.replace("\n6\n", "\n+6\n"), 4, id="signed-output"),
    pytest.param(GOOD_AAG.replace("6 2 4", "6 2 \u0664"), 5,
                 id="non-ascii-digit-and"),
    pytest.param(GOOD_AAG.replace("aag 3", "aag +3"), 1, id="signed-header"),
]


def test_aag_ands_may_come_in_any_order():
    # f = a & (a & b): the AND on line 5 reads the one on line 6
    ordered = "aag 4 2 0 1 2\n2\n4\n8\n6 2 4\n8 6 2\n"
    forward = "aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\n"
    assert parse_netlist(forward).signature() == \
        parse_netlist(ordered).signature()
    # an ordered file keeps its node ids: one per AND line, in file order
    g = parse_netlist("aag 4 2 0 2 2\n2\n4\n6\n8\n6 2 4\n8 3 5\n")
    assert g.nodes == {3: AndNode((1, False), (2, False)),
                       4: AndNode((1, True), (2, True))}


def test_aag_symbol_table_names():
    g = parse_netlist(GOOD_AAG)
    assert [g.pi_names[p] for p in g.pis] == ["a", "b"]
    assert g.po_names == ["f"]


def test_aag_comment_section_is_skipped():
    g = parse_netlist(GOOD_AAG + "c\n6 2 4\nfree text\n")
    assert g.po_names == ["f"] and len(g.nodes) == 1


@pytest.mark.parametrize("text,kind,name", [
    (".model x\n.inputs a b\n.outputs f f\n.names a b f\n11 1\n.end\n",
     "output", "f"),
    (".model x\n.inputs x x\n.outputs f\n.names x f\n1 1\n.end\n",
     "input", "x"),
    (GOOD_AAG.replace("\n6 2 4\n", "\n6\n6 2 4\n")
     .replace("aag 3 2 0 1 1", "aag 3 2 0 2 1") + "o1 f\n", "output", "f"),
    (GOOD_AAG.replace("i1 b", "i1 a"), "input", "a"),
    # input 0 has no symbol, so it takes the default name i0
    (GOOD_AAG.replace("i0 a\ni1 b", "i1 i0"), "input", "i0"),
], ids=["blif-outputs", "blif-inputs", "aag-outputs", "aag-inputs",
        "aag-default-name"])
def test_repeated_port_name_rejected(text, kind, name):
    # a netlist written from the graph would declare the port twice
    with pytest.raises(NetlistError, match=f"duplicate {kind} name '{name}'"):
        parse_netlist(text)


# netlists whose PI or PO names meet the names write_blif generates
NAME_CLASHES = {
    "pi-named-like-a-node": (".model t\n.inputs n3 b\n.outputs x\n"
                             ".names n3 b x\n11 1\n.end\n"),
    "po-named-like-a-node": (".model t\n.inputs a b\n.outputs n3 y\n"
                             ".names a b y\n11 1\n.names a b n3\n10 1\n.end\n"),
    "po-is-its-own-pi": (".model t\n.inputs a b\n.outputs a f\n"
                         ".names a b f\n11 1\n.end\n"),
    "pi-named-const0": (".model t\n.inputs const0 b\n.outputs f z\n"
                        ".names const0 b f\n11 1\n.names z\n.end\n"),
}


@pytest.mark.parametrize("text", NAME_CLASHES.values(), ids=NAME_CLASHES)
def test_write_blif_names_nets_apart_from_ports(text):
    g = parse_netlist(text)
    again = parse_netlist(write_blif(g))
    assert again.signature() == g.signature()
    assert write_blif(again) == write_blif(g)


def test_po_that_is_its_own_pi_writes_no_names_record():
    text = write_blif(parse_netlist(NAME_CLASHES["po-is-its-own-pi"]))
    assert text == (".model t\n.inputs a b\n.outputs a f\n"
                    ".names a b n3\n11 1\n.names n3 f\n1 1\n.end\n")


def test_constant_po_writes_no_unread_constant_net():
    # no AND node reads the constant, so only the PO's own .names is written
    text = write_blif(parse_netlist(NAME_CLASHES["pi-named-const0"]))
    assert text == (".model t\n.inputs const0 b\n.outputs f z\n"
                    ".names const0 b n3\n11 1\n.names n3 f\n1 1\n"
                    ".names z\n.end\n")


def test_write_blif_rejects_po_named_like_another_pi():
    # PO a = a & b would give net a two drivers, the PI and a .names
    g = SubjectGraph(name="t")
    a, b = g.add_pi("a"), g.add_pi("b")
    g.add_po(g.add_and((a, False), (b, False)), "a")
    with pytest.raises(NetlistError,
                       match="output 'a' is named like an input"):
        write_blif(g)


@pytest.mark.parametrize("text,match", [
    (GOOD_AAG.replace("o0 f", "o0 a"), "output 'a' is named like an input"),
    # output literal 3 is input a complemented
    (GOOD_AAG.replace("\n6\n6 2 4", "\n3\n6 2 4").replace("o0 f", "o0 a"),
     "output 'a' is named like an input"),
    (GOOD_AAG.replace("i0 a", "i0 my in"), "input name 'my in' holds"),
    (GOOD_AAG.replace("o0 f", "o0 f g"), "output name 'f g' holds"),
], ids=["aag-and", "aag-complemented", "aag-input-space",
        "aag-output-space"])
def test_port_name_a_netlist_cannot_declare_rejected(text, match):
    with pytest.raises(NetlistError, match=match):
        parse_netlist(text)


def test_po_that_is_its_own_pi_accepted():
    # output literal 2 is input a itself
    g = parse_netlist(GOOD_AAG.replace("\n6\n6 2 4", "\n2\n6 2 4")
                      .replace("o0 f", "o0 a"))
    assert g.pos == [(g.pis[0], False)] and g.po_names == ["a"]


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
        SubjectGraph(nodes={3: AndNode((1, False), (2, False))})


# -- .gate records ------------------------------------------------------------

# each .gate primitive's input pins, its .names body over them and its
# function, bitwise
GATES = {
    "and2": ("ab", "11 1", lambda a, b: a & b),
    "nand2": ("ab", "11 0", lambda a, b: ~(a & b)),
    "or2": ("ab", "1- 1\n-1 1", lambda a, b: a | b),
    "nor2": ("ab", "00 1", lambda a, b: ~(a | b)),
    "xor2": ("ab", "10 1\n01 1", lambda a, b: a ^ b),
    "xnor2": ("ab", "10 0\n01 0", lambda a, b: ~(a ^ b)),
    "inv": ("a", "0 1", lambda a: ~a),
    "buf": ("a", "1 1", lambda a: a),
}
OUTPUT_PINS = ["o", "q", "y", "z", "out"]


def gate_as_names(line: str) -> str:
    """A primitive ``.gate`` line written as the ``.names`` record of its
    function, its nets in pin order."""
    _, gate, *binds = line.split()
    nets = {p.lower(): n for p, n in (b.split("=") for b in binds)}
    pins, body, _ = GATES[gate.lower()]
    out = next(nets[p] for p in OUTPUT_PINS if p in nets)
    return f".names {' '.join(nets[p] for p in pins)} {out}\n{body}"


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
@pytest.mark.parametrize("gate", GATES)
def test_gate_reads_as_its_names_record(gate, upper):
    pins, body, func = GATES[gate]
    case = str.upper if upper else str.lower
    binds = [f"{case(p)}={n}" for p, n in zip(pins, "xy")] + [f"{case('o')}=f"]
    line = f".gate {case(gate)} {' '.join(binds)}"
    head = ".model t\n.inputs x y\n.outputs f\n"
    g = parse_netlist(f"{head}{line}\n.end\n")
    names = parse_netlist(f"{head}{gate_as_names(line)}\n.end\n")
    assert g.signature() == names.signature()
    x, y = g.pis
    xs, ys = 0b1010, 0b1100
    want = func(xs, ys) if len(pins) == 2 else func(xs)
    assert g.simulate({x: xs, y: ys})[0] & 0b1111 == want & 0b1111


@st.composite
def gate_blifs(draw):
    """A BLIF of random primitive .gate records in shuffled order, gate and
    pin names in random case, each reading PIs or earlier records."""
    pool = ["i0", "i1", "i2"]
    lines = []
    for k in range(draw(st.integers(1, 12))):
        gate = draw(st.sampled_from(sorted(GATES)))
        ins = GATES[gate][0]
        pins = [*ins, draw(st.sampled_from(OUTPUT_PINS))]
        nets = [draw(st.sampled_from(pool)) for _ in ins] + [f"n{k}"]
        binds = [f"{p.upper() if draw(st.booleans()) else p}={n}"
                 for p, n in zip(pins, nets)]
        gate = gate.upper() if draw(st.booleans()) else gate
        lines.append(f".gate {gate} {' '.join(draw(st.permutations(binds)))}")
        pool.append(f"n{k}")
    outs = draw(st.lists(st.sampled_from(pool[3:]), min_size=1, max_size=3,
                         unique=True))
    lines = draw(st.permutations(lines))
    return "\n".join([".model r", ".inputs i0 i1 i2",
                      f".outputs {' '.join(outs)}", *lines, ".end"]) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=gate_blifs())
def test_random_gate_blif_reads_as_its_names_form(text):
    names = "\n".join(gate_as_names(line) if line.startswith(".gate") else line
                      for line in text.splitlines()) + "\n"
    assert ".gate" not in names
    assert write_blif(parse_netlist(text)) == write_blif(parse_netlist(names))


HEAD = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n"

# (text, line of the error, message): every record is checked when it is
# read, so a record that nothing reads is checked too
READER_ERRORS = {
    "unknown-gate-unread": (HEAD + ".gate frob2 a=a b=b o=g\n", 6,
                            "unknown gate 'frob2'"),
    "dff-gate-unread": (HEAD + ".gate dff a=a q=g\n", 6,
                        "sequential or fanout cell 'dff'"),
    "split-gate-unread": (HEAD + ".gate SPLIT a=a o=g\n", 6,
                          "sequential or fanout cell 'SPLIT'"),
    "missing-pin-unread": (HEAD + ".gate and2 a=a o=g\n", 6,
                           "gate 'and2' binds pins a o, not a b "),
    "no-output-pin": (HEAD + ".gate and2 a=a b=b\n", 6,
                      "gate 'and2' binds pins a b, not a b "),
    "two-output-pins": (".model m\n.inputs a b\n.outputs f\n"
                        ".gate and2 a=a b=b o=f q=f\n", 4,
                        "gate 'and2' binds pins a b o q, not a b "),
    "pin-bound-twice": (".model m\n.inputs a b\n.outputs f\n"
                        ".gate and2 a=a b=b A=b o=f\n", 4,
                        "pin 'a' bound twice"),
    "unknown-pin": (".model m\n.inputs a b\n.outputs f\n"
                    ".gate inv a=a b=b o=f\n", 4, "gate 'inv' binds pins a b o, not a "),
    "mixed-cubes": (".model m\n.inputs a b\n.outputs f\n"
                    ".names a b f\n11 1\n00 0\n", 4, "mixed on-set/off-set"),
    "mixed-cubes-unread": (HEAD + ".names a b g\n11 1\n00 0\n", 6,
                           "mixed on-set/off-set"),
    "mixed-constant": (".model m\n.outputs f\n.names f\n1\n0\n", 3,
                       "mixed on-set/off-set"),
    "cube-output-01": (".model m\n.inputs a\n.outputs f\n.names a f\n1 01\n",
                       5, "cube output must be 0 or 1"),
    "constant-01": (".model m\n.outputs f\n.names f\n01\n", 4,
                    "cube output must be 0 or 1"),
    # once read as one graph named sub, with PIs a, b, c and POs f, g
    "two-models": (".model top\n.inputs a b\n.outputs f\n.names a b f\n11 1\n"
                   ".end\n.model sub\n.inputs c\n.outputs g\n.names c g\n"
                   "1 1\n.end\n", 7, r"'\.model' after \.end"),
    "second-model-no-end": (HEAD + ".model sub\n.inputs c\n", 6,
                            r"second \.model: one model per file"),
    "record-after-end": (HEAD + ".end\n.names a g\n1 1\n", 7,
                         r"'\.names' after \.end"),
    "gate-then-names-twice": (".model m\n.inputs a b\n.outputs f\n"
                              ".gate and2 a=a b=b o=f\n.names a f\n1 1\n", 5,
                              "signal 'f' defined twice"),
    "record-then-input": (HEAD + ".inputs f\n", 6, "signal 'f' defined twice"),
}


@pytest.mark.parametrize("text,line,match", READER_ERRORS.values(),
                         ids=READER_ERRORS)
def test_blif_reader_error_names_its_line(text, line, match):
    with pytest.raises(NetlistError, match=match) as err:
        parse_netlist(text)
    assert err.value.line == line

