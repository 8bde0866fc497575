import dataclasses
import hashlib
import itertools
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbmap import library
from pbmap.cuts import compute_cut_functions, enumerate_cuts
from pbmap.library import (Cell, CellLibrary, GenerationStats, LibraryError,
                           MatchTable, _child_tuples, _ExprParser, _sort_key,
                           generate_supergates, hit_rate, parse_library)
from pbmap.flow import map_graph, prepare_match_table
from pbmap.netlist import SubjectGraph, _and_op, parse_netlist
from pbmap.truthtable import (apply_cell, symmetry_perms, table_mask, tt_eval,
                              tt_not, var_table)

from conftest import DATA

MINI = """
GATE and2   2.0 o=a*b;   # JJ=6 CLOCKED=1
GATE inv    1.0 o=!a;    # JJ=4 CLOCKED=0
GATE dff    1.0 q=a;     # JJ=4 CLOCKED=1
GATE split  0.5 o=a;     # JJ=3 CLOCKED=0
"""


def test_parse_bundled_library(lib):
    names = {c.name for c in lib.cells}
    assert names == {"and2", "or2", "xor2", "inv", "dff", "split"}
    by = {c.name: c for c in lib.cells}
    assert by["and2"].func == 0b1000
    assert by["or2"].func == 0b1110
    assert by["xor2"].func == 0b0110
    assert by["and2"].is_clocked and by["dff"].is_clocked
    assert not by["inv"].is_clocked and not by["split"].is_clocked
    assert by["and2"].jj_count == 6
    assert lib.inverter.name == "inv"
    assert lib.dff.name == "dff"
    assert lib.splitter.name == "split"
    assert {c.name for c in lib.logic_cells()} == {"and2", "or2", "xor2", "inv"}


def test_parse_classic_genlib_with_pin_records():
    text = """GATE nand2 2.0 o=!(a*b); PIN * INV 1 999 1.0 0.2 1.0 0.2
GATE inv 1.0 o=!a; PIN * INV 1 999 0.9 0.3 0.9 0.3
GATE dff 1.0 q=a;
GATE split 0.5 o=a; # CLOCKED=0
"""
    lib = parse_library(text)
    by = {c.name: c for c in lib.cells}
    assert by["nand2"].func == 0b0111
    assert by["inv"].kind == "inverter"
    assert by["split"].kind == "splitter"
    assert by["dff"].kind == "dff"



@pytest.mark.parametrize("lib_name", ["lib", "clocked_lib"])
def test_cell_kinds_of_the_workload_libraries(lib_name, request):
    lib = request.getfixturevalue(lib_name)
    assert {c.name: c.kind for c in lib.cells} == {
        "and2": "logic", "or2": "logic", "xor2": "logic", "inv": "inverter",
        "dff": "dff", "split": "splitter"}


@pytest.mark.parametrize("record,kind", [
    ("GATE nosplit_and 2.0 o=a*b;", "logic"),
    ("GATE split2 2.0 o=a+b;", "logic"),
    ("GATE dffr 1.0 q=!a;", "inverter"),
    ("GATE dff2 1.0 q=a;", "dff"),
    ("GATE buf 1.0 o=a; # CLOCKED=0", "splitter"),
    ("GATE fanout_split 1.0 o=a;", "splitter"),
])
def test_cell_kind_comes_from_the_function(record, kind):
    # once a name holding "split" made any cell the splitter, and a cell
    # named dff, dffr or dffe the DFF, whatever their functions
    lib = parse_library(record + "\n" + MINI)
    assert lib.cells[0].kind == kind
    assert (lib.splitter.name, lib.dff.name) == (
        lib.cells[0].name if kind == "splitter" else "split",
        lib.cells[0].name if kind == "dff" else "dff")


# genlib's constant keywords, as SIS and ABC libraries carry them
CONSTANT_CELLS = "GATE zero 0 O=CONST0;\nGATE one 0 O=CONST1;\n"


def test_genlib_constant_cells_are_logic_without_inputs(lib, table):
    # once each keyword was an input pin, so both cells were 1-input
    # identities and "zero" became the library's DFF
    consts = parse_library(CONSTANT_CELLS + (DATA / "sfq.genlib").read_text())
    assert [(c.name, c.kind, c.n_inputs, c.pin_names)
            for c in consts.cells[:2]] == [("zero", "logic", 0, ()),
                                           ("one", "logic", 0, ())]
    assert consts.dff.name == "dff"
    assert (expr_table("CONST0"), expr_table("CONST1")) == (0, 1)
    # a 0-input cell generates no supergate, so ksa4 maps as under the
    # bundled library alone
    consts_table = prepare_match_table(consts)
    assert ([sg.name for sg in consts_table.supergates]
            == [sg.name for sg in table.supergates])
    blif = (DATA / "ksa4.blif").read_text()
    want = map_graph(parse_netlist(blif), lib, table)
    got = map_graph(parse_netlist(blif), consts, consts_table)
    for a, b in ((want.before, got.before), (want.after, got.after)):
        assert b.write_blif() == a.write_blif()
        assert (b.jj_count, b.area) == (a.jj_count, a.area)


@pytest.mark.parametrize("expr", ["a+CONST0", "a*CONST1", "a CONST1"])
def test_genlib_constants_are_no_pins(expr):
    lib = parse_library(f"GATE buf 1.0 o={expr}; # CLOCKED=0\n" + MINI)
    assert lib.cells[0].pin_names == ("a",)
    assert lib.cells[0].kind == "splitter"  # the identity of a
    assert expr_table(expr) == var_table(0, 1)


def test_inverting_dff_is_no_dff():
    text = MINI.replace("q=a;", "q=!a;")
    with pytest.raises(LibraryError, match="library has no DFF cell"):
        parse_library(text)

def expr_table(text: str) -> int:
    """The truth table of a genlib expression over its variables in order
    of first use, as ``parse_library`` builds a cell's."""
    parser = _ExprParser(text)
    tt = parser.parse()
    return tt & table_mask(len(parser.vars))


def test_expression_operators():
    # aoi: !((a*b)+c) over (a,b,c)
    aoi = expr_table("!((a*b)+c)")
    for m in range(8):
        a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
        assert tt_eval(aoi, m) == 1 - ((a & b) | c)
    assert expr_table("a^b") == 0b0110
    # juxtaposition = AND, postfix quote = NOT
    jux = expr_table("a b + c'")
    for m in range(8):
        a, b, c = m & 1, (m >> 1) & 1, (m >> 2) & 1
        assert tt_eval(jux, m) == ((a & b) | (1 - c))


# an expression tree: a variable or constant name, (op, operand) for a
# prefix "!" or postfix "'", or (op, left, right) for "*", " "
# (juxtaposition), "+" or "^"
expr_trees = st.recursive(
    st.sampled_from([*"abcdef", "0", "1"]),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["!", "'"]), kids),
        st.tuples(st.sampled_from(["*", " ", "+", "^"]), kids, kids)),
    max_leaves=12)


def render(tree) -> str:
    """``tree`` as genlib text, every operand in parentheses."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "!":
        return f"!({render(tree[1])})"
    if tree[0] == "'":
        return f"({render(tree[1])})'"
    return f"({render(tree[1])}){tree[0]}({render(tree[2])})"


def tree_vars(tree, found: list) -> list:
    """The variables of ``tree`` in order of first use, appended to
    ``found``."""
    if isinstance(tree, str):
        if tree.isalpha() and tree not in found:
            found.append(tree)
    else:
        for kid in tree[1:]:
            tree_vars(kid, found)
    return found


def tree_value(tree, env: dict) -> int:
    if isinstance(tree, str):
        return env[tree] if tree.isalpha() else int(tree)
    if tree[0] in "!'":
        return 1 - tree_value(tree[1], env)
    a, b = tree_value(tree[1], env), tree_value(tree[2], env)
    return {"*": a & b, " ": a & b, "+": a | b, "^": a ^ b}[tree[0]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trees=st.lists(expr_trees, min_size=1, max_size=4))
def test_cell_functions_match_minterm_evaluation(trees):
    text = "".join(f"GATE g{i} 1.0 o={render(t)};\n"
                   for i, t in enumerate(trees))
    # cells of any width up to MAX_VARS, not only those SFQ mode maps onto
    with mock.patch.object(library, "_validate_sfq", lambda lib: None):
        cells = parse_library(text).cells
    for tree, cell in zip(trees, cells):
        names = tree_vars(tree, [])
        assert cell.pin_names == tuple(names)
        want = sum(tree_value(tree, {v: (m >> i) & 1
                                     for i, v in enumerate(names)}) << m
                   for m in range(1 << len(names)))
        if not names or (len(names) == 1 and want == 0b10):
            assert cell.func is None  # a constant, or a dff
        else:
            assert cell.func == want, render(tree)


def test_syntax_error_reported_before_the_input_count():
    # seven variables, so a variable past MAX_VARS is read before the error
    with pytest.raises(LibraryError, match="trailing tokens in expression"):
        parse_library(MINI + "GATE g 1.0 o=a*b*c*d*e*f*g);\n")


def test_missing_inverter_rejected():
    text = """GATE and2 2.0 o=a*b;
GATE dff 1.0 q=a;
GATE split 0.5 o=a; # CLOCKED=0
"""
    with pytest.raises(LibraryError):
        parse_library(text)


def test_missing_dff_and_splitter_rejected():
    with pytest.raises(LibraryError):
        parse_library("GATE and2 2.0 o=a*b;\nGATE inv 1.0 o=!a;\n")


def test_wide_cell_rejected_in_sfq_mode():
    with pytest.raises(LibraryError):
        parse_library(MINI + "GATE and3 3.0 o=a*b*c;\n")


def test_duplicate_cell_rejected():
    with pytest.raises(LibraryError):
        parse_library(MINI + "GATE and2 2.0 o=a+b;\n")


@pytest.mark.parametrize("expr", ["a|b", "a-b", "a @ b", "a&b"])
def test_characters_outside_the_grammar_rejected(expr):
    # once dropped silently, which made each of these parse as a*b
    with pytest.raises(LibraryError, match="^cell 'g': "):
        parse_library(MINI + f"GATE g 1.0 o={expr};\n")


def test_non_numeric_area_rejected():
    with pytest.raises(LibraryError, match="non-numeric area '1e'"):
        parse_library(MINI + "GATE g 1e o=a*b;\n")


@pytest.mark.parametrize("area", ["1e400", "-1e400"])
def test_non_finite_area_rejected(area):
    # float() overflows these to infinity, which no JSON report can hold
    with pytest.raises(LibraryError,
                       match=f"^cell 'g' has a non-finite area '{area}'"):
        parse_library(MINI + f"GATE g {area} o=a*b;\n")


def test_negative_area_rejected():
    # once accepted, with a negative report area and the DP's area
    # tie-break preferring the cell
    with pytest.raises(LibraryError,
                       match="^cell 'g' has a negative area '-1.0'"):
        parse_library(MINI + "GATE g -1.0 o=a*b;\n")


@pytest.mark.parametrize("jj", ["-6", "x", "6.5", ""])
def test_unreadable_jj_count_rejected(jj):
    # once read as 0 JJs
    with pytest.raises(LibraryError,
                       match=f"^cell 'g' has an unreadable JJ count '{jj}'"):
        parse_library(MINI + f"GATE g 1.0 o=a*b;  # JJ={jj}\n")


@pytest.mark.parametrize("flag", ["2", "x", ""])
def test_unreadable_clocked_flag_rejected(flag):
    # CLOCKED=2 once read as no flag, so the cell was taken as clocked
    with pytest.raises(LibraryError, match="^cell 'g' has an unreadable "
                                           f"CLOCKED flag '{flag}'"):
        parse_library(MINI + f"GATE g 1.0 o=a*b;  # JJ=6 CLOCKED={flag}\n")


def test_clocked_flag_read_inside_prose():
    # the flag ends at the first character that is not a word character
    lib = parse_library(MINI + "GATE g 1.0 o=a*b;  # JJ=6 (CLOCKED=0), "
                               "a transparent cell\n")
    assert not next(c for c in lib.cells if c.name == "g").is_clocked


def test_a_record_without_jj_counts_0():
    lib = parse_library(MINI + "GATE g 1.0 o=a*b;  # CLOCKED=1\n")
    assert next(c for c in lib.cells if c.name == "g").jj_count == 0


def test_a_comment_between_records_annotates_neither():
    # a record's text runs up to the next GATE, and a comment there once
    # set the earlier cell's JJ count and clocking
    lib = parse_library(
        "GATE and2 0.006 o=a*b;\n"
        "# the inverter below is level-transparent (CLOCKED=0) and costs "
        "JJ=4\n"
        "GATE inv 0.003 o=!a;  # JJ=4 CLOCKED=0\n"
        "GATE dff 0.0025 q=a;  # JJ=4 CLOCKED=1\n"
        "GATE split 0.0015 o=a;  # JJ=3 CLOCKED=0\n")
    and2 = next(c for c in lib.cells if c.name == "and2")
    assert (and2.is_clocked, and2.jj_count) == (True, 0)


def test_annotations_read_through_the_line_ending_the_statement():
    # a statement may span lines, and any of them may annotate it; a PIN
    # line after its ';' once set its clocking
    lib = parse_library(MINI + "GATE g 1.0  # JJ=7\n  o=a*b;\n"
                               "  PIN * NONINV 1 999 1 0 1 0  # CLOCKED=0\n")
    g = next(c for c in lib.cells if c.name == "g")
    assert (g.is_clocked, g.jj_count) == (True, 7)


def test_cell_wider_than_a_truth_table_rejected():
    # its table would need more than MAX_VARS variables
    with pytest.raises(LibraryError, match="7 inputs"):
        parse_library(MINI + "GATE g 1.0 o=a*b*c*d*e*f*g;\n")


def test_malformed_record_named_by_its_gate_line():
    # the GATE split puts the blank lines before a record at its start
    with pytest.raises(LibraryError,
                       match="malformed GATE record: 'GATE g x o=a;'"):
        parse_library(MINI + "\n\n  GATE g x o=a;\n")


def test_depth1_supergates_are_primitives(lib):
    sgs = generate_supergates(lib, k=5, max_depth=1)
    roots = sorted(sg.root_cell.name for sg in sgs)
    assert roots == ["and2", "inv", "or2", "xor2"]
    for sg in sgs:
        assert all(isinstance(c, int) for c in sg.children)
        assert sg.internal_dffs == 0


def eval_children(sg, leaf_bits):
    """The value of ``sg``'s cell tree on its leaves, consumed left to right
    as ``_instantiate`` wires them; each cell evaluated by its own table."""
    pin_bits = 0
    for i, c in enumerate(sg.children):
        if isinstance(c, int):
            bit = next(leaf_bits)
        else:
            bit = eval_children(c, leaf_bits)
        pin_bits |= bit << i
    return tt_eval(sg.root_cell.func, pin_bits)


def test_wide_roots_take_supergate_children():
    # a 3-input root composes with three children, so and3 over a supergate
    # is generated; each supergate's table is its cell tree's function.  The
    # parser rejects a 3-input cell, so the library is built from its cells:
    # MINI's plus and3 and or2
    lib = CellLibrary([
        Cell("and2", 2, 0b1000, 2.0, 6, True, "logic", ("a", "b")),
        Cell("inv", 1, 0b01, 1.0, 4, False, "inverter", ("a",)),
        Cell("dff", 1, None, 1.0, 4, True, "dff", ("a",), "q"),
        Cell("split", 1, None, 0.5, 3, False, "splitter", ("a",)),
        Cell("and3", 3, 0x80, 3.0, 9, True, "logic", ("a", "b", "c")),
        Cell("or2", 2, 0b1110, 2.0, 6, True, "logic", ("a", "b")),
    ])
    sgs = generate_supergates(lib, k=5, max_depth=2)
    assert any(sg.root_cell.name == "and3"
               and not all(isinstance(c, int) for c in sg.children)
               for sg in sgs)
    for sg in sgs:
        assert sum(1 if isinstance(c, int) else c.n_inputs
                   for c in sg.children) == sg.n_inputs
        for m in range(1 << sg.n_inputs):
            leaf_bits = iter((m >> j) & 1 for j in range(sg.n_inputs))
            assert eval_children(sg, leaf_bits) == tt_eval(sg.func, m), sg.name


def test_double_inversion_pruned(lib):
    sgs = generate_supergates(lib, k=5, max_depth=2)
    idn = var_table(0, 1)
    assert all(not (sg.n_inputs == 1 and sg.func == idn) for sg in sgs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_child_tuples_are_the_product_within_width(n):
    # generation reads its child tuples in itertools.product's order, less
    # those wider than k; the order decides which supergates the budget keeps
    opts = [None] + [SimpleNamespace(n_inputs=w) for w in (3, 1, 2, 4, 2)]
    widths = [1 if o is None else o.n_inputs for o in opts]
    for k in range(1, 8):
        want = [c for c in itertools.product(opts, repeat=n)
                if sum(1 if o is None else o.n_inputs for o in c) <= k]
        assert list(_child_tuples(opts, widths, n, k)) == want, k


def test_generation_keeps_within_k(lib):
    for k in (2, 3, 4):
        sgs = generate_supergates(lib, k=k, max_depth=3)
        assert max(sg.n_inputs for sg in sgs) == k


def test_generation_rejects_wider_than_a_truth_table(lib):
    # supergate tables are composed from var_table, which stops at MAX_VARS
    with pytest.raises(ValueError):
        generate_supergates(lib, k=7, max_depth=2)


def test_generation_scale(lib, table):
    # full generation at k=5, depth 3: a few thousand supergates
    assert 2000 < len(table.supergates) < 6000
    funcs = {(sg.n_inputs, sg.func) for sg in table.supergates}
    assert len(funcs) > 2000


def test_supergate_functions_match_recursive_evaluation(table):
    rng = random.Random(5)
    sample = rng.sample(table.supergates, 60)

    def ev(sg, minterm, base):
        # leaves occupy consecutive input positions starting at base
        vals = []
        pos = base
        for ch in sg.children:
            if isinstance(ch, int):
                vals.append((minterm >> pos) & 1)
                pos += 1
            else:
                vals.append(ev(ch, minterm, pos))
                pos += ch.n_inputs
        idx = sum(v << i for i, v in enumerate(vals))
        return tt_eval(sg.root_cell.func, idx)

    for sg in sample:
        for m in range(1 << sg.n_inputs):
            assert tt_eval(sg.func, m) == ev(sg, m, 0)


def _lift(tt: int, m: int, offset: int, n: int) -> int:
    """Embed a table over m vars into an n-var space at the given offset,
    one minterm at a time."""
    out = 0
    mm = (1 << m) - 1
    for minterm in range(1 << n):
        if (tt >> ((minterm >> offset) & mm)) & 1:
            out |= 1 << minterm
    return out


def lifted_func(sg) -> int:
    """A supergate's table composed from its children's, each rebuilt the
    same way and lifted to its leaf offset minterm by minterm."""
    n = sg.n_inputs
    child_tts = []
    pos = 0
    for ch in sg.children:
        if isinstance(ch, int):
            child_tts.append(_lift(var_table(0, 1), 1, pos, n))
            pos += 1
        else:
            child_tts.append(_lift(lifted_func(ch), ch.n_inputs, pos, n))
            pos += ch.n_inputs
    return apply_cell(sg.root_cell.func, child_tts, table_mask(n))


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_supergate_functions_match_lifted_composition(lib_name, table,
                                                      clocked_table):
    tbl = table if lib_name == "bundled" else clocked_table
    for sg in tbl.supergates:
        assert sg.func == lifted_func(sg), sg.name


def test_supergate_cost_fields(table):
    for sg in random.Random(9).sample(table.supergates, 40):
        assert sg.depth == max(sg.leaf_depths)
        assert len(sg.leaf_depths) == sg.n_inputs
        assert sg.area > 0 and sg.jj_count > 0
        assert sg.internal_dffs >= 0
        # a match cannot need more pads than the per-leaf slack
        assert sg.internal_dffs <= sum(sg.depth - d for d in sg.leaf_depths)


def test_match_lists_sorted(table):
    assert table.table
    for lst in table.table.values():
        assert lst == sorted(lst, key=_sort_key)


def test_lookup_matches_linear_scan(table):
    rng = random.Random(11)
    for sg in rng.sample(table.supergates, 50):
        got = table.lookup(sg.func, sg.n_inputs)
        want = [s for s in table.supergates
                if s.n_inputs == sg.n_inputs and s.func == sg.func]
        assert set(s.name for s in got) == set(s.name for s in want)
        assert sg.name in {s.name for s in got}


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_no_identity_or_constant_is_matched(lib_name, table, clocked_table):
    # so the DP's positive phase may skip every node's trivial cut, whose
    # function is the identity, without a lookup
    tbl = table if lib_name == "bundled" else clocked_table
    for n, func in tbl.table:
        assert (n, func) != (1, var_table(0, 1))
        assert func not in (0, table_mask(n))


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_holds_agrees_with_lookup(lib_name, table, clocked_table):
    tbl = table if lib_name == "bundled" else clocked_table
    rng = random.Random(5)
    pairs = list(tbl.table) + [(n, rng.getrandbits(1 << n))
                               for n in range(1, 7) for _ in range(50)]
    widths = np.array([n for n, _ in pairs])
    funcs = np.array([f for _, f in pairs], np.uint64).view(np.int64)
    assert tbl.holds(widths, funcs).tolist() == [
        bool(tbl.lookup(f, n)) for n, f in pairs]


def test_negative_phase_lookup(table):
    # a node's negative phase looks up the complement of its cut function,
    # and is wired as that function is: f and !f are fixed by the same perms
    and2 = 0b1000
    neg = table.lookup(tt_not(and2, 2), 2)
    assert neg  # NAND is reachable as inv(and2)
    assert all(sg.func == 0b0111 for sg in neg)
    for n, func in table.table:
        assert symmetry_perms(func, n) == symmetry_perms(tt_not(func, n), n)


# sha256 of every supergate's fields, in generation order, and of the
# GenerationStats; a change to the supergate set shows up here first
SUPERGATE_DIGESTS = {
    "bundled":
        "bac39ac4934b86643f8065db4a4d06ce3c321be8ac2ee78a4cc702d1e667b9b0",
    "clocked_inv":
        "4c5fa1bd1a6e1157a2ef0b45fa4847241d869e11c64234f592f6ac04cdaeba27",
}


@pytest.mark.parametrize("lib_name", SUPERGATE_DIGESTS)
def test_supergates_are_pinned(lib_name, lib, clocked_lib):
    stats = GenerationStats()
    rows = [(sg.name, sg.n_inputs, sg.func, sg.area, sg.jj_count, sg.depth,
             sg.leaf_depths, sg.groups, sg.internal_dffs, sg.struct_level)
            for sg in generate_supergates(
                lib if lib_name == "bundled" else clocked_lib, stats=stats)]
    digest = repr((rows, dataclasses.astuple(stats))).encode()
    assert hashlib.sha256(digest).hexdigest() == SUPERGATE_DIGESTS[lib_name]


def test_boolean_match_single_minterm(table):
    # a & b & !c & d: one minterm at a=1,b=1,c=0,d=1 (bit order x0..x3)
    minterm = 0b1011
    matches = table.lookup(1 << minterm, 4)
    assert matches
    assert min(sg.depth for sg in matches) == 2


def test_unmatchable_function(table):
    # 6-var tables exceed the widest generated supergate inputs at k=5
    assert table.lookup(var_table(0, 6) & var_table(5, 6), 6) == []


def test_hit_rate_full_on_and_tree(table):
    g = SubjectGraph()
    lits = [(g.add_pi(f"x{i}"), False) for i in range(4)]
    n1 = _and_op(g, lits[0], lits[1])
    n2 = _and_op(g, lits[2], lits[3])
    g.add_po(_and_op(g, n1, n2), "f")
    cutsets = compute_cut_functions(g, enumerate_cuts(g, k=2))
    assert hit_rate(cutsets, table) == 1.0
