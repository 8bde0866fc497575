import itertools
import random
from types import SimpleNamespace

import pytest

from pbmap.cuts import compute_cut_functions, enumerate_cuts
from pbmap.library import (Cell, CellLibrary, LibraryError, MatchTable,
                           _child_tuples, _eval_expr, _ExprParser,
                           generate_supergates, hit_rate, parse_library)
from pbmap.netlist import SubjectGraph, _and_op
from pbmap.truthtable import apply_cell, table_mask, tt_eval, tt_not, var_table

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


def expr_table(text: str) -> int:
    """The truth table of a genlib expression over its variables in order
    of first use, as ``parse_library`` builds a cell's."""
    parser = _ExprParser(text)
    tree = parser.parse()
    return _eval_expr(tree, {v: i for i, v in enumerate(parser.vars)},
                      len(parser.vars))


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
    with pytest.raises(LibraryError):
        parse_library(MINI + f"GATE g 1.0 o={expr};\n")


def test_non_numeric_area_rejected():
    with pytest.raises(LibraryError, match="non-numeric area '1e'"):
        parse_library(MINI + "GATE g 1e o=a*b;\n")


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
    for lst in table.by_func.values() if hasattr(table, "by_func") else []:
        keys = [(sg.internal_dffs, sg.depth, sg.area) for sg in lst]
        assert keys == sorted(keys)


def test_lookup_matches_linear_scan(table):
    rng = random.Random(11)
    for sg in rng.sample(table.supergates, 50):
        got = table.lookup(sg.func, sg.n_inputs)
        want = [s for s in table.supergates
                if s.n_inputs == sg.n_inputs and s.func == sg.func]
        assert set(s.name for s in got) == set(s.name for s in want)
        assert sg.name in {s.name for s in got}


def test_negative_phase_lookup(table):
    and2 = 0b1000
    neg = table.lookup(and2, 2, phase="negative")
    pos = table.lookup(tt_not(and2, 2), 2)
    assert [s.name for s in neg] == [s.name for s in pos]
    assert neg  # NAND is reachable as inv(and2)


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
