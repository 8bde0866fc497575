import gc
import itertools
import random
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbmap import bench, flow
from pbmap import mapper as mapmod
from pbmap.cuts import compute_cut_functions, enumerate_cuts
from pbmap.flow import prepare_match_table
from pbmap.library import _prune_options, dominates, retimed_match_dffs
from pbmap.mapper import (Match, NodeSolution, _emit, _insert, extract_cover,
                          map_dag, map_depth_greedy)
from pbmap.netlist import (CONST0, SubjectGraph, _and_op, _neg, _or_op,
                           balanced_reduce, parse_netlist, random_aig)
from pbmap.truthtable import symmetry_perms, tt_not

POS = "positive"
NEG = "negative"


def prepared(g, k=5):
    return compute_cut_functions(g, enumerate_cuts(g, k=k))


def tree_opt(g, cutsets, table, root):
    """The DP's DFF optimum at ``root`` of a tree, one where no node fans
    out."""
    fanout = g.fanout_counts()
    assert all(fanout[nid] <= 1 for nid in g.nodes), "not a tree"
    return map_dag(g, cutsets, table)[(root, POS)].best.dffs


def chain_f():
    """F = a & b & !c & d as a chain."""
    g = SubjectGraph(name="F")
    a, b, c, d = [(g.add_pi(x), False) for x in "abcd"]
    n1 = _and_op(g, a, b)
    n2 = _and_op(g, n1, _neg(c))
    n3 = _and_op(g, n2, d)
    g.add_po(n3, "F")
    return g, n3[0]


def assert_equivalent(g, net):
    """``net`` computes ``g``'s POs on every input pattern."""
    n = len(g.pis)
    mask = (1 << (1 << n)) - 1
    packed = []
    for i in range(n):
        col = 0
        for m in range(1 << n):
            col |= ((m >> i) & 1) << m
        packed.append(col)
    want = [v & mask for v in g.simulate(dict(zip(g.pis, packed)))]
    got = net.simulate(packed, mask)
    assert [got[name] for name in g.po_names] == want


def mk(height, dffs, area=1.0, jj=0):
    """A candidate point of the DP's frontier insert, with no supergate."""
    return (height, dffs, (area, jj, ""), None, (), (), ())


def test_pareto_dominated_point_dropped():
    front = []
    _insert(front, mk(3, 2), 8)
    _insert(front, mk(5, 2), 8)  # same dffs, taller: dominated
    assert [p[:2] for p in front] == [(3, 2)]


def test_pareto_incomparable_points_kept_sorted():
    front = []
    _insert(front, mk(3, 2), 8)
    _insert(front, mk(5, 1), 8)
    assert [p[:2] for p in front] == [(5, 1), (3, 2)]
    # frontier[0] is the DFF-optimal point
    assert front[0][1] == 1


def test_pareto_tie_cheaper_point_wins_slot():
    front = []
    _insert(front, mk(3, 2, area=2.0), 8)
    _insert(front, mk(3, 2, area=1.0), 8)  # cheaper tie wins the slot
    assert len(front) == 1
    assert front[0][2][0] == 1.0


@settings(max_examples=300, deadline=None)
@given(cap=st.integers(1, 8),
       points=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.sampled_from([1.0, 1.5, 2.0]),
                                 st.integers(0, 2)),
                       min_size=1, max_size=24))
def test_frontier_head_is_first_inserted_minimum(cap, points):
    # the node's choice is frontier[0]: fed in _combine's order, it must be
    # the first-inserted minimum by (dffs, height, area, jj, name) of every
    # candidate, including those dropped or evicted on the way
    front = []
    cands = [mk(h, d, area, jj) for h, d, area, jj in points]
    for p in cands:
        _insert(front, p, cap)
    assert front[0] is min(cands, key=lambda p: (p[1], p[0], p[2]))


def test_pareto_cap_enforced():
    front = []
    for i in range(12):
        _insert(front, mk(12 - i, i), 4)
    assert len(front) <= 4


@settings(max_examples=300, deadline=None)
@given(choices=st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.1, 0.2, 1.5]),
              # (height, sg_dffs, supergate) per option of the choice
              st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                 st.integers(0, 3)),
                       min_size=1, max_size=10)),
    min_size=1, max_size=6))
def test_pruned_options_keep_the_frontier(choices):
    # MatchTable.options prunes each leaf choice's options before the leaf
    # costs are added; fed through the frontier insert, what is left must
    # keep the same points, down to the first-inserted of tied ones.  Two
    # supergates tie on area and JJs, and 0.1 + 0.2 rounds past 0.3.
    sgs = [SimpleNamespace(area=a, jj_count=jj, name=f"sg{i}")
           for i, (a, jj) in enumerate([(0.2, 2), (0.2, 2), (0.1, 1),
                                        (0.3, 1)])]
    pruned, plain = [], []
    for n, (leaf_dffs, leaf_area, entries) in enumerate(choices):
        choice = (Match(None, 0, leaf_dffs, leaf_area, 0),)
        # a distinct perm per option tells which of two tied ones is kept
        options = [(h, d, sgs[i], (n, j)) for j, (h, d, i) in enumerate(entries)]
        _emit(plain, 8, choice, (), options)
        _emit(pruned, 8, choice, (), _prune_options(options))
    # heights 0-4: no antichain outgrows the cap, so the pruning is exact
    assert len(plain) <= 5
    assert pruned == plain


def test_chain_f_free_cover(lib, table):
    # both the 4-leaf balanced supergate and the chain's own structure admit
    # a zero-DFF cover with level-transparent inverters
    g, root = chain_f()
    assert tree_opt(g, prepared(g), table, root) == 0


def test_chain_cover_needs_three_dffs(lib, table):
    # k=2 cuts force the chain cover: one DFF per level of arrival skew
    g, root = chain_f()
    assert tree_opt(g, prepared(g, k=2), table, root) == 3


def test_multi_fanout_frontier_collapses(table):
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    b = (g.add_pi("b"), False)
    c = (g.add_pi("c"), False)
    shared = _and_op(g, a, b)
    g.add_po(_and_op(g, shared, c), "f")
    g.add_po(_or_op(g, shared, b), "h")
    sols = map_dag(g, prepared(g), table)
    assert len(sols[(shared[0], POS)].frontier) == 1


def test_match_cost_recomposes(table):
    # chosen match cost = sum of leaf frontier costs + retimed supergate
    # count, each input a point of its leaf's frontier
    g = bench.ripple_adder(3)
    cutsets = prepared(g)
    sols = map_dag(g, cutsets, table)
    for (nid, phase), sol in sols.items():
        m = sol.best
        if m.supergate is None:
            continue
        assert len(m.inputs) == len(m.leaves)
        for leaf, point in zip(m.leaves, m.inputs):
            assert any(point is f for f in sols[(leaf, POS)].frontier)
        heights = tuple(point.height for point in m.inputs)
        assert m.dffs == (sum(point.dffs for point in m.inputs)
                          + retimed_match_dffs(m.supergate, heights))


def test_extracted_cover_is_functionally_equivalent(table):
    rng = random.Random(2)
    for trial in range(8):
        g = random_aig(rng.randint(20, 60), rng.randint(5, 8), seed=300 + trial,
                       n_pos=3)
        cutsets = prepared(g)
        sols = map_dag(g, cutsets, table)
        assert_equivalent(g, extract_cover(sols, g))


def test_complemented_and_constant_pos(table):
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    b = (g.add_pi("b"), False)
    n = _and_op(g, a, b)
    g.add_po(_neg(n), "nf")        # the DP solves its negative phase
    g.add_po(g.const_lit(True), "one")
    g.add_po(g.const_lit(False), "zero")
    cutsets = prepared(g)
    sols = map_dag(g, cutsets, table)
    net = extract_cover(sols, g)
    packed = [0b0101, 0b0011]
    got = net.simulate(packed, 0xF)
    assert got["nf"] == 0b1110
    assert got["one"] == 0xF
    assert got["zero"] == 0
    # each at its position among all POs
    assert net.const_pos == [(1, "one", True), (2, "zero", False)]


# a constant PO z beside f, and an AND over a constant input, t = a & 1,
# which add_and folds away
CONST_INPUT = (".model konst\n.inputs a b c\n.outputs z f\n.names z\n"
               ".names one\n1\n.names a one t\n11 1\n"
               ".names t b c f\n11- 1\n--1 1\n.end\n")


def test_the_pis_are_the_only_sources(table):
    g = parse_netlist(CONST_INPUT)
    cutsets = prepared(g)
    assert CONST0 not in cutsets
    for mapper in (map_dag, map_depth_greedy):
        assert all(nid != CONST0 for nid, _ in mapper(g, cutsets, table))


@pytest.mark.parametrize("depth_greedy", [False, True],
                         ids=["dp", "depth_greedy"])
def test_a_constant_po_keeps_its_port(lib, table, depth_greedy):
    g = parse_netlist(CONST_INPUT)
    res = flow.map_graph(g, lib, table, depth_greedy=depth_greedy)
    for net in (res.before, res.after):
        assert net.write_blif().startswith(
            ".model konst\n.inputs a b c\n.outputs z f\n")
        net.validate()
        assert_equivalent(g, net)


@pytest.mark.parametrize("clocked,mapper", [
    (False, map_dag), (False, map_depth_greedy),
    (True, map_dag), (True, map_depth_greedy)],
    ids=["dp", "depth_greedy", "clocked_inv-dp", "clocked_inv-depth_greedy"])
def test_cover_only_reads_the_solutions(table, clocked_table, clocked, mapper):
    # both sweeps solve every (node, phase) the cover demands, complemented
    # POs included, so the cover adds nothing to the solutions; with a
    # clocked inverter a PI's negative phase sits at height 1, beside the
    # height-0 wire of its positive phase
    if clocked:
        table = clocked_table
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    b = (g.add_pi("b"), False)
    n = _and_op(g, a, b)
    g.add_po(_neg(n), "nand")
    g.add_po(_neg(a), "na")
    g.add_po(n, "and")
    sols = mapper(g, prepared(g), table)
    before = dict(sols)
    net = extract_cover(sols, g)
    assert {(n[0], NEG), (a[0], NEG)} <= set(sols)
    assert sols[(a[0], NEG)].best.height == (1 if clocked else 0)
    assert list(sols) == list(before)
    assert all(sols[key] is sol for key, sol in before.items())
    assert_equivalent(g, net)


def test_frontier_cap_bounds_every_frontier(clocked_lib, clocked_table):
    g = random_aig(150, 12, seed=3, n_pos=None)
    cutsets = prepared(g)
    uncapped = map_dag(g, cutsets, clocked_table)
    assert max(len(s.frontier) for s in uncapped.values()) > 1
    sols = map_dag(g, cutsets, clocked_table, frontier_cap=1)
    assert all(len(s.frontier) == 1 for s in sols.values())
    net = extract_cover(sols, g)
    net.insert_splitters(clocked_lib)
    net.insert_balancing()
    net.validate()
    assert_equivalent(g, net)


def test_depth_greedy_reaches_min_height(table):
    # greedy per-node min height is a lower bound on the balancing mapper's
    # root arrival
    for g in [bench.alternating_chain(9), bench.ripple_adder(3),
              bench.mux_tree(2)]:
        cutsets = prepared(g)
        greedy = map_depth_greedy(g, cutsets, table)
        sols = map_dag(g, cutsets, table)
        for (p, _c) in g.pos:
            if p == 0:
                continue
            assert greedy[(p, POS)].best.height <= sols[(p, POS)].best.height


def test_balanced_and_tree_is_free(table):
    g = SubjectGraph()
    lits = [(g.add_pi(f"x{i}"), False) for i in range(8)]
    root = balanced_reduce(g, lits, _and_op)
    g.add_po(root, "f")
    assert tree_opt(g, prepared(g), table, root[0]) == 0


# ----------------------------------------------------------------------
# the cached permuted-profile table against a per-permutation reference
# ----------------------------------------------------------------------


def reference_insert(frontier, cand, cap):
    """The DP's frontier rule on Match objects: a point equal in (height,
    dffs) keeps the smaller (area, jj, name), the first on a full tie; a
    dominated one is dropped or evicted; the frontier is sorted by (dffs,
    height) and cut to ``cap``."""
    def alt(m):
        return (m.area, m.jj, m.supergate.name if m.supergate else "")

    for i, m in enumerate(frontier):
        if m.height == cand.height and m.dffs == cand.dffs:
            if alt(cand) < alt(m):
                frontier[i] = cand
            return
        if dominates(m.height, m.dffs, cand.height, cand.dffs):
            return
    frontier[:] = [m for m in frontier
                   if not dominates(cand.height, cand.dffs, m.height, m.dffs)]
    frontier.append(cand)
    frontier.sort(key=lambda m: (m.dffs, m.height))
    del frontier[cap:]


def reference_combine(sg, cut, leaf_fronts, out, cap):
    """The DP's candidate loop for one (cut, supergate) pair written out per
    symmetry permutation, with a Match built for every distinct height
    profile of every leaf choice; neither of the table's wiring caches is
    read."""
    depths = sg.leaf_depths
    perms = symmetry_perms(cut.func, len(cut.leaves))
    for choice in itertools.product(*leaf_fronts):
        base = tuple(m.height for m in choice)
        leaf_dffs = sum(m.dffs for m in choice)
        area = sg.area + sum(m.area for m in choice)
        jj = sg.jj_count + sum(m.jj for m in choice)
        seen = set()
        for perm in perms:
            heights = tuple(base[p] for p in perm)
            if heights in seen:
                continue
            seen.add(heights)
            dffs = leaf_dffs + retimed_match_dffs(sg, heights)
            height = max(h + d for h, d in zip(heights, depths))
            cand = Match(
                supergate=sg, height=height, dffs=dffs,
                area=area, jj=jj, inputs=tuple(choice[p] for p in perm),
                leaves=tuple(cut.leaves[p] for p in perm),
            )
            reference_insert(out, cand, cap)


def reference_map_dag(g, cutsets, table, cap=mapmod.FRONTIER_CAP):
    """The DP sweep with ``reference_combine`` per (cut, supergate) pair:
    frontier lists keyed by (node, phase)."""
    wire = Match(None, 0, 0, 0.0, 0)
    sols = {(pi, POS): [wire] for pi in g.pis}

    def solve(nid, phase):
        front = []
        for cut in cutsets[nid].cuts:
            n = len(cut.leaves)
            func = cut.func if phase == POS else tt_not(cut.func, n)
            for sg in table.lookup(func, n):
                reference_combine(sg, cut, [sols[(leaf, POS)]
                                            for leaf in cut.leaves],
                                  front, cap)
        return front

    fanout = g.fanout_counts()
    for nid in g.topo_order():
        front = solve(nid, POS)
        sols[(nid, POS)] = front[:1] if fanout.get(nid, 0) > 1 else front
    for p, c in g.pos:
        if c and p != CONST0 and (p, NEG) not in sols:
            sols[(p, NEG)] = solve(p, NEG)
    return sols


def reference_depth_greedy(g, cutsets, table):
    """Depth-greedy baseline choosing its wiring by a min over every
    symmetry permutation."""
    wire = Match(None, 0, 0, 0.0, 0)
    solutions = {(pi, POS): NodeSolution([wire]) for pi in g.pis}
    for nid in g.topo_order():
        best = None
        for cut in cutsets[nid].cuts:
            sgs = table.lookup(cut.func, len(cut.leaves))
            if not sgs:
                continue
            leaf_ms = [solutions[(leaf, POS)].best for leaf in cut.leaves]
            perms = symmetry_perms(cut.func, len(cut.leaves))
            base = tuple(m.height for m in leaf_ms)
            for sg in sgs:
                perm = min(perms, key=lambda p: (
                    max(base[p[j]] + d for j, d in enumerate(sg.leaf_depths)),
                    tuple(base[j] for j in p)))
                heights = tuple(base[p] for p in perm)
                height = max(h + d for h, d in zip(heights, sg.leaf_depths))
                dffs = (sum(m.dffs for m in leaf_ms)
                        + retimed_match_dffs(sg, heights))
                cand = Match(sg, height, dffs,
                             sg.area + sum(m.area for m in leaf_ms),
                             sg.jj_count + sum(m.jj for m in leaf_ms),
                             tuple(leaf_ms[p] for p in perm),
                             tuple(cut.leaves[p] for p in perm))
                key = (cand.height, cand.area, cand.jj, sg.name)
                if best is None or key < (best.height, best.area, best.jj,
                                          best.supergate.name):
                    best = cand
        solutions[(nid, POS)] = NodeSolution([best])
    return solutions


def _point(m):
    return (m.height, m.dffs, m.area, m.jj,
            tuple(point.height for point in m.inputs), m.leaves,
            m.supergate.name if m.supergate else None)


def _frontiers(solutions):
    return {key: [_point(m) for m in sol.frontier]
            for key, sol in solutions.items()}


EQUIV_CIRCUITS = [
    ("ksa16", lambda: bench.kogge_stone_adder(16)),
    ("rand3", lambda: random_aig(150, 12, seed=3, n_pos=None)),
    ("rand4", lambda: random_aig(150, 12, seed=4, n_pos=None)),
    # few cuts matched (23 %), and 128 levels of ripple
    ("bshift16", lambda: bench.barrel_shifter(16)),
    ("rca64", lambda: bench.ripple_adder(64)),
]


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_profile_table_keeps_every_frontier(lib_name, table, clocked_table):
    tbl = table if lib_name == "bundled" else clocked_table
    multi_point = 0
    complemented = 0
    for name, make in EQUIV_CIRCUITS:
        g = make()
        cutsets = prepared(g)
        got = _frontiers(map_dag(g, cutsets, tbl))
        want = {key: [_point(m) for m in front] for key, front
                in reference_map_dag(g, cutsets, tbl).items()}
        assert got == want, name
        multi_point += sum(len(f) > 1 for f in got.values())

        # the baseline's own choices; beside them it holds the DP's negative
        # phase of every complemented PO, checked above through map_dag
        got = map_depth_greedy(g, cutsets, tbl)
        want = reference_depth_greedy(g, cutsets, tbl)
        assert ({k: _point(got[k].best) for k in want}
                == {k: _point(s.best) for k, s in want.items()}), name
        neg = {(p, NEG) for p, c in g.pos if c and p != CONST0}
        assert set(got) - set(want) == neg, name
        complemented += len(neg)
    assert complemented > 0
    if lib_name == "clocked_inv":
        assert multi_point > 0


# (library, function, leaf frontiers as (height, dffs), the cut's
# frontier): leaf-choice products of 81 and 243.  (4, 5) and (5, 5) come
# from leaf choices that taking each leaf's cheapest point for one root
# arrival target never makes
WIDE_PRODUCTS = [
    ("bundled", 0xeaaa,
     [[(3, 0), (2, 1), (0, 3)], [(3, 0), (2, 1), (1, 2)],
      [(3, 0), (2, 1), (0, 3)], [(3, 0), (1, 2), (0, 3)]],
     [(5, 3), (4, 5), (3, 9)]),
    ("clocked_inv", 0xddddddd2,
     [[(2, 1), (1, 2), (0, 3)], [(3, 0), (2, 1), (1, 2)]] * 2
     + [[(2, 1), (1, 2), (0, 3)]],
     [(5, 5), (4, 8)]),
]


@pytest.mark.parametrize("lib_name, func, fronts, want", WIDE_PRODUCTS,
                         ids=[case[0] for case in WIDE_PRODUCTS])
def test_combine_enumerates_every_leaf_choice(lib_name, func, fronts, want,
                                              table, clocked_table):
    tbl = table if lib_name == "bundled" else clocked_table
    leaves = tuple(range(1, len(fronts) + 1))
    assert tbl.lookup(func, len(leaves))
    leaf_fronts = [[Match(None, h, d, 0.0, 0) for h, d in front]
                   for front in fronts]
    out = []
    mapmod._combine(tbl, func, leaves, leaf_fronts, out, mapmod.FRONTIER_CAP)
    assert [(p[0], p[1]) for p in out] == want


# ----------------------------------------------------------------------
# cover extraction at depth; the wiring table's lifetime
# ----------------------------------------------------------------------


def test_deep_alternating_chain_maps(lib, table):
    # 500 levels: deeper than the interpreter's recursion limit allows a
    # recursive cover walk to go
    res = flow.map_graph(bench.alternating_chain(500), lib, table)
    res.before.validate()
    res.after.validate()
    assert any(i.cell.kind != "splitter" for i in res.before.instances)


def test_wiring_caches_are_freed_with_their_table(lib):
    # the wiring caches: the DP's options and the wirings they are built
    # from, which the baseline reads too
    tbl = prepare_match_table(lib, k=5, max_depth=2)
    g = bench.ksa4()
    cutsets = enumerate_cuts(g, k=5)
    sols = map_dag(g, cutsets, tbl)
    map_depth_greedy(g, cutsets, tbl)
    assert tbl.option_cache and tbl.wiring_cache
    # a supergate the DP matched, so one the wiring caches were asked about
    ref = weakref.ref(next(m.supergate for sol in sols.values()
                           for m in sol.frontier if m.supergate))
    del tbl, sols
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_match_built_only_for_kept_points(lib_name, table, clocked_table,
                                          monkeypatch):
    # candidates stay plain tuples: the DP builds one Match per point a
    # node's solve returns (before a multi-fanout frontier collapses) and
    # one shared wire for the PIs and the constant
    tbl = table if lib_name == "bundled" else clocked_table
    built, returned = [], []

    class CountedMatch(Match):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    solve = mapmod._solve_node

    def counted_solve(*args):
        sol = solve(*args)
        returned.append(len(sol.frontier))
        return sol

    monkeypatch.setattr(mapmod, "Match", CountedMatch)
    monkeypatch.setattr(mapmod, "_solve_node", counted_solve)
    g = random_aig(150, 12, seed=3, n_pos=None)
    sols = map_dag(g, prepared(g), tbl)
    assert any(c for _, c in g.pos)  # negative phases are solved too
    assert len(built) == sum(returned) + 1
    assert all(type(m) is CountedMatch
               for sol in sols.values() for m in sol.frontier)
