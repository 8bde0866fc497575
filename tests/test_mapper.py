import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbmap import bench, flow
from pbmap import mapper as mapmod
from pbmap.cuts import compute_cut_functions, enumerate_cuts
from pbmap.flow import prepare_match_table
from pbmap.mapper import (Match, NodeSolution, _alt_key, _dominated,
                          _insert_pareto, extract_cover, map_dag,
                          map_depth_greedy)
from pbmap.netlist import (CONST0, SubjectGraph, _and_op, _neg, _or_op,
                           balanced_reduce, random_aig)
from pbmap.retime import retimed_match_dffs
from pbmap.truthtable import symmetry_perms

POS = "positive"
NEG = "negative"


def prepared(g, k=5):
    return compute_cut_functions(g, enumerate_cuts(g, k=k))


def tree_opt(g, cutsets, table, root):
    """The DP's DFF optimum at ``root`` of a tree, one where no node fans
    out."""
    fanout = g.fanout_counts()
    assert all(fanout[nid] <= 1 for nid in g.nodes), "not a tree"
    return map_dag(g, cutsets, table)[(root, POS)].opt


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


def mk(height, dffs, area=1.0):
    return Match(None, None, POS, height, dffs, area, 0)


def test_pareto_dominated_point_dropped():
    front = []
    _insert_pareto(front, mk(3, 2), 8)
    _insert_pareto(front, mk(5, 2), 8)  # same dffs, taller: dominated
    assert [(m.height, m.dffs) for m in front] == [(3, 2)]


def test_pareto_incomparable_points_kept_sorted():
    front = []
    _insert_pareto(front, mk(3, 2), 8)
    _insert_pareto(front, mk(5, 1), 8)
    assert [(m.height, m.dffs) for m in front] == [(5, 1), (3, 2)]
    # frontier[0] is the DFF-optimal point
    assert front[0].dffs == 1


def test_pareto_tie_cheaper_point_wins_slot():
    front = []
    _insert_pareto(front, mk(3, 2, area=2.0), 8)
    _insert_pareto(front, mk(3, 2, area=1.0), 8)  # cheaper tie wins the slot
    assert len(front) == 1
    assert front[0].area == 1.0


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
    cands = [Match(None, None, POS, h, d, area, jj) for h, d, area, jj in points]
    for m in cands:
        if not _dominated(front, m.height, m.dffs):
            _insert_pareto(front, m, cap)
    assert front[0] is min(cands, key=lambda m: (m.dffs, m.height, _alt_key(m)))


def test_pareto_cap_enforced():
    front = []
    for i in range(12):
        _insert_pareto(front, mk(12 - i, i), 4)
    assert len(front) <= 4


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
    # chosen match cost = sum of leaf frontier costs + retimed supergate count
    g = bench.ripple_adder(3)
    cutsets = prepared(g)
    sols = map_dag(g, cutsets, table)
    for (nid, phase), sol in sols.items():
        m = sol.best
        if m.is_wire:
            continue
        leaf_dffs = 0
        for leaf, h in zip(m.leaves, m.leaf_heights):
            leaf_dffs += sols[(leaf, POS)].point_at(h).dffs
        assert m.dffs == leaf_dffs + retimed_match_dffs(m.supergate, m.leaf_heights)


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
    assert net.const_pos == [("one", True), ("zero", False)]


@pytest.mark.parametrize("mapper", [map_dag, map_depth_greedy],
                         ids=["dp", "depth_greedy"])
def test_cover_only_reads_the_solutions(table, mapper):
    # both sweeps solve every (node, phase) the cover demands, complemented
    # POs included, so the cover adds nothing to the solutions
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


def reference_combine(sg, cut, leaf_fronts, out, cap, phase, profiles):
    """The DP's candidate loop written out per symmetry permutation, with a
    Match built for every distinct height profile of every leaf choice; the
    table's cached ``profiles`` go unused."""
    depths = sg.leaf_depths
    perms = symmetry_perms(cut.func, len(cut.leaves))
    size = 1
    for lf in leaf_fronts:
        size *= len(lf)
        if size > mapmod.PRODUCT_LIMIT:
            break

    def emit(choice):
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
                supergate=sg, cut=cut, phase=phase, height=height, dffs=dffs,
                area=area, jj=jj, leaf_heights=heights,
                leaves=tuple(cut.leaves[p] for p in perm),
            )
            _insert_pareto(out, cand, cap)

    if size <= mapmod.PRODUCT_LIMIT:
        for choice in itertools.product(*leaf_fronts):
            emit(choice)
        return
    targets = sorted({m.height + d for lf, d in zip(leaf_fronts, depths)
                      for m in lf})
    for target in targets:
        choice = []
        ok = True
        for lf, d in zip(leaf_fronts, depths):
            feas = [m for m in lf if m.height + d <= target]
            if not feas:
                ok = False
                break
            choice.append(min(feas, key=lambda m: (
                m.dffs + (target - d - m.height), -m.height)))
        if ok:
            emit(choice)


def reference_depth_greedy(g, cutsets, table):
    """Depth-greedy baseline choosing its wiring by a min over every
    symmetry permutation."""
    wire = Match(None, None, POS, 0, 0, 0.0, 0)
    solutions = {(pi, POS): NodeSolution(pi, POS, [wire]) for pi in g.pis}
    if g.has_const:
        solutions[(CONST0, POS)] = NodeSolution(CONST0, POS, [wire])
    for nid in g.topo_order():
        best = None
        for cut in cutsets[nid].cuts:
            sgs = table.lookup(cut.func, len(cut.leaves), POS)
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
                cand = Match(sg, cut, POS, height, dffs,
                             sg.area + sum(m.area for m in leaf_ms),
                             sg.jj_count + sum(m.jj for m in leaf_ms), heights,
                             tuple(cut.leaves[p] for p in perm))
                key = (cand.height, cand.area, cand.jj, sg.name)
                if best is None or key < (best.height, best.area, best.jj,
                                          best.supergate.name):
                    best = cand
        solutions[(nid, POS)] = NodeSolution(nid, POS, [best])
    return solutions


def _point(m):
    return (m.height, m.dffs, m.area, m.jj, m.leaf_heights, m.leaves,
            m.supergate.name if m.supergate else None)


def _frontiers(solutions):
    return {key: [_point(m) for m in sol.frontier]
            for key, sol in solutions.items()}


EQUIV_CIRCUITS = [
    ("ksa16", lambda: bench.kogge_stone_adder(16)),
    ("rand3", lambda: random_aig(150, 12, seed=3, n_pos=None)),
    ("rand4", lambda: random_aig(150, 12, seed=4, n_pos=None)),
]


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_profile_table_keeps_every_frontier(lib_name, table, clocked_table,
                                            monkeypatch):
    tbl = table if lib_name == "bundled" else clocked_table
    multi_point = 0
    complemented = 0
    for name, make in EQUIV_CIRCUITS:
        g = make()
        cutsets = prepared(g)
        # a product limit of 1 sends every multi-leaf choice down the greedy
        # target sweep, the DP's other caller of the candidate loop
        for product_limit in (mapmod.PRODUCT_LIMIT, 1):
            with monkeypatch.context() as mp:
                mp.setattr(mapmod, "PRODUCT_LIMIT", product_limit)
                got = _frontiers(map_dag(g, cutsets, tbl))
                mp.setattr(mapmod, "_combine", reference_combine)
                want = _frontiers(map_dag(g, cutsets, tbl))
            assert got == want, (name, product_limit)
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


# ----------------------------------------------------------------------
# cover extraction at depth; the wiring table's lifetime
# ----------------------------------------------------------------------


def test_deep_alternating_chain_maps(lib, table):
    # 500 levels: deeper than the interpreter's recursion limit allows a
    # recursive cover walk to go
    res = flow.map_graph(bench.alternating_chain(500), lib, table)
    res.before.validate()
    res.after.validate()
    assert res.before.gate_count > 0


def test_profile_cache_is_freed_with_its_table(lib):
    tbl = prepare_match_table(lib, k=5, max_depth=2)
    res = flow.map_graph(bench.ksa4(), lib, tbl)
    assert tbl.profiles.cache_info().currsize > 0
    # a supergate the DP matched, so one the wiring table was asked about
    ref = weakref.ref(next(m.supergate for sol in res.solutions.values()
                           for m in sol.frontier if m.supergate))
    del tbl, res
    gc.collect()
    assert ref() is None
