import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbmap import bench
from pbmap.cuts import (CUT_CAP, compute_cut_functions, cone_function,
                        enumerate_cuts)
from pbmap.netlist import (CONST0, SubjectGraph, _and_op, parse_netlist,
                           random_aig, write_blif)
from pbmap.truthtable import tt_eval, var_table

from conftest import subject_levels
from cut_reference import reference_enumerate_cuts


def two_level_tree():
    """Root over two ANDs whose fanins are themselves ANDs of PIs."""
    g = SubjectGraph(name="tree")
    pis = [(g.add_pi(f"p{i}"), False) for i in range(8)]
    v3 = _and_op(g, pis[0], pis[1])
    v4 = _and_op(g, pis[2], pis[3])
    v5 = _and_op(g, pis[4], pis[5])
    v6 = _and_op(g, pis[6], pis[7])
    v1 = _and_op(g, v3, v4)
    v2 = _and_op(g, v5, v6)
    root = _and_op(g, v1, v2)
    g.add_po(root, "f")
    return g, root[0], v1[0], v2[0], v3[0], v4[0], v5[0], v6[0]


def test_k3_cut_set_of_balanced_tree():
    g, vi, v1, v2, v3, v4, v5, v6 = two_level_tree()
    cutsets = enumerate_cuts(g, k=3)
    got = {cut.leaves for cut in cutsets[vi].cuts}
    assert got == {
        (vi,),
        tuple(sorted((v1, v2))),
        tuple(sorted((v1, v5, v6))),
        tuple(sorted((v2, v3, v4))),
    }


def test_trivial_cut_always_first():
    g = random_aig(40, 6, seed=2)
    cutsets = enumerate_cuts(g, k=4)
    for nid, cs in cutsets.items():
        assert cs.cuts[0].is_trivial_for(nid)


def test_k_bounds_enforced():
    g = random_aig(10, 4, seed=1)
    with pytest.raises(ValueError):
        enumerate_cuts(g, k=1)
    with pytest.raises(ValueError):
        enumerate_cuts(g, k=7)


def test_all_cuts_within_width():
    g = random_aig(60, 8, seed=9)
    for k in (2, 3, 5):
        cutsets = enumerate_cuts(g, k=k)
        for cs in cutsets.values():
            for cut in cs.cuts:
                assert len(cut.leaves) <= k
                assert cut.leaves == tuple(sorted(cut.leaves))


def test_dominated_cuts_absent():
    g = random_aig(50, 7, seed=4)
    cutsets = enumerate_cuts(g, k=4)
    for nid, cs in cutsets.items():
        sets = [frozenset(c.leaves) for c in cs.cuts
                if not c.is_trivial_for(nid)]
        for a, b in itertools.combinations(sets, 2):
            assert not a < b and not b < a


def test_cap_truncates():
    g = random_aig(150, 12, seed=8)
    cutsets = enumerate_cuts(g, k=5, cap=4)
    for cs in cutsets.values():
        assert len(cs.cuts) <= 4
    assert sum(cs.truncated for cs in cutsets.values()) > 0


def test_cut_cap_never_reached_on_benchmark_circuits():
    # the circuits the benchmark maps; at most 52 cuts per node at k=5
    for g in (bench.kogge_stone_adder(64), bench.kogge_stone_adder(32),
              random_aig(600, 24, seed=1), bench.barrel_shifter(128),
              bench.alu(64), bench.ripple_adder(256)):
        cutsets = enumerate_cuts(g, k=5)
        assert max(len(cs.cuts) for cs in cutsets.values()) < CUT_CAP
        assert sum(cs.truncated for cs in cutsets.values()) == 0


def test_and_cut_function():
    g = SubjectGraph()
    a = (g.add_pi("a"), False)
    b = (g.add_pi("b"), False)
    n = _and_op(g, a, b)
    g.add_po(n, "f")
    cutsets = compute_cut_functions(g, enumerate_cuts(g, k=2))
    cut = next(c for c in cutsets[n[0]].cuts if len(c.leaves) == 2)
    assert cut.func == 0b1000


def test_single_minterm_cut_function():
    # F = a & b & !c & d over the 4-leaf cut: exactly minterm a=1,b=1,c=0,d=1
    from pbmap.netlist import _neg

    g = SubjectGraph()
    a, b, c, d = [(g.add_pi(x), False) for x in "abcd"]
    n1 = _and_op(g, a, b)
    n2 = _and_op(g, n1, _neg(c))
    n3 = _and_op(g, n2, d)
    g.add_po(n3, "F")
    cutsets = compute_cut_functions(g, enumerate_cuts(g, k=4))
    cut = next(c for c in cutsets[n3[0]].cuts if len(c.leaves) == 4)
    order = {leaf: i for i, leaf in enumerate(cut.leaves)}
    minterm = (1 << order[a[0]]) | (1 << order[b[0]]) | (1 << order[d[0]])
    assert cut.func == 1 << minterm


def test_trivial_cut_function_is_identity():
    g = random_aig(20, 5, seed=3)
    cutsets = compute_cut_functions(g, enumerate_cuts(g, k=3))
    for nid, cs in cutsets.items():
        assert cs.cuts[0].func == var_table(0, 1)


def test_cone_function_matches_exhaustive_simulation():
    rng = random.Random(0)
    for trial in range(50):
        g = random_aig(rng.randint(15, 45), rng.randint(4, 7), seed=100 + trial)
        cutsets = compute_cut_functions(g, enumerate_cuts(g, k=5))
        levels = subject_levels(g)
        for nid, cs in cutsets.items():
            if nid not in g.nodes or levels[nid] > 4:
                continue
            for cut in cs.cuts:
                if cut.is_trivial_for(nid):
                    continue
                n = len(cut.leaves)
                for m in range(1 << n):
                    want = _sim_cone(g, nid, cut.leaves, m)
                    assert tt_eval(cut.func, m) == want


def _sim_cone(g, root, leaves, minterm):
    vals = {leaf: (minterm >> i) & 1 for i, leaf in enumerate(leaves)}

    def ev(nid):
        if nid in vals:
            return vals[nid]
        n = g.nodes[nid]
        f0, f1 = n.fanin0, n.fanin1
        a = ev(f0[0]) ^ int(f0[1])
        b = ev(f1[0]) ^ int(f1[1])
        vals[nid] = a & b
        return vals[nid]

    return ev(root)


# ----------------------------------------------------------------------
# truth tables built while merging, against cone simulation
# ----------------------------------------------------------------------

ORACLE_CIRCUITS = {
    "ksa16": lambda: bench.kogge_stone_adder(16),
    "alu8": lambda: bench.alu(8),
    "bshift16": lambda: bench.barrel_shifter(16),
    "prio16": lambda: bench.priority_encoder(16),
    **{f"rand{seed}": (lambda seed=seed: random_aig(60 + 10 * seed, 8,
                                                    seed=seed))
       for seed in range(1, 11)},
}


@pytest.mark.parametrize("name", list(ORACLE_CIRCUITS))
def test_merge_time_functions_match_cone_simulation(name):
    # small caps truncate fanin cut sets, the one case where a kept leaf
    # set's smaller sub-cut can be missing
    g = ORACLE_CIRCUITS[name]()
    for k in range(2, 7):
        for cap in (2, 4, 250):
            cutsets = enumerate_cuts(g, k=k, cap=cap)
            for nid, cs in cutsets.items():
                for cut in cs.cuts:
                    assert cut.func == cone_function(g, nid, cut.leaves), \
                        (k, cap, nid, cut.leaves)
            assert compute_cut_functions(g, cutsets) is cutsets


def test_leaf_inside_other_fanin_cone_is_dominated():
    # n3 = n1 * n2 with n2 = n1 * c: merging n1's cut {a, b} with n2's cut
    # {n1, c} gives {n1, a, b, c}, where n1 is a leaf and also inside the
    # first cut's cone; its subset {n1, c} is a cut, so it is pruned
    g = SubjectGraph()
    a, b, c = [(g.add_pi(x), False) for x in "abc"]
    n1 = _and_op(g, a, b)
    n2 = _and_op(g, n1, c)
    n3 = _and_op(g, n1, n2)
    g.add_po(n3, "f")
    cutsets = enumerate_cuts(g, k=5)
    bad = tuple(sorted((n1[0], a[0], b[0], c[0])))
    assert bad not in {cut.leaves for cut in cutsets[n3[0]].cuts}
    for nid, cs in cutsets.items():
        for cut in cs.cuts:
            assert cut.func == cone_function(g, nid, cut.leaves)


# ----------------------------------------------------------------------
# the level-batched kernel against the per-node loop it replaced
# ----------------------------------------------------------------------


def assert_same_cuts(g, k, cap=CUT_CAP):
    """``enumerate_cuts`` gives the reference's nodes in its order, and per
    node the same (leaves, func) list in order and the same truncated
    count."""
    got = enumerate_cuts(g, k=k, cap=cap)
    want = reference_enumerate_cuts(g, k=k, cap=cap)
    assert list(got) == list(want)
    for nid, cs in want.items():
        assert [(c.leaves, c.func) for c in got[nid].cuts] == \
            [(c.leaves, c.func) for c in cs.cuts], (k, cap, nid)
        assert got[nid].truncated == cs.truncated, (k, cap, nid)


@st.composite
def small_aigs(draw):
    """A random AIG over 1-6 PIs: each AND reads two earlier literals,
    complemented or not, the constant among them; constant POs too."""
    g = SubjectGraph(name="h")
    lits = [(g.add_pi(f"p{i}"), False) for i in range(draw(st.integers(1, 6)))]
    lits.append(g.const_lit(False))
    for _ in range(draw(st.integers(1, 40))):
        a, b = (draw(st.sampled_from(lits)) for _ in "ab")
        lit = g.add_and((a[0], a[1] ^ draw(st.booleans())),
                        (b[0], b[1] ^ draw(st.booleans())))
        if lit[0] != CONST0:
            lits.append(lit)
    for lit in draw(st.lists(st.sampled_from(lits), min_size=1, max_size=4)):
        g.add_po((lit[0], lit[1] ^ draw(st.booleans())))
    return g


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=small_aigs(), k=st.integers(2, 6), cap=st.sampled_from([2, 4, 250]))
def test_level_kernel_matches_reference_on_random_aigs(g, k, cap):
    assert_same_cuts(g, k, cap)


@pytest.mark.parametrize("make", [bench.and_chain, bench.alternating_chain])
def test_level_kernel_matches_reference_on_chains(make):
    g = make(60)
    for k in range(2, 7):
        for cap in (2, 4, 250):
            assert_same_cuts(g, k, cap)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_level_kernel_matches_reference_on_benchmark_circuits(seed):
    # as the benchmark maps them: parsed back from their BLIF; only the
    # random graph depends on the seed
    circuits = [random_aig(600, 24, seed=seed, n_pos=None)]
    if seed == 1:
        circuits += [bench.kogge_stone_adder(64), bench.kogge_stone_adder(32),
                     bench.barrel_shifter(128), bench.alu(64),
                     bench.ripple_adder(256)]
    for g in circuits:
        assert_same_cuts(parse_netlist(write_blif(g)), 5)


def test_cut_store_keeps_only_its_rows():
    # the kernel's rows without the pool's slack or its signatures, read
    # only, as the DP and every CutSet built on access read them
    g = random_aig(150, 12, seed=3, n_pos=None)
    cutsets = enumerate_cuts(g, k=5)
    rows = sum(len(cs.cuts) for cs in cutsets.values())
    assert len(cutsets.leaves) == len(cutsets.width) == len(cutsets.func) \
        == rows
    assert not hasattr(cutsets, "sig")
    for array in (cutsets.leaves, cutsets.width, cutsets.func, cutsets.off):
        with pytest.raises(ValueError):
            array[0] = 0
    assert max(cutsets) + 1 not in cutsets
    with pytest.raises(KeyError):
        cutsets[max(cutsets) + 1]
