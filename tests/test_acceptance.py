"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL verdict line before asserting.

The tree-optimality oracle here is deliberately brute force: no frontier
caps, no dominance pruning, full products over leaf height profiles, and
every legal leaf-to-input wiring.  It shares only the validated primitives
(cut enumeration, the supergate table, and the single-match retimed DFF
count) with the production mapper.
"""

import itertools
import random
from functools import lru_cache

from pbmap import bench, flow
from pbmap.cuts import compute_cut_functions, enumerate_cuts
from pbmap.library import retimed_match_dffs
from pbmap.mapper import extract_cover, map_dag
from pbmap.netlist import SubjectGraph, _and_op, _neg
from pbmap.report import build_report
from pbmap.trees import (buffer_band_check, enumerate_profiles,
                         input_pins_from_profile, measure_tree, most_balanced,
                         most_unbalanced, push_to_last_level_check,
                         random_tree, tree_leaf_depths)
from pbmap.truthtable import symmetry_perms
from conftest import balanced_po_arrivals, tree_buffer_count, tree_node_count
from test_mapper import tree_opt

K = 5

_retimed = lru_cache(maxsize=None)(retimed_match_dffs)


def verdict(capsys, num, label, ok):
    with capsys.disabled():
        print(f"\nCRITERION {num} ({label}): {'PASS' if ok else 'FAIL'}")


# ----------------------------------------------------------------------
# criterion 1: exact DFF optimality on trees
# ----------------------------------------------------------------------


def and_func(n):
    return 1 << ((1 << n) - 1)


def all_shapes(n_leaves):
    """Canonical unordered binary tree shapes with the given leaf count."""
    if n_leaves == 1:
        return [None]
    out = set()
    for i in range(1, n_leaves // 2 + 1):
        for left in all_shapes(i):
            for right in all_shapes(n_leaves - i):
                a, b = sorted((left, right), key=repr)
                out.add((a, b))
    return sorted(out, key=repr)


@lru_cache(maxsize=None)
def shape_cuts(shape):
    """Every nontrivial root cut of a shape, as a tuple of leaf sub-shapes."""
    if shape is None:
        return [(None,)]
    left, right = shape
    res = set()
    for cl in shape_cuts(left) + ([(left,)] if left is not None else []):
        for cr in shape_cuts(right) + ([(right,)] if right is not None else []):
            u = cl + cr
            if len(u) <= K:
                res.add(u)
    return sorted(res, key=repr)


def build_and_tree(shape):
    g = SubjectGraph(name="t")
    ctr = [0]

    def rec(s):
        if s is None:
            ctr[0] += 1
            return (g.add_pi(f"p{ctr[0]}"), False)
        return _and_op(g, rec(s[0]), rec(s[1]))

    root = rec(shape)
    g.add_po(root, "f")
    return g, root[0]


def make_shape_oracle(table):
    """Memoized per-shape map {root height: min DFFs} for plain AND trees."""

    @lru_cache(maxsize=None)
    def omap(shape):
        if shape is None:
            return ((0, 0),)
        best = {}
        for cut in shape_cuts(shape):
            n = len(cut)
            fronts = [omap(c) for c in cut]
            for sg in table.lookup(and_func(n), n):
                depths = sg.leaf_depths
                for combo in itertools.product(*fronts):
                    base = tuple(h for h, _d in combo)
                    dsum = sum(d for _h, d in combo)
                    seen = set()
                    # AND is fully symmetric: every wiring is legal
                    for hs in itertools.permutations(base):
                        if hs in seen:
                            continue
                        seen.add(hs)
                        cost = dsum + _retimed(sg, hs)
                        top = max(h + d for h, d in zip(hs, depths))
                        if top not in best or cost < best[top]:
                            best[top] = cost
        return tuple(sorted(best.items()))

    return omap


def random_tree_graph(n_nodes, rng):
    """A random AND tree with randomly complemented edges; root kept plain."""
    g = SubjectGraph(name="rt")
    ctr = [0]

    def rec(n):
        if n == 0:
            ctr[0] += 1
            lit = (g.add_pi(f"p{ctr[0]}"), False)
        else:
            nl = rng.randint(0, n - 1)
            lit = _and_op(g, rec(nl), rec(n - 1 - nl))
        if rng.random() < 0.3:
            lit = _neg(lit)
        return lit

    root = rec(n_nodes)
    if root[1]:
        root = _neg(root)
    g.add_po(root, "f")
    return g, root[0]


def graph_oracle_opt(g, cutsets, table, root):
    """Uncapped DP over a tree subject graph, all wirings, all heights."""
    maps = {pi: {0: 0} for pi in g.pis}
    for nid in g.topo_order():
        best = {}
        for cut in cutsets[nid].cuts:
            if nid in cut.leaves:
                continue
            n = len(cut.leaves)
            sgs = table.lookup(cut.func, n)
            if not sgs:
                continue
            fronts = [sorted(maps[leaf].items()) for leaf in cut.leaves]
            perms = symmetry_perms(cut.func, n)
            for sg in sgs:
                depths = sg.leaf_depths
                for combo in itertools.product(*fronts):
                    base = tuple(h for h, _d in combo)
                    dsum = sum(d for _h, d in combo)
                    seen = set()
                    for p in perms:
                        hs = tuple(base[i] for i in p)
                        if hs in seen:
                            continue
                        seen.add(hs)
                        cost = dsum + _retimed(sg, hs)
                        top = max(h + d for h, d in zip(hs, depths))
                        if top not in best or cost < best[top]:
                            best[top] = cost
        maps[nid] = best
    return min(maps[root].values())


def test_criterion_1_tree_optimality(table, capsys):
    oracle = make_shape_oracle(table)
    mismatches = []
    for n_leaves in range(2, 14):  # up to 12 internal AND nodes
        for shape in all_shapes(n_leaves):
            g, root = build_and_tree(shape)
            cutsets = compute_cut_functions(g, enumerate_cuts(g, k=K))
            got = tree_opt(g, cutsets, table, root)
            want = min(d for _h, d in oracle(shape))
            if got != want:
                mismatches.append((shape, got, want))
    rng = random.Random(99)
    for _trial in range(500):
        g, root = random_tree_graph(rng.randint(1, 20), rng)
        cutsets = compute_cut_functions(g, enumerate_cuts(g, k=K))
        got = tree_opt(g, cutsets, table, root)
        want = graph_oracle_opt(g, cutsets, table, root)
        if got != want:
            mismatches.append((g.name, got, want))
    ok = not mismatches
    verdict(capsys, 1, "exact DFF optimality on trees vs exhaustive search", ok)
    assert ok, mismatches[:5]


# ----------------------------------------------------------------------
# criterion 2: four-literal product term
# ----------------------------------------------------------------------


# F = ((a*b)*!c)*d under the bundled sfq.genlib, whose inverter is CLOCKED=0
# (level-transparent: a complemented input does not deepen a path).
#   free (k=5): and2(and2(a,b), and2(inv(c),d)).  a, b, c, inv(c) and d sit
#     at level 0, both inner ANDs at level 1, the root at level 2; every
#     fanin pair arrives together, so 0 DFFs.
#   chain (k=2): follows the subject structure.  and2(a,b) is at level 1, so
#     !c needs 1 DFF to meet it; that AND is at level 2, so d needs 2 DFFs at
#     the root: 3 DFFs.
# With a CLOCKED=1 inverter both covers cost 2 DFFs instead.


def test_criterion_2_product_term_dff_counts(lib, table, capsys):
    g = SubjectGraph(name="F")
    a, b, c, d = [(g.add_pi(x), False) for x in "abcd"]
    root = _and_op(g, _and_op(g, _and_op(g, a, b), _neg(c)), d)
    g.add_po(root, "F")
    free_cuts = compute_cut_functions(g, enumerate_cuts(g, k=K))
    chain_cuts = compute_cut_functions(g, enumerate_cuts(g, k=2))
    free = tree_opt(g, free_cuts, table, root[0])
    chain = tree_opt(g, chain_cuts, table, root[0])
    free_oracle = graph_oracle_opt(g, free_cuts, table, root[0])
    chain_oracle = graph_oracle_opt(g, chain_cuts, table, root[0])
    res = flow.map_graph(g, lib, table)
    checks = {
        "free == 0": free == 0,
        "chain == 3": chain == 3,
        "free < chain": free < chain,
        "free == oracle": free == free_oracle,
        "chain == oracle": chain == chain_oracle,
        "netlist dffs_before == 0": res.dffs_before == 0,
        "netlist balanced": structurally_sound(res.before),
        "netlist equivalent": equivalent_exhaustively(g, res.before),
    }
    ok = all(checks.values())
    verdict(capsys, 2,
            f"a*b*!c*d: free cover 0 DFF (got {free}), "
            f"k=2 chain 3 (got {chain})", ok)
    assert ok, {k: v for k, v in checks.items() if not v} | {
        "measured": (free, chain, free_oracle, chain_oracle,
                     res.dffs_before)}


# ----------------------------------------------------------------------
# criterion 3: 4-bit Kogge-Stone adder quality metrics
# ----------------------------------------------------------------------


def test_criterion_3_kogge_stone_metrics(lib, table, capsys):
    res = flow.map_graph(bench.ksa4(), lib, table)
    r = build_report(res)
    checks = {
        "depth == 6": r.logical_depth == 6,
        "dffs_before <= 30": r.dffs_before <= 30,
        "dffs_after <= 25": r.dffs_after <= 25,
        "jj within 10% of 692": abs(r.jj_total - 692) <= 0.10 * 692,
        "runtime < 1 s": r.runtime < 1.0,
    }
    ok = all(checks.values())
    verdict(capsys, 3, "4-bit Kogge-Stone adder quality metrics", ok)
    assert ok, {k: v for k, v in checks.items() if not v} | {
        "measured": (r.logical_depth, r.dffs_before, r.dffs_after,
                     r.jj_total, r.runtime)}


# ----------------------------------------------------------------------
# criterion 4: balanced-tree counting formulas
# ----------------------------------------------------------------------


def test_criterion_4_formula_suite(capsys):
    failures = []

    # pin identity and node count on random trees
    for seed in range(1000):
        t = random_tree(random.Random(seed).randint(1, 40), seed=seed)
        prof = measure_tree(t)
        pins = len(tree_leaf_depths(t))
        if not (prof.n == pins == tree_node_count(t) + 1
                and input_pins_from_profile(prof.H, prof.y) == pins
                and prof.Y == tree_buffer_count(t)):
            failures.append(("random-tree identity", seed))

    # closed forms for the max-buffer tree of each height
    for x in range(1, 11):
        prof = most_unbalanced(x)
        if x <= 3:
            good = prof.N == x and prof.Y == (x - 1) * x // 2
        else:
            good = prof.N == 2 * x - 1 and prof.Y == (x - 2) * (x - 1)
        if not (good and prof.H == x):
            failures.append(("max-buffer closed form", x))

    # min-buffer profile vs exhaustive profile enumeration
    for x in range(2, 7):
        by_pins = {}
        for y, fertile in enumerate_profiles(x):
            n = input_pins_from_profile(x, y)
            if fertile != n or n < x + 1:
                continue
            by_pins.setdefault(n, []).append(sum(y))
        for n, ys in by_pins.items():
            prof = most_balanced(x, n)
            if prof.n != n or prof.Y != min(ys):
                failures.append(("min-buffer profile", x, n))

    # the buffer-count difference never lands strictly inside the open band
    for x in range(4, 201):
        for p in range(1, x):
            _diff, holds = buffer_band_check(x, p)
            if not holds:
                failures.append(("buffer band", x, p))

    # both push-to-last-level sums match the closed form
    for h in range(2, 21):
        for x in range(1, h):
            s1, s2, equal = push_to_last_level_check(h, x)
            if not (equal and s1 == 2 ** (h - x + 1) - 2):
                failures.append(("push-to-last-level", h, x))

    ok = not failures
    verdict(capsys, 4, "balanced-tree counting formulas vs enumeration", ok)
    assert ok, failures[:5]


# ----------------------------------------------------------------------
# criterion 5: structural invariants of every mapped corpus circuit
# ----------------------------------------------------------------------


def structurally_sound(net):
    po_arr = balanced_po_arrivals(net)
    if po_arr is None or len(po_arr) > 1:
        return False
    return all(len(sinks) <= 1 for sinks in net.consumers().values())


def equivalent_exhaustively(g, net):
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
    return [got[name] for name in g.po_names] == want


def test_criterion_5_structural_invariants(lib, table, capsys):
    failures = []
    for g in bench.corpus():
        res = flow.map_graph(g, lib, table)
        for tag, net in (("pre-retime", res.before), ("post-retime", res.after)):
            try:
                net.validate()
            except Exception as exc:
                failures.append((g.name, tag, "validate", str(exc)))
                continue
            if not structurally_sound(net):
                failures.append((g.name, tag, "balance"))
        # splitter count equals total fanout excess of the raw cover
        raw = extract_cover(map_dag(g, enumerate_cuts(g, k=K), table), g)
        excess = sum(len(sinks) - 1 for sinks in raw.consumers().values()
                     if len(sinks) > 1)
        if res.before.splitter_count != excess:
            failures.append((g.name, "splitters",
                             res.before.splitter_count, excess))
        if res.dffs_after > res.dffs_before:
            failures.append((g.name, "retime-monotone"))
        if len(g.pis) <= 10:
            for net in (res.before, res.after):
                if not equivalent_exhaustively(g, net):
                    failures.append((g.name, "equivalence"))
    ok = not failures
    verdict(capsys, 5, "mapped-network structural invariants", ok)
    assert ok, failures[:5]


# ----------------------------------------------------------------------
# criterion 6: balancing objective vs depth-greedy baseline
# ----------------------------------------------------------------------


def test_criterion_6_beats_depth_greedy_baseline(lib, table, capsys):
    never_worse = True
    strict = 0
    rows = []
    for g in bench.corpus():
        res = flow.map_graph(g, lib, table)
        base = flow.map_graph(g, lib, table, depth_greedy=True, retime=False)
        ours, theirs = res.dffs_after, base.dffs_before
        rows.append((g.name, ours, theirs))
        never_worse &= ours <= theirs
        strict += ours < theirs
    ok = never_worse and strict >= 0.30 * len(rows)
    verdict(capsys, 6,
            f"balancing vs depth-greedy: never worse, "
            f"{strict}/{len(rows)} strictly better", ok)
    assert ok, rows


# ----------------------------------------------------------------------
# criterion 7: supergate match coverage
# ----------------------------------------------------------------------


def hitrate_corpus() -> list[SubjectGraph]:
    """Control-dominated circuits sized like the classic combinational
    benchmark suites; used for the match-coverage sanity band.  Wide cuts
    through mux and priority logic dominate, so coverage is far below the
    small structured corpus."""
    return [
        bench.barrel_shifter(16), bench.barrel_shifter(32),
        bench.priority_encoder(16), bench.priority_encoder(32),
        bench.mux_tree(5),
        bench.alu(8), bench.alu(16),
        bench.ksa4(),
    ]


def test_criterion_7_match_coverage_band(table, capsys):
    hits = total = 0
    for g in hitrate_corpus():
        cutsets = compute_cut_functions(g, enumerate_cuts(g, k=K))
        for nid, cs in cutsets.items():
            for cut in cs.cuts:
                if cut.is_trivial_for(nid):
                    continue
                total += 1
                if table.lookup(cut.func, len(cut.leaves)):
                    hits += 1
    rate = hits / total
    ok = 0.04 <= rate <= 0.35
    verdict(capsys, 7,
            f"pooled supergate match coverage {rate:.4f} in [0.04, 0.35]", ok)
    assert ok, (hits, total, rate)
