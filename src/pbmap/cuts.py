"""k-feasible cut enumeration and cut function computation.

Cuts are enumerated bottom-up FlowMap-style: the cut set of a node is the
trivial cut plus all size-limited unions of one cut per fanin, with dominated
cuts pruned.  Functions are truth tables over the sorted leaf list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .netlist import CONST0, SubjectGraph
from .truthtable import table_mask, var_table


@dataclass(frozen=True)
class Cut:
    leaves: tuple[int, ...]  # sorted node ids
    func: int | None = None

    @property
    def signature(self) -> int:
        sig = 0
        for leaf in self.leaves:
            sig |= 1 << (leaf & 63)
        return sig

    def is_trivial_for(self, root: int) -> bool:
        return self.leaves == (root,)


@dataclass
class CutSet:
    root: int
    cuts: list[Cut] = field(default_factory=list)
    truncated: int = 0  # cuts dropped by the per-node cap


def _prune_dominated(leaf_sets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    keep = []
    sets = [frozenset(ls) for ls in leaf_sets]
    for i, s in enumerate(sets):
        dominated = False
        for j, t in enumerate(sets):
            if i == j:
                continue
            if t < s or (t == s and j < i):
                dominated = True
                break
        if not dominated:
            keep.append(leaf_sets[i])
    return keep


def enumerate_cuts(g: SubjectGraph, k: int = 5, cap: int = 250,
                   prune_dominated: bool = True) -> dict[int, CutSet]:
    """Cut sets for every PI and internal node, keyed by node id."""
    if not 2 <= k <= 6:
        raise ValueError("k must be in 2..6")
    result: dict[int, CutSet] = {}
    for pi in g.pis:
        result[pi] = CutSet(pi, [Cut((pi,))])
    if g.has_const:
        result[CONST0] = CutSet(CONST0, [Cut((CONST0,))])
    for nid in g.topo_order():
        node = g.nodes[nid]
        f0, f1 = node.fanin0[0], node.fanin1[0]
        merged: set[tuple[int, ...]] = set()
        for c0 in result[f0].cuts:
            s0 = set(c0.leaves)
            for c1 in result[f1].cuts:
                union = s0.union(c1.leaves)
                if len(union) <= k:
                    merged.add(tuple(sorted(union)))
        leaf_sets = sorted(merged, key=lambda ls: (len(ls), ls))
        if prune_dominated:
            leaf_sets = _prune_dominated(leaf_sets)
            leaf_sets.sort(key=lambda ls: (len(ls), ls))
        cs = CutSet(nid)
        cs.cuts.append(Cut((nid,)))  # trivial cut
        for ls in leaf_sets:
            if ls == (nid,):
                continue
            if len(cs.cuts) >= cap:
                cs.truncated += 1
                continue
            cs.cuts.append(Cut(ls))
        result[nid] = cs
    return result


def cone_function(g: SubjectGraph, root: int, leaves: tuple[int, ...]) -> int:
    """Truth table of the cone of ``root`` over ``leaves`` (sorted)."""
    nvars = len(leaves)
    mask = table_mask(nvars)
    tts: dict[int, int] = {CONST0: 0}
    for i, leaf in enumerate(leaves):
        tts[leaf] = var_table(i, nvars)

    # iterative postorder over the cone, evaluating on the way back up
    stack = [root]
    while stack:
        nid = stack[-1]
        if nid in tts:
            stack.pop()
            continue
        node = g.nodes.get(nid)
        if node is None:
            raise ValueError(f"leaf set does not cover node {nid}")
        deps = [f for f, _ in (node.fanin0, node.fanin1) if f not in tts]
        if deps:
            stack.extend(deps)
            continue
        stack.pop()
        a = tts[node.fanin0[0]]
        b = tts[node.fanin1[0]]
        if node.fanin0[1]:
            a = ~a & mask
        if node.fanin1[1]:
            b = ~b & mask
        tts[nid] = a & b
    return tts[root] & mask


def compute_cut_functions(g: SubjectGraph, cutsets: dict[int, CutSet]) -> dict[int, CutSet]:
    """Fill the ``func`` field of every cut, in place on fresh Cut objects."""
    for nid, cs in cutsets.items():
        new_cuts = []
        for cut in cs.cuts:
            if cut.is_trivial_for(nid):
                func = var_table(0, 1)
            else:
                func = cone_function(g, nid, cut.leaves)
            new_cuts.append(Cut(cut.leaves, func))
        cs.cuts = new_cuts
    return cutsets
