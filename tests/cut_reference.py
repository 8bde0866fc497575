"""The per-node cut enumeration loop that ``pbmap.cuts.enumerate_cuts``
replaced, kept as the reference its level-batched kernel must reproduce:
the same cuts in the same order, with the same tables and the same
``truncated`` counts."""

from __future__ import annotations

from collections import Counter

from pbmap.cuts import CUT_CAP, TRIVIAL_FUNC, Cut, CutSet
from pbmap.netlist import SubjectGraph
from pbmap.truthtable import apply_cell, table_mask, var_table

SIG_MASK = 255  # node id bits kept in a signature: 256-bit signatures


def _drop_dominated(merged: list[tuple[int, tuple[int, ...], frozenset, int]]
                    ) -> list[tuple[int, tuple[int, ...], frozenset, int]]:
    """Drop every (size, leaves, leaf set, leaf signature) entry whose set
    has a strict subset in ``merged``.

    The sets are distinct and sorted by size, so a strict subset comes
    earlier, and testing the kept sets suffices: a dropped set's own subset
    is a subset too.  The signature test rejects most pairs before the set
    test runs."""
    keep = []
    shorter = 0  # keep[:shorter] are shorter than the current set
    for entry in merged:
        width, _, leaf_set, sig = entry
        if keep and keep[-1][0] < width:
            shorter = len(keep)
        for _, _, kset, ksig in keep[:shorter]:
            if not ksig & ~sig and kset < leaf_set:
                break
        else:
            keep.append(entry)
    return keep


def reference_enumerate_cuts(g: SubjectGraph, k: int = 5,
                             cap: int = CUT_CAP) -> dict[int, CutSet]:
    """Cut sets for every PI and internal node, keyed by node id, one node
    at a time in topological order."""
    if not 2 <= k <= 6:
        raise ValueError("k must be in 2..6")
    result: dict[int, CutSet] = {}
    # parallel to each node's cuts: leaf signatures and leaf sets, dropped
    # once the node's last consumer is merged
    pending = Counter(f for node in g.nodes.values()
                      for f, _ in (node.fanin0, node.fanin1))
    sigs: dict[int, list[int]] = {}
    sets: dict[int, list[frozenset]] = {}
    # (func, leaf positions, nvars) -> stretched table; lives for this call
    stretched: dict[tuple[int, tuple[int, ...], int], int] = {}
    masks = [table_mask(n) for n in range(k + 1)]

    def stretch(cut: Cut, ls: tuple[int, ...]) -> int:
        if cut.leaves == ls:
            return cut.func
        key = (cut.func, tuple(map(ls.index, cut.leaves)), len(ls))
        tt = stretched.get(key)
        if tt is None:
            func, pos, nvars = key
            tt = apply_cell(func, [var_table(p, nvars) for p in pos],
                            masks[nvars])
            stretched[key] = tt
        return tt

    for nid in g.pis:
        result[nid] = CutSet([Cut((nid,), TRIVIAL_FUNC)])
        sigs[nid] = [1 << (nid & SIG_MASK)]
        sets[nid] = [frozenset((nid,))]
    for nid in g.topo_order():
        node = g.nodes[nid]
        (f0, neg0), (f1, neg1) = node.fanin0, node.fanin1
        cuts0, sigs0 = result[f0].cuts, sigs[f0]
        cuts1, sigs1 = result[f1].cuts, sigs[f1]
        sets1 = sets[f1]
        # leaf set -> the first fanin-cut pair (i, j) whose union it is
        first: dict[frozenset, tuple[int, int]] = {}
        for i, set0 in enumerate(sets[f0]):
            sig0 = sigs0[i]
            for j in [j for j, sig1 in enumerate(sigs1)
                      if (sig0 | sig1).bit_count() <= k]:
                union = set0 | sets1[j]
                if len(union) <= k and union not in first:
                    first[union] = (i, j)
        # leaves are distinct, so the sort never compares two sets
        merged = _drop_dominated(sorted(
            (len(u), tuple(sorted(u)), u, sigs0[i] | sigs1[j])
            for u, (i, j) in first.items()))
        cs = CutSet([Cut((nid,), TRIVIAL_FUNC)])
        node_sigs, node_sets = [1 << (nid & SIG_MASK)], [frozenset((nid,))]
        for width, ls, leaf_set, sig in merged:
            if len(cs.cuts) >= cap:
                cs.truncated += 1
                continue
            i, j = first[leaf_set]
            mask = masks[width]
            t0 = stretch(cuts0[i], ls)
            t1 = stretch(cuts1[j], ls)
            cs.cuts.append(Cut(ls, (t0 ^ mask if neg0 else t0)
                               & (t1 ^ mask if neg1 else t1)))
            node_sigs.append(sig)
            node_sets.append(leaf_set)
        result[nid] = cs
        sigs[nid] = node_sigs
        sets[nid] = node_sets
        for f in (f0, f1):
            pending[f] -= 1
            if not pending[f]:
                del sigs[f], sets[f]
    return result
