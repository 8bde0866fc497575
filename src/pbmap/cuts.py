"""k-feasible cut enumeration with truth tables built at merge time.

Cuts are enumerated bottom-up FlowMap-style: the cut set of a node is the
trivial cut plus all size-limited unions of one cut per fanin, with dominated
cuts pruned.  Each cut's function, a truth table over its sorted leaf list,
is built in the same pass, in the manner of priority cuts (Mishchenko et al.,
ICCAD 2007): the two fanin cuts that first produced a leaf set have their
tables stretched onto the union's variable order, complemented by the edge
flags and ANDed.

During the pass every cut also carries two 256-bit signatures (one bit per
node id modulo 256): one of its leaves and one over-approximating the
interior of its cone.  Leaf signatures skip fanin pairs whose union is too
wide and reject most subset tests in dominance pruning.  Cone signatures
guard the merge: if a leaf of one fanin cut lies inside the other fanin
cut's cone, the leaf set's function reads that node as a free variable where
the other stretched table computes it from its own leaves.  Where the
signatures cannot rule this out, the table is simulated with
``cone_function``.  A true case has a strict subset that is also a cut, so
with pruning on it survives only where the cap dropped that subset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .netlist import CONST0, SubjectGraph
from .truthtable import apply_cell, table_mask, var_table

TRIVIAL_FUNC = var_table(0, 1)
SIG_MASK = 255  # node id bits kept in a signature: 256-bit signatures
# cuts kept per node; never reached on the benchmark circuits (at most 52)
CUT_CAP = 250


@dataclass(frozen=True)
class Cut:
    leaves: tuple[int, ...]  # sorted node ids
    func: int | None = None

    def is_trivial_for(self, root: int) -> bool:
        return self.leaves == (root,)


@dataclass
class CutSet:
    root: int
    cuts: list[Cut] = field(default_factory=list)
    truncated: int = 0  # cuts dropped by the per-node cap


def _prune_dominated(merged: list[tuple[int, tuple[int, ...], frozenset]],
                     sigs: list[int]) -> list[tuple[int, tuple[int, ...], frozenset]]:
    """Drop every (size, leaves, leaf set) entry whose set has a strict
    subset in ``merged``.

    The sets are distinct and sorted by size, so a strict subset comes
    earlier, and testing the kept sets suffices: a dropped set's own subset
    is a subset too.  The signature test rejects most pairs before the set
    test runs."""
    keep = []
    kept: list[tuple[int, frozenset]] = []
    shorter = 0  # kept[:shorter] are shorter than the current set
    for entry, sig in zip(merged, sigs):
        if keep and keep[-1][0] < entry[0]:
            shorter = len(kept)
        leaf_set = entry[2]
        for ksig, kset in kept[:shorter]:
            if not ksig & ~sig and kset < leaf_set:
                break
        else:
            keep.append(entry)
            kept.append((sig, leaf_set))
    return keep


def enumerate_cuts(g: SubjectGraph, k: int = 5, cap: int = CUT_CAP,
                   prune_dominated: bool = True) -> dict[int, CutSet]:
    """Cut sets for every PI and internal node, keyed by node id; every cut's
    ``func`` is set."""
    if not 2 <= k <= 6:
        raise ValueError("k must be in 2..6")
    result: dict[int, CutSet] = {}
    # parallel to each node's cuts: leaf signatures, cone signatures and
    # leaf sets, dropped once the node's last consumer is merged
    pending = Counter(f for node in g.nodes.values()
                      for f, _ in (node.fanin0, node.fanin1))
    sigs: dict[int, list[int]] = {}
    cones: dict[int, list[int]] = {}
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

    sources = list(g.pis)
    if g.has_const:
        sources.append(CONST0)
    for nid in sources:
        result[nid] = CutSet(nid, [Cut((nid,), TRIVIAL_FUNC)])
        sigs[nid] = [1 << (nid & SIG_MASK)]
        cones[nid] = [0]
        sets[nid] = [frozenset((nid,))]
    for nid in g.topo_order():
        node = g.nodes[nid]
        (f0, neg0), (f1, neg1) = node.fanin0, node.fanin1
        cuts0, sigs0, cones0 = result[f0].cuts, sigs[f0], cones[f0]
        cuts1, sigs1, cones1 = result[f1].cuts, sigs[f1], cones[f1]
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
        merged = sorted((len(u), tuple(sorted(u)), u) for u in first)
        if prune_dominated:
            merged = _prune_dominated(
                merged, [sigs0[first[u][0]] | sigs1[first[u][1]]
                         for _, _, u in merged])
        own = 1 << (nid & SIG_MASK)
        cs = CutSet(nid, [Cut((nid,), TRIVIAL_FUNC)])
        node_sigs, node_cones, node_sets = [own], [0], [frozenset((nid,))]
        for width, ls, leaf_set in merged:
            if len(cs.cuts) >= cap:
                cs.truncated += 1
                continue
            i, j = first[leaf_set]
            if cones0[i] & sigs1[j] or cones1[j] & sigs0[i]:
                func = cone_function(g, nid, ls)
            else:
                mask = masks[width]
                t0 = stretch(cuts0[i], ls)
                t1 = stretch(cuts1[j], ls)
                func = (t0 ^ mask if neg0 else t0) & (t1 ^ mask if neg1 else t1)
            cs.cuts.append(Cut(ls, func))
            node_sigs.append(sigs0[i] | sigs1[j])
            node_cones.append(own | cones0[i] | cones1[j])
            node_sets.append(leaf_set)
        result[nid] = cs
        sigs[nid] = node_sigs
        cones[nid] = node_cones
        sets[nid] = node_sets
        for f in (f0, f1):
            pending[f] -= 1
            if not pending[f]:
                del sigs[f], cones[f], sets[f]
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
    """Fill, by cone simulation, the ``func`` of every cut that has none
    (``enumerate_cuts`` already sets them all), in place on fresh Cut
    objects."""
    for nid, cs in cutsets.items():
        cs.cuts = [cut if cut.func is not None
                   else Cut(cut.leaves, cone_function(g, nid, cut.leaves))
                   for cut in cs.cuts]
    return cutsets
