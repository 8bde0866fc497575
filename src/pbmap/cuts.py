"""k-feasible cut enumeration with truth tables built at merge time.

Cuts are enumerated bottom-up FlowMap-style: the cut set of a node is the
trivial cut plus all size-limited unions of one cut per fanin, with dominated
cuts pruned.  Each cut's function, a truth table over its sorted leaf list,
is built in the same pass, in the manner of priority cuts (Mishchenko et al.,
ICCAD 2007): the two fanin cuts that first produced a leaf set have their
tables stretched onto the union's variable order, complemented by the edge
flags and ANDed.

The pass runs one ASAP level of the graph at a time, every node of the level
in one batch of numpy operations over a pool of the cuts found so far: per
row, k int64 leaf slots (sorted, right-aligned after the empty ones), a
64-bit leaf signature (bit ``id % 64`` of each leaf) and the table; per
node, the offset and count of its rows, its trivial cut first.  A level's
nodes only read cuts of lower levels, which are final.  Per level the kernel

1. lists every fanin-cut pair (i, j) of every node, i-major as a per-node
   double loop does, and keeps the pairs whose OR'd signatures have at most
   k bits set (a union has at least as many leaves as bits set; step 2
   drops the wider unions that pass);
2. forms each pair's union as a sorted row, drops those wider than k, and
   orders the rows by (node, width, leaves) with a stable sort, so the first
   row of a run of equal unions is the first pair (i, j) that produced it;
3. drops every union that has a strict subset among the node's unions: a
   signature test rejects most candidate pairs before the exact subset test;
4. keeps the first ``cap - 1`` unions of each node in that order, after its
   trivial cut, and counts the rest as ``truncated``;
5. stretches both fanin tables onto the union's leaves through one table
   per leaf-position mask, complemented by the edge flags, and ANDs them.

So each node's cut list, in order, with its tables and ``truncated`` count,
is that of a per-node loop that merges the fanin-cut pairs in order, keeps
the first pair of each leaf set, sorts, prunes dominated sets over all of
them and only then applies the cap; ``tests/cut_reference.py`` is that loop.

The merged table is exact.  If a leaf x of one fanin cut lay inside the
other fanin cut's cone, every path from the inputs to x would already pass a
leaf of that other cut, so the union without x would also be a cut, and
dominance pruning drops the union.  Where the cap truncated a fanin's cut
set, the merged table still gives the node's value on every assignment the
circuit can produce, so a mapping built on it stays correct.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .netlist import SubjectGraph
from .truthtable import table_mask, var_table

TRIVIAL_FUNC = var_table(0, 1)
# cuts kept per node; never reached on the benchmark circuits (at most 52)
CUT_CAP = 250

# A leaf slot holds a leaf id shifted left by two, or a negative number: an
# empty slot.  A row's leaves are sorted and right-aligned after its empty
# slots, so rows compare lexicographically as (width, leaves) does.  While
# two cuts are merged, the two low bits tag which of them has the leaf.
_EMPTY = -4
_POW4 = 4 ** np.arange(6)
_BYTE = np.arange(8)
# the table mask of each cut width, as int64 bits
WIDTH_MASK = np.array([table_mask(n) for n in range(7)],
                      np.uint64).view(np.int64)


def _stretch_tables():
    """The tables that stretch a fanin cut's table onto a union's leaves.

    A merged row's tags, two bits per slot from the first (0 for an empty
    slot; 1, 2 or 3 for a leaf of the first cut, of the second or of both),
    read as one base-4 number are its code.  Returns ``masks[code]``, one
    mask per cut, where bit p says the union's p-th leaf is a leaf of the
    cut; ``byte_stretch[mask][q][byte]``, the union's
    table for a fanin table that is ``byte`` at byte q and zero elsewhere (a
    stretched table is the OR, and as the bits are disjoint the sum, of its
    stretched bytes); and ``union_mask[code]``, the union's table mask."""
    minterms, masks = np.arange(64), np.arange(64)[:, None]
    # pext[mask][m]: the bits of m at the positions set in mask, packed
    # down, the minterm of the fanin table that union minterm m reads
    pext = sum((masks >> p & 1) * ((minterms >> p & 1)
                                   << np.bitwise_count(masks & (1 << p) - 1))
               for p in range(6))
    stretched = np.zeros((64, 64), np.int64)  # [mask][j]: minterm j alone
    np.add.at(stretched, (masks, pext), 1 << minterms)
    byte_stretch = (stretched.reshape(64, 8, 8)
                    @ (np.arange(256) >> _BYTE[:, None] & 1))
    digits = np.arange(4 ** 6)[:, None] // _POW4 & 3
    empty = (digits > 0).argmax(axis=1)  # empty slots before the leaves
    masks = np.stack([((digits & tag) > 0) @ (1 << np.arange(6)) >> empty
                      for tag in (1, 2)], axis=1)
    union_mask = WIDTH_MASK[(digits > 0).sum(axis=1)]
    return masks, byte_stretch, union_mask


_MASKS, _BYTE_STRETCH, _TABLE_MASK = _stretch_tables()
_TAGS = np.array([[1], [2]])  # a leaf of the first cut, of the second


class Cut(NamedTuple):
    leaves: tuple[int, ...]  # sorted node ids
    func: int  # truth table over ``leaves``

    def is_trivial_for(self, root: int) -> bool:
        return self.leaves == (root,)


@dataclass
class CutSet:
    cuts: list[Cut] = field(default_factory=list)
    truncated: int = 0  # cuts dropped by the per-node cap


class CutSets(Mapping):
    """Every PI's and internal node's cut set, keyed by node id, as rows of
    the kernel's arrays: read-only, with a ``CutSet`` built on each access.

    Row r holds a cut's leaf ids, sorted and right-aligned after -1 for
    each empty slot, in ``leaves[r]``, their count in ``width[r]`` and its
    table, as int64 bits, in ``func[r]``.  Node ``nid``'s cuts are rows
    ``off[nid]`` to ``off[nid] + cnt[nid]``, its trivial cut first, and
    ``truncated[nid]`` counts those the cap dropped."""

    def __init__(self, nodes, leaves, func, off, cnt, truncated):
        self.nodes = dict.fromkeys(nodes)  # in order, for iteration
        self.leaves, self.width = leaves, (leaves >= 0).sum(axis=1)
        self.func, self.off, self.cnt = func, off, cnt
        self.truncated = truncated
        for a in (leaves, self.width, func, off, cnt, truncated):
            a.flags.writeable = False

    def pairs(self, rows, func) -> list[tuple[tuple[int, ...], int]]:
        """The (leaves, func) of each of ``rows``, in order, ``func`` giving
        each row's table as int64 bits."""
        k = self.leaves.shape[1]
        return [(tuple(row[k - w:]), f) for row, w, f in
                zip(self.leaves[rows].tolist(), self.width[rows].tolist(),
                    func.view(np.uint64).tolist())]

    def __getitem__(self, nid: int) -> CutSet:
        if nid not in self.nodes:
            raise KeyError(nid)
        lo = int(self.off[nid])
        rows = slice(lo, lo + int(self.cnt[nid]))
        pairs = self.pairs(rows, self.func[rows])
        return CutSet([Cut(*p) for p in pairs], int(self.truncated[nid]))

    def __contains__(self, nid) -> bool:
        return nid in self.nodes

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


class _Pool:
    """The cuts enumerated so far, one row each (leaf slots, signature,
    table, all int64), and where each node's rows are."""

    def __init__(self, k: int, n_ids: int):
        self.k, self.size = k, 0
        self.leaves = np.full((max(n_ids, 64), k), _EMPTY, np.int64)
        self.sig = np.zeros(len(self.leaves), np.int64)
        self.func = np.zeros(len(self.leaves), np.int64)
        self.off = np.zeros(n_ids, np.intp)
        self.cnt = np.zeros(n_ids, np.intp)
        self.truncated = np.zeros(n_ids, np.intp)
        ids = np.arange(n_ids)
        self.trivial_leaf, self.trivial_sig = ids << 2, 1 << (ids & 63)
        # a row's leaf slots read as one value, to test rows for equality
        self.row = np.dtype((np.void, 8 * k))

    def add(self, nids, node, leaves, sig, func):
        """Store the trivial cut of each of ``nids`` followed by its rows,
        the rows of ``nids[node[r]]`` for each row r, in order."""
        counts = np.bincount(node, minlength=len(nids)) + 1
        base, end = self.size, self.size + len(nids) + len(node)
        grow = end - len(self.sig)
        if grow > 0:
            grow = max(grow, len(self.sig))
            self.leaves = np.concatenate(
                (self.leaves, np.full((grow, self.k), _EMPTY, np.int64)))
            self.sig = np.concatenate((self.sig, np.zeros(grow, np.int64)))
            self.func = np.concatenate((self.func, np.zeros(grow, np.int64)))
        triv = counts.cumsum()
        triv += base - counts
        self.off[nids], self.cnt[nids] = triv, counts
        self.leaves[triv, -1] = self.trivial_leaf[nids]
        self.sig[triv] = self.trivial_sig[nids]
        self.func[triv] = TRIVIAL_FUNC
        at = node + np.arange(base + 1, base + 1 + len(node))
        self.leaves[at], self.sig[at], self.func[at] = leaves, sig, func
        self.size = end


def _level(pool: _Pool, nids, fanins, negs, cap: int):
    """Enumerate and store the cuts of the nodes ``nids``, whose two fanins
    ``fanins`` (complemented where ``negs`` is all ones) are in ``pool``."""
    k = pool.k
    # 1. fanin-cut pairs (i, j) as pool rows ``ab``, i-major per node, with
    # room for k leaves; every node has one, of its fanins' trivial cuts
    counts = pool.cnt[fanins]
    c1 = counts[:, 1]
    pairs = counts[:, 0] * c1
    ends = pairs.cumsum()
    node = np.arange(len(nids)).repeat(pairs)
    q = np.arange(ends[-1]) - (ends - pairs).repeat(pairs)
    c1 = c1[node]
    i = q // c1
    ab = pool.off[fanins][node]
    ab[:, 0] += i
    ab[:, 1] += q - i * c1
    sig = pool.sig[ab]
    sig = sig[:, 0] | sig[:, 1]
    ok = (np.bitwise_count(sig.view(np.uint64)) <= k).nonzero()[0]
    node, ab, sig = node[ok], ab[ok], sig[ok]
    # 2. unions as sorted tagged rows: a leaf both cuts have is tagged 3 and
    # its second copy emptied; then ordered by (node, width, leaves), so the
    # first row of a run of equal unions is the first pair producing it
    u = (pool.leaves[ab] | _TAGS).reshape(len(ab), 2 * k)
    u.sort(axis=1)
    v = u >> 2
    dup = v[:, 1:] == v[:, :-1]
    head = u[:, :-1]
    head[dup] |= 3
    u[:, 1:][dup] = _EMPTY
    u.sort(axis=1)
    ok = (u[:, k - 1] < 0).nonzero()[0]  # at most k leaves
    u, node = u.take(ok, 0)[:, k:], node[ok]
    v = u >> 2
    order = np.lexsort((*v.T[::-1], node))
    v, node = v.take(order, 0), node[order]
    first = np.empty(len(node), bool)
    first[:1] = True
    whole = v.view(pool.row).ravel()
    first[1:] = (node[1:] != node[:-1]) | (whole[1:] != whole[:-1])
    first = first.nonzero()[0]
    order = order[first]
    pair = ok[order]
    v, node, ab, sig = v.take(first, 0), node[first], ab[pair], sig[pair]
    # 3. a union goes when an earlier union of its node is a subset of it;
    # distinct unions of one width are never subsets of each other
    idx = np.arange(len(node))
    run = np.empty(len(node), bool)
    run[:1] = True
    run[1:] = node[1:] != node[:-1]
    lo = np.maximum.accumulate(idx * run)
    earlier = idx - lo
    keep = np.empty(len(node), bool)
    keep[:] = True
    ends = earlier.cumsum()
    y = idx.repeat(earlier)
    x = np.arange(ends[-1]) + (lo - ends + earlier).repeat(earlier)
    cand = ((sig[x] & ~sig[y]) == 0).nonzero()[0]
    if len(cand):
        x, y = x[cand], y[cand]
        vx = v.take(x, 0)
        sub = ((vx[:, :, None] == v.take(y, 0)[:, None, :]).any(axis=2)
               | (vx < 0)).all(axis=1)
        keep[y[sub]] = False
    # 4. the cap, by rank among the node's kept unions
    if len(node) >= cap:
        kept = keep.cumsum()
        drop = keep & (kept - (kept - keep)[lo] >= cap)
        keep ^= drop
        pool.truncated[nids] = np.bincount(node[drop], minlength=len(nids))
    keep = keep.nonzero()[0]
    node, ab, sig = node[keep], ab[keep], sig[keep]
    t = u.take(order[keep], 0)
    # 5. both fanin tables complemented, stretched onto the union, ANDed
    code = (np.maximum(t, 0) & 3).dot(_POW4[:k])
    tables = (pool.func[ab] ^ negs[node]).astype("<i8", copy=False)
    tables = _BYTE_STRETCH[_MASKS[code][:, :, None], _BYTE,
                           tables.view(np.uint8).reshape(-1, 2, 8)].sum(axis=2)
    func = tables[:, 0] & tables[:, 1] & _TABLE_MASK[code]
    pool.add(nids, node, t & ~3, sig, func)


def enumerate_cuts(g: SubjectGraph, k: int = 5,
                   cap: int = CUT_CAP) -> CutSets:
    """Cut sets for every PI and internal node, keyed by node id in the order
    of the PIs, the only sources (``add_and`` folds the constant away), and
    ``g.topo_order()``; every cut's ``func`` is set."""
    if not 2 <= k <= 6:
        raise ValueError("k must be in 2..6")
    order = g.topo_order()
    level = dict.fromkeys(g.pis, 0)
    for nid in order:
        node = g.nodes[nid]
        level[nid] = 1 + max(level[node.fanin0[0]], level[node.fanin1[0]])
    # the nodes by ASAP level, their fanins and their complement flags, a
    # flag of 1 as a mask of all ones
    by_level = sorted(order, key=level.__getitem__)
    edges = np.array([(g.nodes[nid].fanin0, g.nodes[nid].fanin1)
                      for nid in by_level], np.intp).reshape(-1, 2, 2)
    nids, fanins, negs = (np.array(by_level, np.intp), edges[..., 0],
                          -edges[..., 1])
    # by_level[bounds[l - 1]:bounds[l]] are the nodes of level l >= 1
    bounds = np.cumsum(np.bincount([level[nid] for nid in by_level])).tolist()
    pool = _Pool(k, max(level, default=0) + 1)
    src = np.array(g.pis, np.intp)
    pool.add(src, np.zeros(0, np.intp), np.zeros((0, k), np.int64),
             np.zeros(0, np.int64), np.zeros(0, np.int64))
    for lo, hi in zip(bounds, bounds[1:]):
        _level(pool, nids[lo:hi], fanins[lo:hi], negs[lo:hi], cap)
    # the rows without the pool's slack and signatures; an empty slot is -1
    return CutSets((*g.pis, *order), pool.leaves[:pool.size] >> 2,
                   pool.func[:pool.size].copy(), pool.off, pool.cnt,
                   pool.truncated)


def cone_function(g: SubjectGraph, root: int, leaves: tuple[int, ...]) -> int:
    """Truth table of the cone of ``root`` over ``leaves`` (sorted)."""
    nvars = len(leaves)
    mask = table_mask(nvars)
    tts = {leaf: var_table(i, nvars) for i, leaf in enumerate(leaves)}

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


def compute_cut_functions(g: SubjectGraph, cutsets: CutSets) -> CutSets:
    """Return ``cutsets`` unchanged: ``enumerate_cuts`` already sets every
    cut's ``func``.  Kept because ``perfbench/tracing.py`` times it as a
    stage of its own."""
    return cutsets
