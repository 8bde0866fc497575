"""The path-balancing mapper core: a DP over cuts that minimizes inserted
balancing DFFs, and the choice and instantiation of its cover.

Every node carries a small Pareto frontier of (height, dffs) matches; a
match's DFF count is its leaves' cumulative counts plus the retimed DFF
count of the supergate given the chosen leaf arrival heights.  The frontier
is kept sorted by (dffs, height), and of two equal points it keeps the one
smaller by (area, jj, supergate name), the first inserted on a full tie; so
its first point is the DFF-optimal, then shallowest, then cheapest match,
and that point is the node's choice (``NodeSolution.best``).  Multi-fanout
nodes are hard cover boundaries: their frontier collapses to that point so
all consumers share one implementation.

Leaf-to-input wirings come from the match table, which a node's negative
phase reads with the complement of its cut function.  For the DP,
``MatchTable.options`` holds, per (function, leaf heights), every
(supergate, wiring) pair with its root height and retimed DFF count, less
those that no leaf cost can bring onto a frontier; the DP reads that table
for every combination of its leaves' frontier points, however many there
are, so no leaf choice of a tree is left untried.  The depth-greedy baseline wires each supergate by
``MatchTable.wirings`` directly, one wiring per distinct permuted height
profile.  The two rules share one sweep: both feed candidate points, plain
tuples, through a node's frontier, and a ``Match`` is built only for the
points it keeps.  Both phases read the cut kernel's rows, and only the
rows the match table holds become ``(leaves, func)`` tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .balance import MappedNetwork
from .cuts import WIDTH_MASK, CutSets
from .library import MatchTable, Supergate, dominates, retimed_match_dffs
from .netlist import CONST0, SubjectGraph

POS = "positive"
NEG = "negative"

# (height, dffs) points kept per node; no benchmark circuit's frontier has
# more than 3, so the cap bounds the worst case without taking effect.  It
# is also what bounds a k-leaf cut's leaf choices, at FRONTIER_CAP ** k
FRONTIER_CAP = 8


class MappingError(Exception):
    pass


@dataclass
class Match:
    supergate: Supergate | None
    height: int
    dffs: int
    area: float
    jj: int
    # the leaves' frontier points and the cut leaves, in supergate
    # input-slot order
    inputs: tuple[Match, ...] = ()
    leaves: tuple[int, ...] = ()


@dataclass
class NodeSolution:
    frontier: list[Match] = field(default_factory=list)  # by (dffs, height)

    @property
    def best(self) -> Match:
        """The node's choice: the frontier's first point."""
        return self.frontier[0]


# A candidate point is a tuple (height, dffs, alt, supergate, perm, choice,
# leaves): alt = (area, jj, supergate name) breaks (height, dffs) ties, and
# the supergate sits over the cut ``leaves`` on the leaf points ``choice``,
# leaf ``perm[i]`` wired to its input slot i.


def _insert(frontier: list[tuple], cand: tuple, cap: int):
    """Add the candidate point ``cand`` to a node's Pareto frontier of
    points, kept sorted by (dffs, height) and at most ``cap`` long.  A point
    equal in (height, dffs) keeps the smaller alt, the first inserted on a
    full tie; one that another ``dominates`` is dropped or evicted."""
    height, dffs = cand[0], cand[1]
    for i, p in enumerate(frontier):
        if p[0] == height and p[1] == dffs:
            if cand[2] < p[2]:
                frontier[i] = cand
            return
        if dominates(p[0], p[1], height, dffs):
            return
    frontier[:] = [p for p in frontier
                   if not dominates(height, dffs, p[0], p[1])]
    frontier.append(cand)
    frontier.sort(key=lambda p: (p[1], p[0]))
    del frontier[cap:]


def _emit(frontier: list[tuple], cap: int, choice, leaves, options):
    """Insert one candidate per (height, sg_dffs, supergate, perm) of
    ``options``, all over the leaf points ``choice`` of the cut ``leaves``,
    whose costs are summed once."""
    leaf_dffs = leaf_area = leaf_jj = 0  # summed as sum() would
    for m in choice:
        leaf_dffs += m.dffs
        leaf_area += m.area
        leaf_jj += m.jj
    for height, sg_dffs, sg, perm in options:
        _insert(frontier, (height, leaf_dffs + sg_dffs,
                           (sg.area + leaf_area, sg.jj_count + leaf_jj,
                            sg.name), sg, perm, choice, leaves), cap)


def _match(point) -> Match:
    """The Match of a candidate point a node's frontier kept."""
    height, dffs, (area, jj, _), sg, perm, choice, leaves = point
    return Match(sg, height, dffs, area, jj,
                 tuple(choice[p] for p in perm),
                 tuple(leaves[p] for p in perm))


def _combine(table: MatchTable, func: int, leaves: tuple[int, ...],
             leaf_fronts: list[list[Match]], out: list[tuple], cap: int):
    """The DP's rule: Pareto candidates for one cut of ``func`` over its
    ``leaves``, one per leaf frontier choice.

    Each candidate also chooses a leaf-to-input wiring: any permutation that
    fixes the cut function is a legal binding, and skew-sensitive costs make
    the choice matter, so every distinct permuted height profile is a
    candidate (``MatchTable.options``).
    """
    options = table.options
    for choice in itertools.product(*leaf_fronts):
        _emit(out, cap, choice, leaves,
              options(func, tuple([m.height for m in choice])))


def _greedy(table: MatchTable, func: int, leaves: tuple[int, ...],
            leaf_fronts: list[list[Match]], out: list[tuple], cap: int):
    """The depth-greedy rule: ``out`` holds the one point least by (height,
    alt), the first on a tie, ignoring DFF cost, over each leaf's first
    point.  A supergate's wiring is chosen by arrival height alone, ties
    broken by the permuted height profile."""
    choice = tuple(lf[0] for lf in leaf_fronts)
    base = tuple(m.height for m in choice)
    leaf_area = sum(m.area for m in choice)
    leaf_jj = sum(m.jj for m in choice)
    perms = table.wirings(func, base)
    for sg in table.lookup(func, len(leaves)):
        depths = sg.leaf_depths
        # the wirings give distinct height tuples, so perm never breaks a tie
        height, heights, perm = min(
            (max(base[p] + d for p, d in zip(perm, depths)),
             tuple(base[p] for p in perm), perm) for perm in perms)
        alt = (sg.area + leaf_area, sg.jj_count + leaf_jj, sg.name)
        if out and (out[0][0], out[0][2]) <= (height, alt):
            continue
        out[:] = [(height, sum(m.dffs for m in choice)
                   + retimed_match_dffs(sg, heights), alt, sg, perm, choice,
                   leaves)]


def _candidates(cutsets: CutSets, table: MatchTable, nodes, negate: bool):
    """Per node of ``nodes``, in one pass over the kernel's rows: its rows
    whose (width, func), the func complemented when ``negate`` is set, the
    table holds, as (leaves, func) tuples in row order.  A trivial row needs
    no special case: in the positive phase its function, the identity, is
    never held, as ``generate_supergates`` keeps no identity supergate, and
    in the negative phase it is held as the inverter."""
    nodes = np.array(nodes, np.intp)
    cnt = cutsets.cnt[nodes]
    ends = cnt.cumsum()
    rows = (cutsets.off[nodes] - ends + cnt).repeat(cnt)
    rows += np.arange(len(rows))
    width, func = cutsets.width[rows], cutsets.func[rows]
    if negate:
        func = func ^ WIDTH_MASK[width]
    held = table.holds(width, func)
    cands = cutsets.pairs(rows[held], func[held])
    hi = held.cumsum()[ends - 1].tolist()
    return [cands[a:b] for a, b in zip([0] + hi, hi)]


def _solve_node(nid: int, phase: str, cands, table: MatchTable, fronts,
                frontier_cap: int, rule) -> NodeSolution:
    points: list[tuple] = []
    for leaves, func in cands:
        rule(table, func, leaves, list(map(fronts.__getitem__, leaves)),
             points, frontier_cap)
    if not points:
        raise MappingError(
            f"node {nid} ({phase}) has no matchable cut: the library or the "
            "supergate depth cannot cover its cuts")
    return NodeSolution([_match(p) for p in points])


def _sweep(g: SubjectGraph, cutsets: CutSets, table: MatchTable,
           frontier_cap: int, rule):
    """Topological sweep over any acyclic subject graph, ``rule`` adding
    each matched cut's candidate points to a node's frontier.

    Returns a dict keyed by (node_id, phase) of NodeSolution: a zero-cost
    wire at height 0 for every PI, the positive phase of every node, and
    the negative phase of every complemented PO's driver, PIs included,
    solved by the DP's ``_combine`` from the finished positive phases.
    """
    wire = Match(None, 0, 0, 0.0, 0)
    solutions = {(pi, POS): NodeSolution([wire]) for pi in g.pis}
    # the positive-phase frontiers, by node id, that leaf choices read
    fronts = {pi: solutions[(pi, POS)].frontier for pi in g.pis}
    fanout = g.fanout_counts()
    order = g.topo_order()
    for nid, cands in zip(order, _candidates(cutsets, table, order, False)):
        sol = _solve_node(nid, POS, cands, table, fronts, frontier_cap, rule)
        if fanout.get(nid, 0) > 1:
            # shared node: one implementation for all consumers
            del sol.frontier[1:]
        solutions[(nid, POS)] = sol
        fronts[nid] = sol.frontier
    negs = list(dict.fromkeys(p for p, c in g.pos if c and p != CONST0))
    for p, cands in zip(negs, _candidates(cutsets, table, negs, True)):
        solutions[(p, NEG)] = _solve_node(p, NEG, cands, table, fronts,
                                          frontier_cap, _combine)
    return solutions


def map_dag(g: SubjectGraph, cutsets: CutSets, table: MatchTable,
            frontier_cap: int = FRONTIER_CAP):
    """The DFF DP: every node keeps a Pareto frontier (see ``_sweep``)."""
    return _sweep(g, cutsets, table, frontier_cap, _combine)


def select_best(solutions, g: SubjectGraph, objective=None):
    """The identity: every node's choice is already its frontier's first
    point.  Kept, with ``g`` and ``objective`` unused, for the benchmark's
    traced pipeline, which still calls it."""
    return solutions


def map_depth_greedy(g: SubjectGraph, cutsets, table):
    """The depth-greedy baseline: the DP's sweep with a min-height rule, one
    match per node (``_greedy``).  Complemented POs get the DP's
    negative-phase solve, as in ``map_dag``."""
    return _sweep(g, cutsets, table, FRONTIER_CAP, _greedy)


# ----------------------------------------------------------------------
# the cover: chosen from the solutions, then instantiated
# ----------------------------------------------------------------------


@dataclass
class Cover:
    """A chosen cover of ``graph``: ``matches`` maps each (node, phase,
    height) key to its Match, each after its leaves' keys, PIs' wires left
    out; ``po_keys`` holds each PO's key, None for a constant PO."""
    graph: SubjectGraph
    matches: dict[tuple[int, str, int], Match]
    po_keys: list[tuple[int, str, int] | None]

    def instantiate(self) -> tuple[MappedNetwork, dict]:
        """The cover's network, and the signal of each key: the PIs, each
        match's supergate in order, then the POs."""
        g = self.graph
        net = MappedNetwork(name=g.name)
        sig_of = {(pid, POS, 0): net.add_pi(g.pi_names[pid]) for pid in g.pis}
        for key, m in self.matches.items():
            leaf_sigs = [sig_of[leaf, POS, p.height]
                         for leaf, p in zip(m.leaves, m.inputs)]
            sig_of[key] = _instantiate(net, m.supergate, iter(leaf_sigs))
        for name, key, (_, c) in zip(g.po_names, self.po_keys, g.pos):
            if key is None:
                net.add_const_po(name, bool(c))
            else:
                net.add_po(sig_of[key], name)
        return net, sig_of


def choose_cover(solutions, g: SubjectGraph) -> Cover:
    """The cover of each PO's ``best`` point, walked depth first with one
    explicit stack, a match's leaves in order.  It only reads ``solutions``,
    which must hold every (node, phase) the cover demands, as ``map_dag``
    and ``map_depth_greedy`` return them."""
    matches, po_keys = {}, []
    for p, c in g.pos:
        if p == CONST0:
            po_keys.append(None)
            continue
        phase = NEG if c else POS
        match = solutions[(p, phase)].best
        po_keys.append((p, phase, match.height))
        stack = [(po_keys[-1], match, 0)]  # (key, match, next leaf)
        while stack:
            key, match, i = stack.pop()
            if i == 0 and (match.supergate is None or key in matches):
                continue  # a PI's wire, or a key already chosen
            if i == len(match.leaves):
                matches[key] = match
                continue
            point = match.inputs[i]
            stack += [(key, match, i + 1),
                      ((match.leaves[i], POS, point.height), point, 0)]
    return Cover(g, matches, po_keys)


def extract_cover(solutions, g, cutsets=None, table=None, frontier_cap=None):
    """The network of ``choose_cover``; the last three parameters are unused,
    kept for the benchmark's traced pipeline, which still passes them."""
    return choose_cover(solutions, g).instantiate()[0]


def _instantiate(net: MappedNetwork, sg: Supergate, leaves) -> int:
    """Add the cells of ``sg`` in post-order, children in input order, its
    leaf slots taking the signals of the iterator ``leaves`` left to right;
    the signal of its root cell."""
    return net.add_gate(sg.root_cell, [
        next(leaves) if isinstance(c, int) else _instantiate(net, c, leaves)
        for c in sg.children])
