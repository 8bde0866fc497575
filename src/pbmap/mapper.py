"""The path-balancing mapper core: a DP over cuts that minimizes inserted
balancing DFFs, and cover extraction.

Every node carries a small Pareto frontier of (height, dffs) matches; a
match's DFF count is its leaves' cumulative counts plus the retimed DFF
count of the supergate given the chosen leaf arrival heights.  The frontier
is kept sorted by (dffs, height), and of two equal points it keeps the one
smaller by (area, jj, supergate name), the first inserted on a full tie; so
its first point is the DFF-optimal, then shallowest, then cheapest match,
and that point is the node's choice (``NodeSolution.best``).  Multi-fanout
nodes are hard cover boundaries: their frontier collapses to that point so
all consumers share one implementation.

Leaf-to-input wirings come from one table cached on the match table,
``MatchTable.profiles``: for each (supergate, cut function, leaf heights) it
holds one wiring per distinct permuted height profile with its root height and
retimed DFF count, so neither the DP nor the depth-greedy baseline re-walks
the symmetry permutations per candidate.  The two share one sweep and differ
only in the rule that turns a (cut, supergate) pair into frontier points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .balance import MappedNetwork
from .cuts import Cut, CutSet
from .library import MatchTable, Supergate
from .netlist import CONST0, SubjectGraph

POS = "positive"
NEG = "negative"

# leaf-choice products above this size are swept by root arrival target
PRODUCT_LIMIT = 64
# (height, dffs) points kept per node; no benchmark circuit's frontier has
# more than 3, so the cap bounds the worst case without taking effect
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
    leaf_heights: tuple[int, ...] = ()
    leaves: tuple[int, ...] = ()  # cut leaves in supergate input-slot order

    @property
    def is_wire(self) -> bool:
        return self.supergate is None


@dataclass
class NodeSolution:
    node: int
    frontier: list[Match] = field(default_factory=list)  # by (dffs, height)

    @property
    def best(self) -> Match:
        """The node's choice: the frontier's first point."""
        return self.frontier[0]

    def point_at(self, height: int) -> Match:
        for m in self.frontier:
            if m.height == height:
                return m
        raise MappingError(
            f"no frontier point of node {self.node} at height {height}")


def _alt_key(m: Match):
    return (m.area, m.jj, m.supergate.name if m.supergate else "")


def _insert_pareto(frontier: list[Match], cand: Match, cap: int):
    for i, m in enumerate(frontier):
        if m.height == cand.height and m.dffs == cand.dffs:
            if _alt_key(cand) < _alt_key(m):
                frontier[i] = cand
            return
        if m.height <= cand.height and m.dffs <= cand.dffs:
            return  # dominated
    frontier[:] = [m for m in frontier
                   if not (cand.height <= m.height and cand.dffs <= m.dffs)]
    frontier.append(cand)
    frontier.sort(key=lambda m: (m.dffs, m.height))
    if len(frontier) > cap:
        del frontier[cap:]


def _dominated(frontier: list[Match], height: int, dffs: int) -> bool:
    """Whether _insert_pareto would drop a (height, dffs) candidate: its scan
    meets a dominating point before an equal one (which it may replace)."""
    for m in frontier:
        if m.height == height and m.dffs == dffs:
            return False
        if m.height <= height and m.dffs <= dffs:
            return True
    return False


def _match(sg: Supergate, cut: Cut, choice, perm, height: int,
           sg_dffs: int) -> Match:
    """``sg`` over ``cut`` on the leaf points ``choice``, wired by ``perm``."""
    return Match(sg, height, sum(m.dffs for m in choice) + sg_dffs,
                 sg.area + sum(m.area for m in choice),
                 sg.jj_count + sum(m.jj for m in choice),
                 tuple(choice[p].height for p in perm),
                 tuple(cut.leaves[p] for p in perm))


def _combine(sg: Supergate, cut: Cut, leaf_fronts: list[list[Match]],
             out: list[Match], cap: int, profiles):
    """The DP's rule: Pareto candidates for one (cut, supergate) pair over
    leaf frontier choices.

    Each candidate also chooses a leaf-to-input wiring: any permutation that
    fixes the cut function is a legal binding, and skew-sensitive costs make
    the choice matter, so every distinct permuted height profile is emitted.
    """
    depths = sg.leaf_depths
    size = 1
    for lf in leaf_fronts:
        size *= len(lf)
        if size > PRODUCT_LIMIT:
            break

    def emit(choice):
        leaf_dffs = sum(m.dffs for m in choice)
        base = tuple(m.height for m in choice)
        for perm, height, sg_dffs in profiles(sg, cut.func, base):
            if not _dominated(out, height, leaf_dffs + sg_dffs):
                _insert_pareto(
                    out, _match(sg, cut, choice, perm, height, sg_dffs), cap)

    if size <= PRODUCT_LIMIT:
        for choice in itertools.product(*leaf_fronts):
            emit(choice)
        return
    # too many combinations: sweep candidate root arrival targets, greedily
    # picking the cheapest feasible frontier point per leaf
    targets = sorted({m.height + d for lf, d in zip(leaf_fronts, depths) for m in lf})
    for target in targets:
        choice = []
        ok = True
        for lf, d in zip(leaf_fronts, depths):
            feas = [m for m in lf if m.height + d <= target]
            if not feas:
                ok = False
                break
            choice.append(min(feas, key=lambda m: (m.dffs + (target - d - m.height),
                                                   -m.height)))
        if ok:
            emit(choice)


def _greedy(sg: Supergate, cut: Cut, leaf_fronts: list[list[Match]],
            out: list[Match], cap: int, profiles):
    """The depth-greedy rule: ``out`` holds the one match least by (height,
    area, jj, name), the first on a tie, ignoring DFF cost.  The wiring is
    chosen by arrival height alone, ties broken by the height profile."""
    choice = [lf[0] for lf in leaf_fronts]
    base = tuple(m.height for m in choice)
    perm, height, sg_dffs = min(profiles(sg, cut.func, base),
                                key=lambda e: (e[1], tuple(base[p] for p in e[0])))
    best = out[0] if out else None
    if best is not None and height > best.height:
        return
    cand = _match(sg, cut, choice, perm, height, sg_dffs)
    if best is None or height < best.height or _alt_key(cand) < _alt_key(best):
        out[:] = [cand]


def _solve_node(nid: int, phase: str, cutsets: dict[int, CutSet],
                table: MatchTable, solutions, frontier_cap: int,
                combine) -> NodeSolution:
    frontier: list[Match] = []
    for cut in cutsets[nid].cuts:
        if cut.func is None:
            raise MappingError("cut functions not computed")
        sgs = table.lookup(cut.func, len(cut.leaves), phase)
        if not sgs:
            continue
        leaf_fronts = [solutions[(leaf, POS)].frontier for leaf in cut.leaves]
        for sg in sgs:
            combine(sg, cut, leaf_fronts, frontier, frontier_cap, table.profiles)
    if not frontier:
        raise MappingError(
            f"node {nid} ({phase}) has no matchable cut: the library or the "
            "supergate depth cannot cover its cuts")
    return NodeSolution(nid, frontier)


def _sweep(g: SubjectGraph, cutsets: dict[int, CutSet], table: MatchTable,
           frontier_cap: int, combine):
    """Topological sweep over any acyclic subject graph, ``combine`` adding
    each (cut, supergate) pair's candidates to a node's frontier.

    Returns a dict keyed by (node_id, phase) of NodeSolution: a zero-cost
    wire at height 0 for every PI and the constant, the positive phase of
    every node, and the negative phase of every complemented PO's driver,
    PIs included, solved by the DP's ``_combine`` from the finished positive
    phases.
    """
    wire = Match(None, 0, 0, 0.0, 0)
    srcs = g.pis + [CONST0] if g.has_const else g.pis
    solutions = {(s, POS): NodeSolution(s, [wire]) for s in srcs}
    fanout = g.fanout_counts()
    for nid in g.topo_order():
        sol = _solve_node(nid, POS, cutsets, table, solutions, frontier_cap,
                          combine)
        if fanout.get(nid, 0) > 1:
            # shared node: one implementation for all consumers
            del sol.frontier[1:]
        solutions[(nid, POS)] = sol
    for p, c in g.pos:
        if c and p != CONST0 and (p, NEG) not in solutions:
            solutions[(p, NEG)] = _solve_node(p, NEG, cutsets, table, solutions,
                                              frontier_cap, _combine)
    return solutions


def map_dag(g: SubjectGraph, cutsets: dict[int, CutSet], table: MatchTable,
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
# cover extraction
# ----------------------------------------------------------------------


def extract_cover(solutions, g: SubjectGraph, cutsets=None, table=None,
                  frontier_cap: int = FRONTIER_CAP) -> MappedNetwork:
    """Reverse traversal from the POs instantiating the chosen supergates.
    It only reads ``solutions``, which must hold every (node, phase) the
    cover demands, as ``map_dag`` and ``map_depth_greedy`` return them.
    ``cutsets``, ``table`` and ``frontier_cap`` are unused, kept for the
    benchmark's traced pipeline, which still passes them."""
    net = MappedNetwork(name=g.name)
    pi_sig = {}
    for pid in g.pis:
        pi_sig[pid] = net.add_pi(g.pi_names[pid])

    sig_of: dict[tuple[int, str, int | None], int] = {}

    def visit(nid: int, phase: str, height: int | None):
        """``(sig, None)`` for a PI or an emitted match, else ``(None,
        (key, match))`` for a match whose cover is still to be built."""
        if g.is_pi(nid) and phase == POS:
            return pi_sig[nid], None
        sol = solutions[(nid, phase)]
        match = sol.best if height is None else sol.point_at(height)
        key = (nid, phase, match.height)
        if key in sig_of:
            return sig_of[key], None
        if match.is_wire:
            sig_of[key] = pi_sig[nid]
            return pi_sig[nid], None
        return None, (key, match)

    def demand(nid: int, phase: str, height: int | None) -> int:
        """Build the cover of one node bottom-up with an explicit stack: a
        match's leaves are visited in order, each completed before the next,
        and its supergate is instantiated after them, so the netlist order is
        that of a depth-first walk at any depth."""
        sig, todo = visit(nid, phase, height)
        if todo is None:
            return sig
        stack = [(*todo, [])]  # (key, match, leaf signals so far)
        while True:
            key, match, leaf_sigs = stack[-1]
            i = len(leaf_sigs)
            if i < len(match.leaves):
                sig, todo = visit(match.leaves[i], POS, match.leaf_heights[i])
                if todo is None:
                    leaf_sigs.append(sig)
                else:
                    stack.append((*todo, []))
                continue
            stack.pop()
            sig = sig_of[key] = _instantiate(net, match.supergate, leaf_sigs)
            if not stack:
                return sig
            stack[-1][2].append(sig)

    for name, (p, c) in zip(g.po_names, g.pos):
        if p == CONST0:
            net.add_const_po(name, bool(c))
            continue
        sig = demand(p, NEG if c else POS, None)
        net.add_po(sig, name)
    return net


def _instantiate(net: MappedNetwork, sg: Supergate, leaf_sigs: list[int]) -> int:
    """Add the cells of ``sg`` bottom-up, children in input order, so a
    supergate's leaf slots take ``leaf_sigs`` left to right."""
    leaves = iter(leaf_sigs)
    stack = [(sg, [])]  # (supergate node, fanin signals so far)
    while True:
        node, fanins = stack[-1]
        if len(fanins) < len(node.children):
            c = node.children[len(fanins)]
            if isinstance(c, int):
                fanins.append(next(leaves))
            else:
                stack.append((c, []))
            continue
        stack.pop()
        sig = net.add_gate(node.root_cell, fanins)
        if not stack:
            return sig
        stack[-1][1].append(sig)
