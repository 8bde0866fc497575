"""Spans recorded from outside the program, and the traced pipeline that
calls the public stage functions one by one in ``flow.map_graph``'s order.

The untraced pass calls ``flow.map_graph`` itself; comparing the QoR of the
two keeps the traced pipeline honest about measuring the same program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

from pbmap import cuts as cutsmod
from pbmap import library as libmod
from pbmap import mapper as mapmod
from pbmap import retime as retimemod
from pbmap.balance import MappedNetwork
from pbmap.netlist import SubjectGraph, parse_netlist

# flow.map_graph's defaults
K = 5
CUT_CAP = 250
FRONTIER_CAP = 8
OBJECTIVE = "dffs+depth+area"


class Spans:
    """In-memory span log: (id, name, parent id, start, end) in perf_counter
    seconds.  Written out once, when the run ends."""

    def __init__(self):
        self.records: list[list] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        rec = [len(self.records), name, parent, time.perf_counter(), None]
        self.records.append(rec)
        try:
            yield rec[0]
        finally:
            rec[4] = time.perf_counter()

    def duration(self, sid: int) -> float:
        _, _, _, start, end = self.records[sid]
        return end - start

    def totals_under(self, roots: set[int]) -> dict[str, float]:
        """Summed duration per span name over the children of ``roots``."""
        out: dict[str, float] = {}
        for _, name, parent, start, end in self.records:
            if parent in roots:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write(self, path):
        keys = ("id", "name", "parent", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, rec))
                                    for rec in self.records]))


@dataclass
class Traced:
    span: int  # the circuit's span
    graph: SubjectGraph
    cutsets: dict
    solutions: dict
    before: MappedNetwork
    after: MappedNetwork
    hit_rate: float


def map_traced(spans: Spans, parent: int, name: str, blif: str, lib,
               table) -> Traced:
    """parse -> flow.map_graph's stages -> write_blif, one span per call."""
    with spans.span(name, parent) as cid:
        with spans.span("netlist.parse", cid):
            g = parse_netlist(blif)
        with spans.span("cuts.enumerate", cid):
            cutsets = cutsmod.enumerate_cuts(g, k=K, cap=CUT_CAP)
        with spans.span("cuts.functions", cid):
            cutsmod.compute_cut_functions(g, cutsets)
        with spans.span("mapper.dp", cid):
            solutions = mapmod.map_dag(g, cutsets, table,
                                       frontier_cap=FRONTIER_CAP)
        with spans.span("mapper.select", cid):
            mapmod.select_best(solutions, g, OBJECTIVE)
        with spans.span("mapper.cover", cid):
            net = mapmod.extract_cover(solutions, g, cutsets, table,
                                       frontier_cap=FRONTIER_CAP)
        with spans.span("balance.splitters", cid):
            net.insert_splitters(lib)
        with spans.span("balance.balancing", cid):
            net.insert_balancing()
        with spans.span("balance.validate", cid):
            net.validate()
        with spans.span("retime.lp", cid):
            after = retimemod.retime_min_registers(net,
                                                   allow_across_splitters=True)
        with spans.span("balance.validate", cid):
            after.validate()
        with spans.span("library.hit_rate", cid):
            rate = libmod.hit_rate(cutsets, table)
        with spans.span("balance.emit", cid):
            after.write_blif()
    return Traced(cid, g, cutsets, solutions, net, after, rate)


def layer_counts(traced) -> dict[str, int]:
    """Size counters summed over traced circuits, read outside any timing."""
    total: dict[str, int] = {}
    for t in traced:
        for k, v in _counts(t).items():
            total[k] = total.get(k, 0) + v
    return total


def _counts(t: Traced) -> dict[str, int]:
    nontrivial = sum(1 for nid, cs in t.cutsets.items() for c in cs.cuts
                     if not c.is_trivial_for(nid))
    dp = [sol for (nid, phase), sol in t.solutions.items()
          if phase == mapmod.POS and nid in t.graph.nodes]
    edges = t.before.retiming_edges()
    vertices = {v for tail, head, _ in edges for v in (tail, head)} - {"host"}
    return {
        "netlist.ands": len(t.graph.nodes),
        "cuts.count": sum(len(cs.cuts) for cs in t.cutsets.values()),
        "cuts.truncated": sum(cs.truncated for cs in t.cutsets.values()),
        "cuts.nontrivial": nontrivial,
        "library.hits": round(t.hit_rate * nontrivial),
        "mapper.frontier_points": sum(len(sol.frontier) for sol in dp),
        "mapper.multi_point_nodes": sum(1 for sol in dp if len(sol.frontier) > 1),
        "mapper.neg_phase_solved": sum(1 for _, phase in t.solutions
                                       if phase == mapmod.NEG),
        "balance.instances": len(t.after.instances),
        "balance.po_pad_dffs": t.before.po_pad_dffs,
        "retime.edges": len(edges),
        "retime.vertices": len(vertices),
    }
