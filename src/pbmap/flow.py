"""End-to-end pipeline: cuts -> matching -> DP -> cover -> splitters ->
balancing -> retiming.  Shared by the CLI and the test suite."""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass

from . import cuts as cutsmod
from . import library as libmod
from . import mapper as mapmod
from . import retime as retimemod
from .balance import MappedNetwork
from .library import CellLibrary, MatchTable
from .netlist import SubjectGraph


@dataclass
class FlowResult:
    graph: SubjectGraph
    before: MappedNetwork   # balanced, pre-retiming
    after: MappedNetwork    # balanced, post-retiming (same net if retime off)
    hit_rate: float
    runtime: float          # map + balance + retime wall clock, seconds
    solutions: dict
    cutsets: dict

    @property
    def dffs_before(self) -> int:
        return self.before.dff_total

    @property
    def dffs_after(self) -> int:
        return self.after.dff_total


@contextlib.contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector for the enclosed block.

    The pause is process-wide: other threads allocate without cyclic
    collection until it ends.  It is safe here because a mapping pass
    builds no reference cycles (``tests/test_flow.py`` checks that none is
    left behind), so reference counting frees everything the collector
    would, and its full collections over the pass's own cut sets,
    frontiers and networks found nothing.  The collector is re-enabled
    only if it was enabled on entry, so nested pauses and callers that
    disabled it themselves keep their state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def prepare_match_table(lib: CellLibrary, k: int = 5,
                        max_depth: int = 3) -> MatchTable:
    with _collector_paused():
        sgs = libmod.generate_supergates(lib, k=k, max_depth=max_depth)
        return MatchTable(sgs)


def map_graph(g: SubjectGraph, lib: CellLibrary, table: MatchTable | None = None,
              k: int = 5, cut_cap: int = 250, retime: bool = True,
              depth_greedy: bool = False,
              allow_across_splitters: bool = True) -> FlowResult:
    """Map ``g`` onto ``lib``: k-cuts with their functions, the DFF DP (or
    the depth-greedy baseline), cover extraction, splitters, balancing and,
    if ``retime``, min-register retiming by one LP.  ``table`` is prepared
    from ``lib`` with ``k`` and the default supergate depth when not given.
    The whole pass runs with the cyclic garbage collector paused (see
    ``_collector_paused``); ``runtime`` covers mapping through retiming, not
    table preparation."""
    with _collector_paused():
        if table is None:
            table = prepare_match_table(lib, k=k)
        t0 = time.perf_counter()
        cutsets = cutsmod.enumerate_cuts(g, k=k, cap=cut_cap)
        if depth_greedy:
            solutions = mapmod.map_depth_greedy(g, cutsets, table)
        else:
            solutions = mapmod.map_dag(g, cutsets, table)
        net = mapmod.extract_cover(solutions, g)
        net.insert_splitters(lib)
        net.insert_balancing()
        net.validate()
        if retime:
            after = retimemod.retime_min_registers(
                net, allow_across_splitters=allow_across_splitters)
            after.validate()
        else:
            after = net
        runtime = time.perf_counter() - t0
        rate = libmod.hit_rate(cutsets, table)
        return FlowResult(g, net, after, rate, runtime, solutions, cutsets)
