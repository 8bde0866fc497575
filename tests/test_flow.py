"""The mapping pass runs with the cyclic garbage collector paused.  That is
safe only while the pass builds no reference cycles: reference counting
must free everything it makes.  These tests check both halves, and that the
pass's scratch (cut sets, DP solutions) is gone before the pause ends."""

import gc
import weakref

import pytest

from pbmap import bench, flow
from pbmap import cuts as cutsmod
from pbmap import mapper as mapmod
from pbmap.library import hit_rate
from pbmap.mapper import MappingError
from pbmap.netlist import SubjectGraph, random_aig
from pbmap.report import build_report

FLOWS = {
    "default": {},
    "depth_greedy": {"depth_greedy": True},
    "no_retime": {"retime": False},
}


def cyclic_garbage(run):
    """Objects in reference cycles that ``run()`` left unreachable, found
    by automatic collections during the call or by one after it."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect() + len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


@pytest.mark.parametrize("flow_name", list(FLOWS))
@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_map_graph_leaves_no_cyclic_garbage(lib, table, clocked_lib,
                                            clocked_table, lib_name,
                                            flow_name, cold):
    library, tbl = ((lib, table) if lib_name == "bundled"
                    else (clocked_lib, clocked_table))
    g = random_aig(120, 12, seed=7, n_pos=None)

    def run():
        # a cold pass prepares its own table, so every wiring is a miss
        res = flow.map_graph(g, library, None if cold else tbl,
                             **FLOWS[flow_name])
        build_report(res, "rand120")
        res.after.write_blif()
        res.after.write_verilog()

    assert cyclic_garbage(run) == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored(lib, table, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        flow.prepare_match_table(lib, k=3, max_depth=2)
        assert gc.isenabled() is enabled
        flow.map_graph(bench.ksa4(), lib, table)
        assert gc.isenabled() is enabled
        # depth-1 supergates are single cells, and none covers ksa4's
        # node 14: an AND with a complemented input
        shallow = flow.prepare_match_table(lib, max_depth=1)
        with pytest.raises(MappingError):
            flow.map_graph(bench.ksa4(), lib, shallow)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("flow_name", list(FLOWS))
def test_map_graph_frees_its_scratch(lib, table, monkeypatch, flow_name):
    # weak references to the cut store and one DP solution, taken as the
    # pass makes them; with the collector off, only reference counting
    # frees them, and they must be dead by the time the pause ends.  A
    # CutSet is built on each access, so the store itself is watched
    refs, at_pause_end = [], []

    def spy(real):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            refs.append(weakref.ref(out if isinstance(out, cutsmod.CutSets)
                                    else next(iter(out.values()))))
            return out
        return call

    class Collector:  # flow's view of gc: enabled, and ending the pause
        isenabled = staticmethod(lambda: True)
        disable = staticmethod(lambda: None)
        enable = staticmethod(lambda: at_pause_end.append(
            [ref() for ref in refs]))

    for mod, name in ((cutsmod, "enumerate_cuts"), (mapmod, "map_dag"),
                      (mapmod, "map_depth_greedy")):
        monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    monkeypatch.setattr(flow, "gc", Collector)
    was = gc.isenabled()
    gc.disable()
    try:
        res = flow.map_graph(bench.ksa4(), lib, table, **FLOWS[flow_name])
        assert len(refs) == 2
        assert at_pause_end == [[None, None]]
        assert [ref() for ref in refs] == [None, None]
        assert not hasattr(res, "cutsets") and not hasattr(res, "solutions")
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("depth_greedy", [False, True],
                         ids=["dp", "depth_greedy"])
@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_hit_rate_is_a_lookup_of_every_cut(lib, table, clocked_lib,
                                           clocked_table, lib_name,
                                           depth_greedy):
    # hit_rate counts over the kernel's rows at once, and the pass reports
    # its figure; both must be the one a lookup of every Cut gives
    library, tbl = ((lib, table) if lib_name == "bundled"
                    else (clocked_lib, clocked_table))
    for g in bench.corpus():
        res = flow.map_graph(g, library, tbl, retime=False,
                             depth_greedy=depth_greedy)
        cutsets = cutsmod.enumerate_cuts(g)
        found = [bool(tbl.lookup(cut.func, len(cut.leaves)))
                 for nid, cs in cutsets.items() for cut in cs.cuts
                 if not cut.is_trivial_for(nid)]
        want = sum(found) / len(found)
        assert res.hit_rate == hit_rate(cutsets, tbl) == want, g.name


def complemented_po_drivers() -> SubjectGraph:
    """Complemented POs driven by a PI, by a shared AND and by an AND that
    also drives a plain PO."""
    g = SubjectGraph(name="negs")
    a, b, c = ((g.add_pi(name), False) for name in "abc")
    ab = g.add_and(a, b)
    out = g.add_and((ab[0], True), c)
    g.add_po((a[0], True), "na")
    g.add_po((ab[0], True), "nab")
    g.add_po(out, "o")
    g.add_po((out[0], True), "no")
    return g


@pytest.mark.parametrize("depth_greedy", [False, True],
                         ids=["dp", "depth_greedy"])
@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_a_mapping_pass_builds_no_cut_set(lib, table, clocked_lib,
                                          clocked_table, lib_name,
                                          depth_greedy, monkeypatch):
    # both phases read the kernel's rows: a CutSet is only a read-only view
    def refuse(self, nid):
        raise AssertionError(f"a CutSet of node {nid} was built")

    monkeypatch.setattr(cutsmod.CutSets, "__getitem__", refuse)
    library, tbl = ((lib, table) if lib_name == "bundled"
                    else (clocked_lib, clocked_table))
    g = complemented_po_drivers()
    res = flow.map_graph(g, library, tbl, depth_greedy=depth_greedy)
    packed = [0b11110000, 0b11001100, 0b10101010]
    want = [v & 0xFF for v in g.simulate(dict(zip(g.pis, packed)))]
    got = res.after.simulate(packed, 0xFF)
    assert [got[name] for name in g.po_names] == want
