import pathlib

import pytest

from pbmap.flow import prepare_match_table
from pbmap.library import parse_library
from pbmap.netlist import CONST0

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbmap" / "data"


@pytest.fixture(scope="session")
def lib():
    return parse_library((DATA / "sfq.genlib").read_text(), name="sfq")


@pytest.fixture(scope="session")
def table(lib):
    return prepare_match_table(lib, k=5, max_depth=3)


@pytest.fixture(scope="session")
def clocked_lib():
    # the bundled library with a clocked inverter: the only library at hand
    # whose frontiers hold more than one point
    text = (DATA / "sfq.genlib").read_text()
    inv = next(line for line in text.splitlines()
               if line.split()[:2] == ["GATE", "inv"])
    clocked = text.replace(inv, inv.replace("CLOCKED=0", "CLOCKED=1"))
    assert clocked != text
    return parse_library(clocked, name="sfq_clocked_inv")


@pytest.fixture(scope="session")
def clocked_table(clocked_lib):
    return prepare_match_table(clocked_lib)


def subject_levels(g) -> dict[int, int]:
    """Longest PI distance of every node in AND gates; PIs and the constant
    are at 0.  Walks ``g.nodes`` in order, which is topological."""
    levels = dict.fromkeys([CONST0, *g.pis], 0)
    for nid, n in g.nodes.items():
        levels[nid] = 1 + max(levels[n.fanin0[0]], levels[n.fanin1[0]])
    return levels


def subject_depth(g) -> int:
    levels = subject_levels(g)
    return max((levels[p] for p, _ in g.pos), default=0)


def signature(g):
    """Hashable structural signature of subject graph ``g``, invariant
    under node renumbering.  PIs are anchored by name, so two graphs
    compare equal iff they are the same network up to internal node ids."""
    memo: dict[int, object] = {CONST0: ("const",)}
    for nid in g.pis:
        memo[nid] = ("pi", g.pi_names[nid])
    for nid in g.topo_order():
        n = g.nodes[nid]
        kids = tuple(sorted(((memo[f], c) for f, c in (n.fanin0, n.fanin1)),
                            key=repr))
        memo[nid] = ("and", kids)
    return tuple((name, memo[p], c)
                 for name, (p, c) in zip(g.po_names, g.pos))


def assert_topological(net):
    """Every fanin of ``net`` is a PI or an output of an earlier instance,
    every PO reads a signal that exists, PI k is signal k, and
    ``net.driver`` gives each output's instance by its list position:
    checked from the instances alone."""
    n = len(net.pi_names)
    assert net.driver[:n] == [-1] * n and -1 not in net.driver[n:]
    driver = {sig: -1 for sig in range(n)}
    for i, inst in enumerate(net.instances):
        assert all(f in driver for f in inst.fanins), (i, inst.fanins)
        driver.update((sig, i) for sig in inst.outs)
    assert all(s in driver for s in net.pos)
    assert net.driver == [driver[s] for s in range(len(driver))]


def balanced_po_arrivals(net) -> set[int] | None:
    """The set of PO arrivals, DFFs included, by an arrival walk written
    apart from ``MappedNetwork.arrivals``; None if some cell's fanins do not
    arrive together.  It walks ``net.instances`` in list order, which is
    topological, so a signal read before it is driven raises KeyError."""
    h = {sig: 0 for sig in range(len(net.pi_names))}
    for inst in net.instances:
        arrs = {h[f] + pad for f, pad in zip(inst.fanins, inst.pads)}
        if len(arrs) != 1:
            return None
        arr = arrs.pop() + (1 if inst.cell.is_clocked else 0)
        for sig in inst.outs:
            h[sig] = arr
    return {h[s] + pad for s, pad in zip(net.pos, net.po_pads)}


# -- tree oracles: nested tuples, a pin is None and a gate (l, r) ------------


def tree_node_count(tree) -> int:
    if tree is None:
        return 0
    l, r = tree
    return 1 + tree_node_count(l) + tree_node_count(r)


def tree_height(tree) -> int:
    if tree is None:
        return 0
    l, r = tree
    return 1 + max(tree_height(l), tree_height(r))


def tree_buffer_count(tree) -> int:
    """Chain buffers that pad every pin down to the deepest one."""
    def depths(t, d):
        return [d] if t is None else depths(t[0], d + 1) + depths(t[1], d + 1)

    ds = depths(tree, 0)
    return sum(max(ds) - d for d in ds)
