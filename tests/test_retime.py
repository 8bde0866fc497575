import logging
import random

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from pbmap import bench
from pbmap.balance import MappedNetwork
from pbmap.flow import map_graph
from pbmap.library import retimed_match_dffs
from pbmap.mapper import _instantiate
from pbmap.retime import lag_window, retime_min_registers
from pbmap.trees import push_to_last_level_check
from test_golden_qor import CIRCUITS


def test_push_to_last_level_examples():
    per_child_sum, per_level_sum, equal = push_to_last_level_check(4, 2)
    assert per_child_sum == per_level_sum == 6
    assert equal
    per_child_sum, per_level_sum, equal = push_to_last_level_check(9, 8)  # x = h-1: single-level push
    assert per_child_sum == per_level_sum == 2
    assert equal


def test_push_to_last_level_sweep():
    for h in range(2, 21):
        for x in range(1, h):
            per_child_sum, per_level_sum, equal = push_to_last_level_check(h, x)
            assert equal
            assert per_child_sum == 2 ** (h - x + 1) - 2


def test_push_to_last_level_preconditions():
    with pytest.raises(ValueError):
        push_to_last_level_check(4, 4)
    with pytest.raises(ValueError):
        push_to_last_level_check(4, 0)


def sg_by_name(table, name):
    return next(sg for sg in table.supergates if sg.name == name)


def test_equal_heights_reproduce_internal_dffs(table):
    rng = random.Random(3)
    for sg in rng.sample(table.supergates, 50):
        for base in (0, 2, 5):
            assert retimed_match_dffs(sg, [base] * sg.n_inputs) == sg.internal_dffs


def test_hoisting_beats_per_leaf_padding(table):
    sg = sg_by_name(table, "and2(and2(x0,x1),and2(x2,x3))")
    heights = (1, 1, 0, 0)
    arrivals = [h + d for h, d in zip(heights, sg.leaf_depths)]
    per_leaf = sum(max(arrivals) - a for a in arrivals)
    assert per_leaf == 2
    # the two short-leaf pads share one register on the internal edge
    assert retimed_match_dffs(sg, heights) == 1


def reference_retimed_match_dffs(supergate, leaf_heights):
    """The recursive walk the closed form replaced: each cell keeps its
    children's least common slack and pads every child by the rest."""
    arrivals = [h + d for h, d in zip(leaf_heights, supergate.leaf_depths)]
    target = max(arrivals)
    leaf_pos = iter(range(supergate.n_inputs))

    def walk(child):
        if isinstance(child, int):
            return 0, target - arrivals[next(leaf_pos)]
        total = 0
        residuals = []
        for sub in child.children:
            regs, res = walk(sub)
            total += regs
            residuals.append(res)
        common = min(residuals)
        return total + sum(r - common for r in residuals), common

    regs, residual = walk(supergate)
    assert residual == 0
    return regs


def _with_sub_supergates(supergates):
    seen = {}
    stack = list(supergates)
    while stack:
        sg = stack.pop()
        if id(sg) not in seen:
            seen[id(sg)] = sg
            stack += [c for c in sg.children if not isinstance(c, int)]
    return list(seen.values())


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_closed_form_matches_walk(lib_name, table, clocked_table):
    tbl = table if lib_name == "bundled" else clocked_table
    rng = random.Random(29)
    for sg in _with_sub_supergates(tbl.supergates):
        # internal_dffs is composed from the children, not walked
        assert sg.internal_dffs == reference_retimed_match_dffs(
            sg, [0] * sg.n_inputs), sg.name
        for top in (1, 3, 8):
            heights = [rng.randint(0, top) for _ in range(sg.n_inputs)]
            assert (retimed_match_dffs(sg, heights)
                    == reference_retimed_match_dffs(sg, heights)), (sg.name,
                                                                   heights)


def reference_closed_form(supergate, heights: np.ndarray) -> np.ndarray:
    """``retimed_match_dffs``'s docstring formula, ``T - sum(a) + sum_v
    (c_v - 1) * M_v``, over every group, for each row of leaf heights."""
    arrivals = heights + np.array(supergate.leaf_depths)
    regs = arrivals.max(axis=1) - arrivals.sum(axis=1)
    for weight, positions in supergate.groups:
        regs += weight * arrivals[:, list(positions)].max(axis=1)
    return regs


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
def test_split_terms_match_the_closed_form(lib_name, table, clocked_table):
    # the groups spanning every leaf are folded into one factor of T
    tbl = table if lib_name == "bundled" else clocked_table
    rng = np.random.default_rng(31)
    for sg in tbl.supergates:
        heights = rng.integers(0, 9, (200, sg.n_inputs))
        assert ([retimed_match_dffs(sg, h) for h in heights.tolist()]
                == reference_closed_form(sg, heights).tolist()), sg.name


def test_leaf_height_count_checked(table):
    sg = table.supergates[0]
    with pytest.raises(ValueError):
        retimed_match_dffs(sg, [0] * (sg.n_inputs + 1))


def expand_match(lib, sg, heights):
    """Realize a match as a standalone network: each leaf arrives through a
    chain of DFF cells of the requested height."""
    net = MappedNetwork(name="cone")
    net.dff_cell = lib.dff
    leaf_sigs = [net.add_pi(f"x{i}") for i in range(len(heights))]
    for i, h in enumerate(heights):
        for _ in range(h):
            leaf_sigs[i] = net.add_gate(lib.dff, [leaf_sigs[i]])
    root = _instantiate(net, sg, iter(leaf_sigs))
    net.add_po(root, "f")
    net.insert_balancing()
    return net


def test_retimed_count_matches_lp_on_cones(lib, table):
    rng = random.Random(17)
    pool = [sg for sg in table.supergates if sg.n_inputs <= 5]
    for sg in rng.sample(pool, 40):
        heights = [rng.randint(0, 3) for _ in range(sg.n_inputs)]
        want = retimed_match_dffs(sg, heights)
        net = expand_match(lib, sg, heights)
        after = retime_min_registers(net)
        assert after.dff_total == want, (sg.name, heights)
        assert net.dff_total >= want  # naive balancing never beats hoisting


def shared_source_net(lib):
    """A 2-fanout AND whose two sink edges each carry one balancing DFF."""
    and2 = next(c for c in lib.cells if c.name == "and2")
    net = MappedNetwork(name="push")
    pis = [net.add_pi(n) for n in "abcdefgh"]
    a, b, c, d, e, f, g, hh = pis
    g0 = net.add_gate(and2, [a, b])
    sp = net.add_gate(lib.splitter, [g0])
    spi = net.instances[-1]
    l1 = net.add_gate(and2, [c, d])
    l2 = net.add_gate(and2, [l1, e])
    s1 = net.add_gate(and2, [spi.outs[0], l2])
    r1 = net.add_gate(and2, [f, g])
    r2 = net.add_gate(and2, [r1, hh])
    s2 = net.add_gate(and2, [spi.outs[1], r2])
    net.add_po(s1, "o1")
    net.add_po(s2, "o2")
    net.dff_cell = lib.dff
    net.insert_balancing()
    return net


def test_push_back_across_splitter(lib):
    net = shared_source_net(lib)
    # one DFF per splitter sink edge, plus one inside each side cone
    sink_edges = [(f, i) for i, inst in enumerate(net.instances)
                  if inst.cell.name == "and2"
                  for f, w in zip(inst.fanins, inst.pads)
                  if w and net.driver[f] >= 0
                  and net.instances[net.driver[f]].cell.kind == "splitter"]
    assert len(sink_edges) == 2
    assert net.dff_total == 4
    after = retime_min_registers(net, allow_across_splitters=True)
    assert after.dff_total == 3  # sibling sink DFFs merge behind the splitter
    after.validate()
    # splitters cannot be pinned to their drivers, which forbids that sharing
    with pytest.raises(ValueError, match="pinned"):
        retime_min_registers(net, allow_across_splitters=False)


def test_already_minimal_network_unchanged(lib, table):
    res = map_graph(bench.parity(8), lib, table)
    assert res.dffs_before == 0
    assert res.dffs_after == 0


def test_retiming_idempotent_at_minimum(lib, table):
    res = map_graph(bench.ksa4(), lib, table)
    again = retime_min_registers(res.after)
    assert again.dff_total == res.after.dff_total


def test_retiming_monotone_and_balanced(lib, table):
    for g in [bench.ksa4(), bench.ripple_adder(4), bench.comparator(4)]:
        res = map_graph(g, lib, table)
        assert res.dffs_after <= res.dffs_before
        res.after.validate()


def reference_window(edges):
    """Lag bounds implied by the ``(tail, head, w)`` legality rows
    ``r(tail) - r(head) <= w`` with ``r(host) = 0``, relaxed to a fixpoint:
    ``{vertex: (lo, hi)}``, ``inf`` where no path bounds a side."""
    inf = float("inf")
    vertices = {v for t, h, _ in edges for v in (t, h)}
    up = dict.fromkeys(vertices, inf)    # fewest DFFs from v to the host
    down = dict.fromkeys(vertices, inf)  # fewest DFFs from the host to v
    up["host"] = down["host"] = 0
    changed = True
    while changed:
        changed = False
        for tail, head, w in edges:
            if up[head] + w < up[tail]:
                up[tail] = up[head] + w
                changed = True
            if down[tail] + w < down[head]:
                down[head] = down[tail] + w
                changed = True
    return {v: (-down[v], up[v]) for v in vertices}


def reference_retimed_weights(net, bounded=True):
    """The dict-built LP retime_min_registers replaced, returning the
    retimed weight of each edge in ``retiming_edges`` order; ``bounded``
    gives each column its lag window, computed from the edge rows alone."""
    edges = net.retiming_edges()
    vertices = sorted({v for t, h, _ in edges for v in (t, h)} - {"host"})
    vidx = {v: i for i, v in enumerate(vertices)}
    nvar = len(vertices)
    window = reference_window(edges)
    bounds = ([window[v] for v in vertices] if bounded
              else [(None, None)] * nvar)
    cost = [0.0] * nvar
    a_ub, b_ub = [], []
    for tail, head, w in edges:
        if head != "host":
            cost[vidx[head]] += 1.0
        if tail != "host":
            cost[vidx[tail]] -= 1.0
        row = {}
        if tail != "host":
            row[vidx[tail]] = row.get(vidx[tail], 0.0) + 1.0
        if head != "host":
            row[vidx[head]] = row.get(vidx[head], 0.0) - 1.0
        if row:
            a_ub.append(row)
            b_ub.append(float(w))
    rows, cols, vals = [], [], []
    for i, row in enumerate(a_ub):
        for j, v in row.items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
    a = csr_matrix((vals, (rows, cols)), shape=(len(a_ub), nvar))
    res = linprog(cost, A_ub=a, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success
    r = {v: int(round(x)) for v, x in zip(vertices, res.x)}
    r["host"] = 0
    return [w + r[head] - r[tail] for tail, head, w in edges]


def with_edge_weights(net, weights):
    """A copy of ``net`` whose edges, in ``retiming_edges`` order (instance
    pins in index order, then POs), carry ``weights``."""
    out, rest = net.copy(), list(weights)
    for inst in out.instances:
        inst.pads, rest = rest[:len(inst.fanins)], rest[len(inst.fanins):]
    out.po_pads = rest
    assert len(rest) == len(out.pos)
    return out


@pytest.mark.parametrize("across", [True, False])
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_array_lp_matches_dict_lp(lib, table, name, across):
    net = map_graph(CIRCUITS[name](), lib, table, retime=False).before
    edges_in = net.retiming_edges()
    if across:
        after = retime_min_registers(net, allow_across_splitters=True)
        want = reference_retimed_weights(net)
        assert [w for _, _, w in after.retiming_edges()] == want
        assert all(type(w) is int for i in after.instances for w in i.pads)
        assert all(type(w) is int for w in after.po_pads)
    else:  # splitters pinned to their drivers: refused
        with pytest.raises(ValueError, match="pinned"):
            retime_min_registers(net, allow_across_splitters=False)
    # the input network is left as it was
    assert net.retiming_edges() == edges_in


def parallel_edge_net(lib):
    """Two PIs into one AND, one of them through two DFFs: the host has two
    edges of different weight into the AND."""
    and2 = next(c for c in lib.cells if c.name == "and2")
    net = MappedNetwork(name="parallel")
    a, b = net.add_pi("a"), net.add_pi("b")
    f = net.add_gate(and2, [a, b])
    net.add_po(f, "f")
    net.instances[0].pads = [0, 2]
    net.po_pads = [1]
    return net


@pytest.mark.parametrize("name", [*CIRCUITS, "parallel"])
def test_lag_window_is_the_rows_fixpoint(lib, table, name):
    net = (parallel_edge_net(lib) if name == "parallel" else
           map_graph(CIRCUITS[name](), lib, table, retime=False).before)
    host = len(net.instances)
    edges = net.retiming_edges()
    index = {"host": host, **{("inst", v): v for v in range(host)}}
    tail, head, weight = (np.array(col) for col in zip(
        *((index[t], index[h], w) for t, h, w in edges)))
    lo, hi = lag_window(tail, head, weight, host)
    want = reference_window(edges)
    got = {("inst", v): (lo[v], hi[v]) for v in range(host)
           if ("inst", v) in want}
    got["host"] = (lo[host], hi[host])
    assert got == want


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
@pytest.mark.parametrize("across", [True, False])
def test_window_keeps_the_optimum(lib, table, clocked_lib, clocked_table,
                                  lib_name, across):
    if lib_name == "clocked_inv":
        lib, table = clocked_lib, clocked_table
    for make in CIRCUITS.values():
        net = map_graph(make(), lib, table, retime=False).before
        if not across:  # splitters pinned to their drivers: refused
            with pytest.raises(ValueError, match="pinned"):
                retime_min_registers(net, allow_across_splitters=False)
            continue
        after = retime_min_registers(net, allow_across_splitters=True)
        free = reference_retimed_weights(net, bounded=False)
        assert after.dff_total == sum(free), net.name


def alap_network(net):
    """``net`` retimed by ``r = hi``: every instance as late as the rows
    allow, so no register can move any further toward the outputs."""
    edges = net.retiming_edges()
    window = reference_window(edges)
    return with_edge_weights(net, [w + window[head][1] - window[tail][1]
                                   for tail, head, w in edges])


@pytest.mark.parametrize("name, alap_dffs, optimum", [
    ("ksa16", 494, 225), ("alu8", 666, 270), ("rand200", 866, 441)])
def test_retiming_an_alap_input_reaches_the_optimum(lib, table, name,
                                                    alap_dffs, optimum):
    # a window of [0, hi] would hold for the ASAP networks map_graph builds
    # but freeze every lag here, where each hi is 0
    alap = alap_network(map_graph(CIRCUITS[name](), lib, table,
                                  retime=False).before)
    alap.validate()
    assert alap.dff_total == alap_dffs
    after = retime_min_registers(alap)
    after.validate()
    assert after.dff_total == optimum


def test_lp_size_logged_at_debug(lib, table, caplog):
    net = map_graph(bench.kogge_stone_adder(16), lib, table,
                    retime=False).before
    with caplog.at_level(logging.DEBUG, logger="pbmap.retime"):
        retime_min_registers(net)
    (rec,) = [r for r in caplog.records if r.name == "pbmap.retime"]
    assert rec.levelno == logging.DEBUG
    rows, cols, fixed, nit, secs = rec.args[1:]
    edges = net.retiming_edges()
    assert rows == sum(1 for t, h, _ in edges if (t, h) != ("host", "host"))
    assert cols == len({v for t, h, _ in edges for v in (t, h)} - {"host"})
    assert 0 < fixed < cols
    assert nit >= 0 and secs >= 0
