"""Register relocation: global min-register retiming of a balanced mapped
network.  The retimed DFF count of a single match is
``library.retimed_match_dffs``."""

from __future__ import annotations

import logging
import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# global min-register retiming on a mapped network
# ----------------------------------------------------------------------


def lag_window(tail, head, weight, host):
    """The lag window ``lo <= r <= hi`` that the legality rows
    ``r(tail) - r(head) <= weight`` imply, per vertex ``0..host``:
    ``hi(v)`` is the fewest DFFs on any path from ``v`` to the host,
    ``lo(v)`` minus the fewest on any path from the host to ``v`` (``inf``
    where no path exists).  Every edge between instances runs from a lower
    vertex to a higher one, as a MappedNetwork's instance list is in
    topological order, so both are one walk up the vertices and one
    back."""
    inf = float("inf")
    down = [inf] * (host + 1)  # fewest DFFs from the host
    up = [inf] * (host + 1)    # fewest DFFs to the host
    down[host] = up[host] = 0
    out = [[] for _ in range(host)]
    for t, h, w in zip(tail.tolist(), head.tolist(), weight.tolist()):
        if t == host:
            down[h] = min(down[h], w)
        elif h == host:
            up[t] = min(up[t], w)
        else:
            out[t].append((h, w))
    for v in range(host):
        dv = down[v]
        for h, w in out[v]:
            if dv + w < down[h]:
                down[h] = dv + w
    for v in reversed(range(host)):
        for h, w in out[v]:
            if w + up[h] < up[v]:
                up[v] = w + up[h]
    return -np.array(down, dtype=float), np.array(up, dtype=float)


def retime_min_registers(net, allow_across_splitters: bool = True):
    """Minimize the total DFF count of a MappedNetwork that passes
    ``validate`` by register relocation, preserving function and every
    PI-to-PO clocked path length.

    Solved as the LP relaxation of the min-register retiming problem
    (difference constraints; the constraint matrix is totally unimodular, so
    the LP optimum is integral).  Vertices are instance indices, with PIs
    and POs on one fixed host vertex so I/O latency is pinned; one row per
    edge, instance pins in list order, then POs (host-to-host edges left
    out), one column per instance in list order, since every instance
    heads its fanin edges.  Each column is bounded by its ``lag_window``:
    the bounds follow from the rows, so the feasible set and the optimum
    are unchanged and HiGHS only takes a shorter path to it.  Returns a new MappedNetwork with the new pads.
    Registers move across splitters; ``allow_across_splitters=False`` raises.
    """
    if not allow_across_splitters:
        raise ValueError("splitters cannot be pinned to their drivers")
    host = len(net.instances)
    if not host:
        return net.copy()
    insts = net.instances
    vertex = np.array(net.driver, dtype=np.int64)  # per signal
    vertex[vertex < 0] = host
    tail = vertex[np.array([f for i in insts for f in i.fanins] + net.pos,
                           dtype=np.intp)]
    head = np.array([v for v, i in enumerate(insts) for _ in i.fanins]
                    + [host] * len(net.pos), dtype=np.int64)
    weight = np.array([p for i in insts for p in i.pads] + net.po_pads,
                      dtype=np.int64)
    lo, hi = lag_window(tail, head, weight, host)
    bounds = np.column_stack([lo[:host], hi[:host]])

    # minimize sum_e w_r(e) = W + sum_v r(v) * (indeg(v) - outdeg(v))
    cost = (np.bincount(head, minlength=host + 1)
            - np.bincount(tail, minlength=host + 1))[:host].astype(float)

    # legality: w + r(head) - r(tail) >= 0  ->  r(tail) - r(head) <= w;
    # a row holds its tail entry, then its head entry, each unless host
    pair = np.stack([tail, head], axis=1)
    keep = (pair != host).any(axis=1)  # a host-host edge constrains nothing
    pair = pair[keep]
    rows, side = np.nonzero(pair != host)  # row-major: tail, then head
    vals = 1.0 - 2.0 * side  # +1 at the tail, -1 at the head
    a = csr_matrix((vals, (rows, pair[rows, side])), shape=(len(pair), host))
    b_ub = weight[keep].astype(float)
    start = time.perf_counter()
    res = linprog(cost, A_ub=a, b_ub=b_ub, bounds=bounds, method="highs")
    log.debug("retiming LP %s: %d rows, %d columns (%d zero-width), "
              "%d iterations, %.4f s", net.name, len(pair), host,
              int((bounds[:, 0] == bounds[:, 1]).sum()), res.nit,
              time.perf_counter() - start)
    if not res.success:  # identity retiming is always feasible
        raise RuntimeError(f"retiming LP failed: {res.message}")
    lag = np.zeros(host + 1, dtype=np.int64)
    lag[:host] = np.rint(res.x)

    new = weight + lag[head] - lag[tail]
    if (new < 0).any():
        raise RuntimeError("retiming produced a negative edge weight")
    if new.sum() > weight.sum():
        raise RuntimeError("retiming increased the register count")
    after, new, at = net.copy(), new.tolist(), 0
    for inst in after.instances:
        inst.pads = new[at:at + len(inst.pads)]
        at += len(inst.pads)
    after.po_pads = new[at:]
    return after
