"""Register relocation: retimed DFF counts for single matches and global
min-register retiming of a balanced mapped network.

A match is a tree of clocked cells.  Balancing it for given leaf arrival
heights needs, along each leaf-to-root path, exactly
``max(arrival) - arrival`` registers; registers on shared internal edges
serve every leaf below them, so pushing common slack upward (the retimed
form) minimizes the count.
"""

from __future__ import annotations

from scipy.optimize import linprog
from scipy.sparse import csr_matrix


def retimed_match_dffs(supergate, leaf_heights) -> int:
    """Minimum DFFs to balance a supergate whose leaves arrive at the given
    clocked heights, with registers placed anywhere inside the match."""
    if len(leaf_heights) != supergate.n_inputs:
        raise ValueError("leaf height count does not match supergate inputs")
    arrivals = [h + d for h, d in zip(leaf_heights, supergate.leaf_depths)]
    target = max(arrivals)

    leaf_pos = iter(range(supergate.n_inputs))

    def walk(child):
        """Returns (registers_placed_below, residual_common_slack)."""
        if isinstance(child, int):  # leaf variable
            i = next(leaf_pos)
            return 0, target - arrivals[i]
        total = 0
        residuals = []
        for sub in child.children:
            regs, res = walk(sub)
            total += regs
            residuals.append(res)
        common = min(residuals)
        total += sum(r - common for r in residuals)
        return total, common

    regs, residual = walk(supergate)
    # the latest leaf has zero slack, so nothing is left to hoist at the root
    assert residual == 0
    return regs


def push_to_last_level_check(h: int, x: int) -> tuple[int, int, bool]:
    """Compare the two buffer-contribution sums for a node pushed from level
    ``x`` to the last level ``h``; both must equal ``2^(h-x+1) - 2``."""
    if not 1 <= x < h:
        raise ValueError("requires 1 <= x < h")
    per_child_sum = 2 * sum(2 ** j for j in range(0, h - x))          # 2*(2^{h-x-1}+...+1)
    per_level_sum = sum(2 ** j for j in range(1, h - x + 1))          # 2^{h-x}+...+2
    closed = 2 ** (h - x + 1) - 2
    return per_child_sum, per_level_sum, per_child_sum == per_level_sum == closed


# ----------------------------------------------------------------------
# global min-register retiming on a mapped network
# ----------------------------------------------------------------------


def retime_min_registers(net, allow_across_splitters: bool = True):
    """Minimize the total DFF count of a balanced MappedNetwork by register
    relocation, preserving function and every PI-to-PO clocked path length.

    Solved as the LP relaxation of the min-register retiming problem
    (difference constraints; the constraint matrix is totally unimodular, so
    the LP optimum is integral).  Returns a new MappedNetwork.
    """
    edges = net.retiming_edges()  # list of (tail_vertex, head_vertex, weight)
    vertices = sorted({v for t, h, _ in edges for v in (t, h)} - {"host"})
    if not vertices:
        return net.copy()
    vidx = {v: i for i, v in enumerate(vertices)}
    nvar = len(vertices)

    # minimize sum_e w_r(e) = W + sum_v r(v) * (indeg(v) - outdeg(v))
    cost = [0.0] * nvar
    a_ub, b_ub = [], []
    for tail, head, w in edges:
        if head != "host" and head in vidx:
            cost[vidx[head]] += 1.0
        if tail != "host" and tail in vidx:
            cost[vidx[tail]] -= 1.0
        # legality: w + r(head) - r(tail) >= 0  ->  r(tail) - r(head) <= w
        row = {}
        if tail != "host":
            row[vidx[tail]] = row.get(vidx[tail], 0.0) + 1.0
        if head != "host":
            row[vidx[head]] = row.get(vidx[head], 0.0) - 1.0
        if row:
            a_ub.append(row)
            b_ub.append(float(w))
    if not allow_across_splitters:
        # pin each splitter's lag to its driver's lag
        for s, d in net.splitter_driver_pairs():
            for a, b in ((s, d), (d, s)):
                row = {}
                if a != "host":
                    row[vidx[a]] = 1.0
                if b != "host":
                    row[vidx[b]] = row.get(vidx[b], 0.0) - 1.0
                a_ub.append(row)
                b_ub.append(0.0)

    rows, cols, vals = [], [], []
    for i, row in enumerate(a_ub):
        for j, v in row.items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
    a = csr_matrix((vals, (rows, cols)), shape=(len(a_ub), nvar))
    res = linprog(cost, A_ub=a, b_ub=b_ub, bounds=[(None, None)] * nvar,
                  method="highs")
    if not res.success:  # identity retiming is always feasible
        raise RuntimeError(f"retiming LP failed: {res.message}")
    r = {v: int(round(x)) for v, x in zip(vertices, res.x)}
    r["host"] = 0

    new_weights = []
    for tail, head, w in edges:
        wr = w + r.get(head, 0) - r.get(tail, 0)
        if wr < 0:
            raise RuntimeError("retiming produced a negative edge weight")
        new_weights.append(wr)
    if sum(new_weights) > sum(w for _, _, w in edges):
        raise RuntimeError("retiming increased the register count")
    return net.with_edge_weights(new_weights)
