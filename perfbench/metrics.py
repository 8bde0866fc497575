"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same names.  Its schema has no room for the
prediction each per-layer metric carries, so ``moves`` is kept here: the
end-to-end metric a change to that layer should move, and the workload
where it should move most.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("map_s", "s", "lower"),
    Metric("cli_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("dffs_before", "DFFs", "lower"),
    Metric("dffs_after", "DFFs", "lower"),
    Metric("jj_total", "JJ", "lower"),
    Metric("splitters", "cells", "lower"),
    Metric("depth", "levels", "lower"),
    # fail_rate is 0 whenever the mapper works, and a metric that reads 0
    # has no relative spread, so its complement is reported instead
    Metric("ok_rate", "ratio", "higher"),
)

PER_LAYER = (
    Metric("netlist.parse_s", "s", "lower", "map_s on datapath"),
    Metric("netlist.ands", "count", "lower", "none (input size)"),
    Metric("library.parse_s", "s", "lower", "setup_s and cli_s, all workloads"),
    Metric("library.table_s", "s", "lower", "setup_s and cli_s, all workloads"),
    Metric("library.supergates", "count", "higher",
           "setup_s; only clocked_inv reaches the budget"),
    Metric("library.budget_exhausted", "count", "lower",
           "setup_s on clocked_inv"),
    Metric("library.hit_rate", "ratio", "higher",
           "dffs_after and map_s, all workloads"),
    Metric("cuts.enumerate_s", "s", "lower",
           "map_s and peak_rss_mb on datapath, then prefix"),
    Metric("cuts.functions_s", "s", "lower",
           "map_s and peak_rss_mb on datapath, then prefix"),
    Metric("cuts.count", "count", "lower", "map_s and peak_rss_mb on datapath"),
    Metric("cuts.truncated", "count", "lower", "dffs_after on any workload"),
    Metric("mapper.dp_s", "s", "lower", "map_s on prefix more than datapath"),
    Metric("mapper.select_s", "s", "lower", "map_s on prefix"),
    Metric("mapper.cover_s", "s", "lower", "map_s on datapath (rca256)"),
    Metric("mapper.frontier_points", "count", "lower",
           "map_s and dffs_after on clocked_inv only"),
    Metric("mapper.multi_point_nodes", "count", "lower",
           "map_s and dffs_after on clocked_inv only"),
    Metric("mapper.neg_phase_solved", "count", "lower",
           "map_s via cover_s, all workloads"),
    Metric("balance.splitters_s", "s", "lower", "map_s on datapath"),
    Metric("balance.balancing_s", "s", "lower", "map_s on datapath"),
    Metric("balance.validate_s", "s", "lower", "map_s on datapath"),
    Metric("balance.emit_s", "s", "lower",
           "map_s on datapath, where write_blif expands 10^5+ DFFs"),
    Metric("balance.instances", "count", "lower", "jj_total and splitters"),
    Metric("balance.po_pad_dffs", "count", "lower", "dffs_before"),
    Metric("retime.lp_s", "s", "lower", "map_s on datapath"),
    Metric("retime.edges", "count", "lower", "map_s via retime.lp_s on datapath"),
    Metric("retime.vertices", "count", "lower",
           "map_s via retime.lp_s on datapath"),
    Metric("retime.dff_ratio", "ratio", "lower", "dffs_after, all workloads"),
    Metric("flow.pass_s", "s", "lower",
           "map_s; the base of each layer's share of a traced pass"),
    Metric("flow.trace_overhead", "ratio", "lower",
           "none; the cost of tracing itself"),
)
