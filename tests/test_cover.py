"""Translation validation of the cover, match by match (Pnueli, Siegel &
Singerman, "Translation validation", TACAS 1998).

The witness is the ``Cover`` and the signal ``instantiate`` gives each of its
keys.  For every chosen match, the cells between its key's signal and its
leaves' signals, simulated as truth tables, must compute the match's cone of
the subject graph, complemented for a negative phase; PIs map to PIs and each
PO reads the key of its own (driver, phase).  By induction over the matches'
order that proves the mapped logic equal to the subject graph at any size,
where random patterns miss deep carries.  The check reads no DP state."""

import dataclasses
import re

import pytest

from pbmap import bench
from pbmap.cuts import cone_function, enumerate_cuts
from pbmap.mapper import NEG, POS, Cover, choose_cover, map_dag
from pbmap.netlist import CONST0, parse_netlist, random_aig, write_blif
from pbmap.truthtable import (apply_cell, symmetry_perms, table_mask, tt_not,
                              var_table)
from test_golden_qor import CIRCUITS

# the benchmark's circuits, at its seed 1
BENCHMARK = {
    "ksa64": lambda: bench.kogge_stone_adder(64),
    "ksa32": lambda: bench.kogge_stone_adder(32),
    "rand600": lambda: random_aig(600, 24, seed=1, n_pos=None),
    "bshift128": lambda: bench.barrel_shifter(128),
    "alu64": lambda: bench.alu(64),
    "rca256": lambda: bench.ripple_adder(256),
}


def region_function(net, root: int, leaf_sigs: list[int]) -> int:
    """Truth table of signal ``root`` over ``leaf_sigs``, by simulating
    with ``apply_cell`` the cells between them; a walk that reaches a PI
    outside the leaves fails."""
    n = len(leaf_sigs)
    tts = {sig: var_table(i, n) for i, sig in enumerate(leaf_sigs)}
    stack = [root]
    while stack:
        sig = stack[-1]
        if sig in tts:
            stack.pop()
            continue
        assert net.driver[sig] >= 0, f"signal {sig} reaches a PI"
        inst = net.instances[net.driver[sig]]
        missing = [f for f in inst.fanins if f not in tts]
        if missing:
            stack += missing
            continue
        stack.pop()
        tts[sig] = apply_cell(inst.cell.func, [tts[f] for f in inst.fanins],
                              table_mask(n))
    return tts[root]


def check_cover(cover: Cover) -> int:
    """Validate ``cover`` against its subject graph; the matches checked."""
    g = cover.graph
    net, sig_of = cover.instantiate()
    # PI k is signal k
    assert [sig_of[pid, POS, 0] for pid in g.pis] == list(range(len(g.pis)))
    assert net.pi_names == [g.pi_names[pid] for pid in g.pis]
    for key, match in cover.matches.items():
        node, phase, _ = key
        leaf_sigs = [sig_of[leaf, POS, point.height]
                     for leaf, point in zip(match.leaves, match.inputs)]
        want = cone_function(g, node, match.leaves)
        if phase == NEG:
            want = tt_not(want, len(leaf_sigs))
        assert region_function(net, sig_of[key], leaf_sigs) == want, key
    pos = [(name, p, c, key) for name, (p, c), key
           in zip(g.po_names, g.pos, cover.po_keys)]
    for _, p, c, key in pos:  # each PO reads its own (driver, phase)
        assert (key is None if p == CONST0
                else key[:2] == (p, NEG if c else POS))
    assert net.pos == [sig_of[key] for *_, key in pos if key is not None]
    assert net.po_names == [name for name, p, *_ in pos if p != CONST0]
    assert net.const_pos == [(k, name, bool(c)) for k, (name, p, c, _)
                             in enumerate(pos) if p == CONST0]
    return len(cover.matches)


def chosen_cover(g, table) -> Cover:
    return choose_cover(map_dag(g, enumerate_cuts(g, k=5), table), g)


@pytest.mark.parametrize("lib_name", ["bundled", "clocked_inv"])
@pytest.mark.parametrize("name", [*CIRCUITS, *BENCHMARK])
def test_every_match_computes_its_cone(table, clocked_table, lib_name, name):
    make = CIRCUITS.get(name) or BENCHMARK[name]
    g = parse_netlist(write_blif(make()))
    cover = chosen_cover(g, table if lib_name == "bundled" else clocked_table)
    assert check_cover(cover) > 0


def test_swapped_leaves_of_an_asymmetric_match_are_caught(table):
    g = parse_netlist(write_blif(CIRCUITS["ksa16"]()))
    cover = chosen_cover(g, table)
    check_cover(cover)
    key, match = next(
        (key, m) for key, m in cover.matches.items()
        if m.supergate.n_inputs >= 2
        and (1, 0, *range(2, m.supergate.n_inputs)) not in symmetry_perms(
            m.supergate.func, m.supergate.n_inputs))
    mutated = dict(cover.matches)
    mutated[key] = dataclasses.replace(
        match, inputs=(match.inputs[1], match.inputs[0], *match.inputs[2:]),
        leaves=(match.leaves[1], match.leaves[0], *match.leaves[2:]))
    with pytest.raises(AssertionError, match=f"^{re.escape(str(key))}"):
        check_cover(dataclasses.replace(cover, matches=mutated))
