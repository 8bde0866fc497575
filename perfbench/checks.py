"""Output checks: every mapped network, before and after retiming, must be
balanced, splitter-legal and compute its subject graph's function on
random patterns.  The reference is always a subject graph, never the
mapper's own output."""

from __future__ import annotations

import random

from pbmap.balance import MappedNetwork
from pbmap.netlist import SubjectGraph

PATTERNS = 4096  # bit-parallel: one Python int per signal


class CheckError(Exception):
    pass


def _pi_patterns(g: SubjectGraph, rng: random.Random) -> dict[str, int]:
    return {g.pi_names[pid]: rng.getrandbits(PATTERNS) for pid in g.pis}


def _simulate_graph(g: SubjectGraph, by_name: dict[str, int]) -> dict[str, int]:
    mask = (1 << PATTERNS) - 1
    vals = g.simulate({pid: by_name[g.pi_names[pid]] for pid in g.pis})
    return {name: v & mask for name, v in zip(g.po_names, vals)}


def check_circuit(seed: int, name: str, generated: SubjectGraph,
                  parsed: SubjectGraph, nets: dict[str, MappedNetwork]):
    """Raise CheckError on the first wrong output of ``nets`` (label -> net).

    The parsed graph is checked against the generator's graph as well, so a
    parser fault cannot hide behind a mapper that faithfully maps it."""
    rng = random.Random(f"{seed}:{name}")
    pats = _pi_patterns(generated, rng)
    if sorted(pats) != sorted(parsed.pi_names[p] for p in parsed.pis):
        raise CheckError(f"{name}: parsed PIs differ from the generated ones")
    expected = _simulate_graph(generated, pats)
    if _simulate_graph(parsed, pats) != expected:
        raise CheckError(f"{name}: parsed graph differs from the generated one")
    mask = (1 << PATTERNS) - 1
    for label, net in nets.items():
        net.validate()
        got = net.simulate([pats[n] for n in net.pi_names], mask)
        if got != expected:
            bad = sorted(po for po in expected if got.get(po) != expected[po])
            raise CheckError(f"{name} ({label}): {len(bad)} POs differ, "
                             f"first {bad[0] if bad else '?'}")
