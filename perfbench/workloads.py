"""The benchmark's workloads: seeded circuits written as BLIF text, and the
cell library each workload maps them with.

The mapper only ever sees the BLIF text.  Parsing re-hashes the structure,
which moves QoR (ksa64 retimes to 1481 DFFs from its BLIF, to 1465 from the
generator's graph), so the generator's graph is never mapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from pbmap import bench
from pbmap.netlist import SubjectGraph, random_aig, write_blif

HERE = Path(__file__).resolve().parent
BUNDLED_GENLIB = HERE.parent / "src" / "pbmap" / "data" / "sfq.genlib"
CLOCKED_INV_GENLIB = HERE / "clocked_inv.genlib"


@dataclass(frozen=True)
class Circuit:
    name: str            # also the BLIF file stem, so the CLI reports it
    blif: str            # the program's input
    graph: SubjectGraph  # the generator's graph, kept as a second reference


@dataclass(frozen=True)
class Workload:
    name: str
    genlib: Path
    circuits: list[Circuit]

    @property
    def genlib_is_bundled(self) -> bool:
        return self.genlib == BUNDLED_GENLIB


def _circuit(name: str, g: SubjectGraph) -> Circuit:
    return Circuit(name, write_blif(g), g)


def _prefix_circuits(seed: int) -> list[Circuit]:
    # n_pos=None keeps every sink as a PO; a fixed PO count would sweep most
    # of the random graph away as dangling logic
    return [_circuit("ksa64", bench.kogge_stone_adder(64)),
            _circuit("ksa32", bench.kogge_stone_adder(32)),
            _circuit("rand600", random_aig(600, 24, seed=seed, n_pos=None))]


def _datapath_circuits() -> list[Circuit]:
    # fixed structure; the seed only draws the simulation patterns.  rca1024
    # and alternating_chain(500) would belong here but raise RecursionError
    # in the cover extraction, so they stay out until those traversals are
    # iterative: a circuit that fails at the parent has no QoR to compare.
    return [_circuit("bshift128", bench.barrel_shifter(128)),
            _circuit("alu64", bench.alu(64)),
            _circuit("rca256", bench.ripple_adder(256))]


def build(name: str, seed: int) -> Workload:
    if name == "prefix":
        return Workload(name, BUNDLED_GENLIB, _prefix_circuits(seed))
    if name == "datapath":
        return Workload(name, BUNDLED_GENLIB, _datapath_circuits())
    if name == "clocked_inv":
        return Workload(name, CLOCKED_INV_GENLIB, _prefix_circuits(seed))
    raise ValueError(f"unknown workload '{name}'")

