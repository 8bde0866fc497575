"""Path-balancing insertion on a mapped cover.

A MappedNetwork holds primitive cell instances; balancing DFFs live as
integer weights on edges, not as instances, so retiming is a pure
edge-weight transformation.  Clocked gates and DFFs contribute one level
each; splitters are asynchronous and contribute none.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .library import Cell, CellLibrary
from .truthtable import apply_cell


class BalanceError(Exception):
    pass


@dataclass
class Instance:
    idx: int
    cell: Cell
    fanins: list[int]
    outs: list[int]

    @property
    def out(self) -> int:
        return self.outs[0]


# edge keys: (sig, ("inst", idx, pin)) or (sig, ("po", po_index))


@dataclass
class MappedNetwork:
    name: str = "top"
    pi_names: list[str] = field(default_factory=list)
    pi_sigs: list[int] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    pos: list[int] = field(default_factory=list)  # driving signal per PO
    po_names: list[str] = field(default_factory=list)
    const_pos: list[tuple[str, bool]] = field(default_factory=list)
    dff: dict = field(default_factory=dict)  # edge -> register count
    depth: int = 0  # clocked level every PO arrives at once balanced
    dff_cell: Cell | None = None
    splitter_cell: Cell | None = None

    def __post_init__(self):
        self._next_sig = 0
        self.driver: dict[int, tuple] = {}
        self._topo: list[Instance] | None = None  # see topo_instances

    # -- construction --------------------------------------------------

    def add_pi(self, name: str) -> int:
        sig = self._next_sig
        self._next_sig += 1
        self.pi_names.append(name)
        self.pi_sigs.append(sig)
        self.driver[sig] = ("pi", len(self.pi_sigs) - 1)
        return sig

    def add_gate(self, cell: Cell, fanins: list[int]) -> int:
        idx = len(self.instances)
        first = self._next_sig
        self._next_sig += 2 if cell.kind == "splitter" else 1
        outs = list(range(first, self._next_sig))
        inst = Instance(idx, cell, list(fanins), outs)
        self.instances.append(inst)
        self._topo = None
        for slot, sig in enumerate(outs):
            self.driver[sig] = ("inst", idx, slot)
        return outs[0]

    def add_po(self, sig: int, name: str):
        self.pos.append(sig)
        self.po_names.append(name)

    def add_const_po(self, name: str, value: bool):
        self.const_pos.append((name, value))

    # -- topology ------------------------------------------------------

    def consumers(self) -> dict[int, list[tuple]]:
        out: dict[int, list[tuple]] = {}
        for sig, consumer in self.edge_list():
            out.setdefault(sig, []).append(consumer)
        return out

    def topo_instances(self) -> list[Instance]:
        """The instances in Kahn's order, lowest index first among the ready
        ones.  Computed once per structure and shared by every caller:
        ``add_gate`` and ``_rewire`` drop it, ``copy`` carries it."""
        if self._topo is None:
            n = len(self.instances)
            indeg = [0] * n
            deps: list[list[int]] = [[] for _ in range(n)]
            for inst in self.instances:
                for sig in inst.fanins:
                    drv = self.driver[sig]
                    if drv[0] == "inst":
                        indeg[inst.idx] += 1
                        deps[drv[1]].append(inst.idx)
            ready = [i for i in range(n) if not indeg[i]]
            heapq.heapify(ready)
            order = []
            while ready:
                i = heapq.heappop(ready)
                order.append(self.instances[i])
                for j in deps[i]:
                    indeg[j] -= 1
                    if not indeg[j]:
                        heapq.heappush(ready, j)
            if len(order) != n:
                raise BalanceError("mapped network contains a cycle")
            self._topo = order
        return self._topo

    def edge_list(self) -> list[tuple]:
        """All (sig, consumer) edges in a fixed deterministic order."""
        edges = []
        for inst in self.instances:
            for pin, sig in enumerate(inst.fanins):
                edges.append((sig, ("inst", inst.idx, pin)))
        for i, sig in enumerate(self.pos):
            edges.append((sig, ("po", i)))
        return edges

    def arrivals(self, balanced: bool = False) -> dict[int, int]:
        """Clocked level of every signal: 0 at a PI; at a cell's outputs the
        latest fanin arrival including its edge DFFs, plus one if clocked.
        With ``balanced``, a cell whose fanins do not arrive together raises
        BalanceError."""
        h = {sig: 0 for sig in self.pi_sigs}
        dff = self.dff
        for inst in self.topo_instances():
            idx = inst.idx
            arrs = [h[f] + dff.get((f, ("inst", idx, pin)), 0)
                    for pin, f in enumerate(inst.fanins)]
            arr = max(arrs)
            if balanced and min(arrs) != arr:
                raise BalanceError(
                    f"unbalanced fanins at {inst.cell.name} #{idx}: {arrs}")
            arr += inst.cell.is_clocked
            for sig in inst.outs:
                h[sig] = arr
        return h

    # -- splitter insertion --------------------------------------------

    def insert_splitters(self, lib: CellLibrary):
        """Give every multi-fanout signal a chain-shaped splitter tree with
        the most DFF-critical sink nearest the source; f-1 splitters per
        f-fanout signal."""
        self.splitter_cell = lib.splitter
        self.dff_cell = lib.dff
        if self.splitter_cell is None or self.dff_cell is None:
            raise BalanceError("library lacks splitter or DFF cell")
        h = self.arrivals()
        cons = self.consumers()
        po_height = max((h[s] for s in self.pos), default=0)
        # estimated DFFs each sink's edge would need, snapshotted before any
        # rewiring: fewer = more critical.  A cell's latest fanin arrives
        # at its output's arrival less its clock.
        gate_target = {inst.idx: h[inst.out] - inst.cell.is_clocked
                       for inst in self.instances}

        def criticality(sig, key):
            if key[0] == "po":
                return (po_height - h[sig], 1, key[1])
            return (gate_target[key[1]] - h[sig], 0, key[1])

        for sig in sorted(cons):
            sinks = cons[sig]
            if len(sinks) < 2:
                continue
            sinks = sorted(sinks, key=lambda c: criticality(sig, c))
            cur = sig
            for sink in sinks[:-1]:
                self.add_gate(self.splitter_cell, [cur])
                sp = self.instances[-1]
                self._rewire(sink, sp.outs[0])
                cur = sp.outs[1]
            self._rewire(sinks[-1], cur)

    def _rewire(self, consumer_key, new_sig):
        self._topo = None
        if consumer_key[0] == "inst":
            _, idx, pin = consumer_key
            self.instances[idx].fanins[pin] = new_sig
        else:
            self.pos[consumer_key[1]] = new_sig

    # -- DFF insertion -------------------------------------------------

    def insert_balancing(self):
        """Per-gate fanin equalization plus PO padding; sets ``depth``.
        Padding a fanin up to the latest one moves no arrival, so one walk
        of the unpadded network gives every pad."""
        self.dff = {}
        h = self.arrivals()
        for inst in self.instances:
            target = h[inst.out] - inst.cell.is_clocked  # the latest fanin
            for pin, f in enumerate(inst.fanins):
                if h[f] < target:
                    self.dff[(f, ("inst", inst.idx, pin))] = target - h[f]
        self.depth = max((h[s] for s in self.pos), default=0)
        for i, sig in enumerate(self.pos):
            if h[sig] < self.depth:
                self.dff[(sig, ("po", i))] = self.depth - h[sig]
        return self

    # -- metrics -------------------------------------------------------

    @property
    def dff_total(self) -> int:
        return sum(self.dff.values())

    @property
    def po_pad_dffs(self) -> int:
        return sum(w for (s, c), w in self.dff.items() if c[0] == "po")

    @property
    def splitter_count(self) -> int:
        return sum(1 for i in self.instances if i.cell.kind == "splitter")

    @property
    def area(self) -> float:
        a = sum(i.cell.area for i in self.instances)
        if self.dff_cell:
            a += self.dff_total * self.dff_cell.area
        return a

    @property
    def jj_count(self) -> int:
        j = sum(i.cell.jj_count for i in self.instances)
        if self.dff_cell:
            j += self.dff_total * self.dff_cell.jj_count
        return j

    # -- validation ----------------------------------------------------

    def validate(self):
        """Every cell's fanins arrive together (checked by the arrival
        walk), every PO arrives at ``depth`` and no signal is read twice,
        i.e. has fanout above one.  Retiming keeps every PI-to-PO register
        count, so a retimed network keeps its depth."""
        h = self.arrivals(balanced=True)
        po_arr = {h[s] + self.dff.get((s, ("po", i)), 0)
                  for i, s in enumerate(self.pos)}
        if po_arr - {self.depth}:
            raise BalanceError(f"PO arrivals {sorted(po_arr)} differ from "
                               f"depth {self.depth}")
        reads = [f for inst in self.instances for f in inst.fanins] + self.pos
        if len(set(reads)) < len(reads):
            sig, n = next((sig, n) for sig, n in Counter(reads).items()
                          if n > 1)
            raise BalanceError(f"signal {sig} has fanout {n} after splitter "
                               "insertion")
        return True

    # -- simulation ----------------------------------------------------

    def simulate(self, pi_values: list[int], mask: int) -> dict[str, int]:
        """Bit-parallel combinational evaluation; DFFs and splitters act as
        wires.  Returns {po_name: packed value}."""
        vals = dict(zip(self.pi_sigs, pi_values))
        for inst in self.topo_instances():
            ins = [vals[f] for f in inst.fanins]
            if inst.cell.kind in ("dff", "splitter"):
                v = ins[0]
            else:
                v = apply_cell(inst.cell.func, ins, mask)
            for sig in inst.outs:
                vals[sig] = v
        out = {name: vals[sig] for name, sig in zip(self.po_names, self.pos)}
        for name, value in self.const_pos:
            out[name] = mask if value else 0
        return out

    # -- retiming interface --------------------------------------------

    def retiming_edges(self) -> list[tuple]:
        """(tail_vertex, head_vertex, weight) triples; PIs and POs attach to
        the fixed 'host' vertex so I/O latency is pinned."""
        edges = []
        for sig, consumer in self.edge_list():
            drv = self.driver[sig]
            tail = "host" if drv[0] == "pi" else ("inst", drv[1])
            head = "host" if consumer[0] == "po" else ("inst", consumer[1])
            edges.append((tail, head, self.dff.get((sig, consumer), 0)))
        return edges

    def copy(self) -> "MappedNetwork":
        net = MappedNetwork(name=self.name)
        net.pi_names = list(self.pi_names)
        net.pi_sigs = list(self.pi_sigs)
        net.instances = [Instance(i.idx, i.cell, list(i.fanins), list(i.outs))
                         for i in self.instances]
        net.pos = list(self.pos)
        net.po_names = list(self.po_names)
        net.const_pos = list(self.const_pos)
        net.dff = dict(self.dff)
        net.depth = self.depth
        net.dff_cell = self.dff_cell
        net.splitter_cell = self.splitter_cell
        net._next_sig = self._next_sig
        net.driver = dict(self.driver)
        if self._topo is not None:
            net._topo = [net.instances[i.idx] for i in self._topo]
        return net

    # -- emission ------------------------------------------------------

    def _io_names(self) -> set[str]:
        return (set(self.pi_names) | set(self.po_names)
                | {name for name, _ in self.const_pos})

    def _net_names(self, io: set[str]) -> list[str]:
        """Every signal's net name, indexed by signal: a PI's own name, else
        ``n<sig>``."""
        names = _free_names([f"n{sig}" for sig in range(self._next_sig)], io)
        for name, sig in zip(self.pi_names, self.pi_sigs):
            names[sig] = name
        return names

    def _records(self, io: set[str], names: list[str]):
        """The netlist in file order, shared by both writers: a ``(cell,
        labels, rows)`` record per instance and per edge's DFF chain (just
        before its consumer), with a label and a row of nets, in the order
        of ``_ports(cell)``, per cell written; then a ``(None, name, net)``
        record per PO.  A chain's DFFs drive ``pbd<n>``, numbered in file
        order, each reading the one before.  A PO named like a PI but
        driven by another net raises BalanceError: the net would have two
        drivers."""
        if self.dff and self.dff_cell is None:
            raise BalanceError("network has DFFs but no DFF cell")
        dff, first = self.dff, 0

        def chain(sig, consumer):
            """The DFF chain record of one edge (None if it has no DFF) and
            the net the consumer reads."""
            nonlocal first
            src = names[sig]
            n = dff.get((sig, consumer))
            if not n:
                return None, src
            qs = _free_names([f"pbd{i}" for i in range(first, first + n)], io)
            first += n
            return (self.dff_cell, _free_names([f"u_{q}" for q in qs], io),
                    list(zip([src, *qs], qs))), qs[-1]

        for inst in self.instances:
            nets = []
            for pin, f in enumerate(inst.fanins):
                rec, src = chain(f, ("inst", inst.idx, pin))
                if rec:
                    yield rec
                nets.append(src)
            nets += [names[s] for s in inst.outs]
            yield inst.cell, (_free_name(f"u{inst.idx}", io),), (tuple(nets),)
        pis = set(self.pi_names)
        for i, (name, sig) in enumerate(zip(self.po_names, self.pos)):
            rec, src = chain(sig, ("po", i))
            if name in pis and src != name:
                raise BalanceError(f"PO {name} is named like a PI but driven "
                                   f"by net {src}: net {name} would have two "
                                   "drivers")
            if rec:
                yield rec
            yield None, name, src

    def write_blif(self) -> str:
        io = self._io_names()
        lines = [f".model {self.name}",
                 f".inputs {' '.join(self.pi_names)}",
                 f".outputs {' '.join(self.po_names + [n for n, _ in self.const_pos])}"]
        # cell name -> %-template of its line over its nets; a '%' in a
        # genlib cell name is doubled, pin names are identifiers
        gate = {}
        for cell, labels, rows in self._records(io, self._net_names(io)):
            if cell is None:  # a PO: its name and the net it reads
                if rows != labels:
                    lines += [f".names {rows} {labels}", "1 1"]
                continue
            fmt = gate.get(cell.name)
            if fmt is None:
                fmt = gate[cell.name] = (f".gate {cell.name} ".replace("%", "%%")
                                         + " ".join(f"{p}=%s" for p in _ports(cell)))
            lines += [fmt % nets for nets in rows]
        for name, value in self.const_pos:
            lines.append(f".names {name}")
            if value:
                lines.append("1")
        lines.append(".end")
        return "\n".join(lines) + "\n"

    def write_verilog(self) -> str:
        """A PO named like a PI raises BalanceError: a Verilog port is an
        input or an output, never both."""
        outs = self.po_names + [n for n, _ in self.const_pos]
        pis = set(self.pi_names)
        both = next((name for name in outs if name in pis), None)
        if both is not None:
            raise BalanceError(f"PO {both} is named like a PI: a Verilog "
                               "port is an input or an output, not both")
        io = self._io_names()
        names = self._net_names(io)
        clk = _free_name("clk", io)
        ports = self.pi_names + outs + [clk]
        lines = [f"module {self.name} ({', '.join(ports)});",
                 f"  input {', '.join(self.pi_names + [clk])};"]
        if outs:
            lines.append(f"  output {', '.join(outs)};")
        body = []
        gate = {}  # cell name -> %-template of its line over label and nets
        for cell, labels, rows in self._records(io, names):
            if cell is None:  # a PO: its name and the net it reads
                body.append(f"  assign {labels} = {rows};")
                continue
            fmt = gate.get(cell.name)
            if fmt is None:
                conns = [f".{p}(%s)" for p in _ports(cell)]
                if cell.is_clocked:
                    conns.append(f".clk({clk})")
                fmt = gate[cell.name] = (f"  {cell.name} ".replace("%", "%%")
                                         + f"%s ({', '.join(conns)});")
            body += [fmt % (label, *nets) for label, nets in zip(labels, rows)]
        for name, value in self.const_pos:
            body.append(f"  assign {name} = 1'b{int(value)};")
        wires = sorted(names[s] for s in self.driver
                       if self.driver[s][0] != "pi")
        wires += _free_names([f"pbd{i}" for i in range(self.dff_total)], io)
        if wires:
            lines.append(f"  wire {', '.join(wires)};")
        lines.extend(body)
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


def _free_name(name: str, io: set[str]) -> str:
    """A generated net name or instance label, or if a PI or PO already has
    it, the first ``<name>_<k>`` no PI or PO has.  Generated net names hold
    no ``_`` of their own, so a suffixed one meets no other generated name;
    labels (``u<idx>``, ``u_<dff net>``) start with ``u``, the Verilog clock
    port ``clk`` with ``c``, and no generated net does."""
    if name not in io:
        return name
    k = 1
    while f"{name}_{k}" in io:
        k += 1
    return f"{name}_{k}"


def _free_names(names: list[str], io: set[str]) -> list[str]:
    """``_free_name`` of every name; ``names`` itself when none collides."""
    return names if io.isdisjoint(names) else [_free_name(n, io) for n in names]


def _ports(cell: Cell) -> tuple[str, ...]:
    """A cell's pin names from the library: inputs, then the output, then a
    splitter's second output."""
    ins = cell.pin_names or tuple(f"i{i}" for i in range(cell.n_inputs))
    if cell.kind == "splitter":
        return ins + (cell.out_name, f"{cell.out_name}2")
    return ins + (cell.out_name,)
