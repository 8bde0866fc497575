"""Path-balancing insertion on a mapped cover.

A MappedNetwork holds primitive cell instances; balancing DFFs live as
integer counts on edges (an instance's ``pads``, one per fanin, and the
network's ``po_pads``), not as instances, so retiming is a pure
edge-weight transformation.  Clocked gates and DFFs contribute one level
each; splitters are asynchronous and contribute none.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .library import Cell, CellLibrary
from .netlist import _free_name, _free_names
from .truthtable import apply_cell


class BalanceError(Exception):
    pass


@dataclass
class Instance:
    cell: Cell
    fanins: list[int]
    outs: list[int]
    pads: list[int]  # DFFs on each fanin edge

    @property
    def out(self) -> int:
        return self.outs[0]


@dataclass
class MappedNetwork:
    name: str = "top"
    pi_names: list[str] = field(default_factory=list)  # PI k is signal k
    # topological: add_gate reads only driven signals, and insert_splitters
    # places each splitter chain right after its source's driver
    instances: list[Instance] = field(default_factory=list, init=False)
    pos: list[int] = field(default_factory=list)  # driving signal per PO
    po_names: list[str] = field(default_factory=list)
    po_pads: list[int] = field(default_factory=list)  # DFFs on each PO edge
    # (position among all POs, name, value) per constant PO
    const_pos: list[tuple[int, str, bool]] = field(default_factory=list)
    depth: int = 0  # clocked level every PO arrives at once balanced
    dff_cell: Cell | None = None
    splitter_cell: Cell | None = None
    # per signal: the index of the instance driving it, -1 at a PI
    driver: list[int] = field(default_factory=list, init=False)

    # -- construction --------------------------------------------------

    def add_pi(self, name: str) -> int:
        if self.instances:
            raise BalanceError(f"PI {name} added after a gate")
        self.driver.append(-1)
        self.pi_names.append(name)
        return len(self.driver) - 1

    def add_gate(self, cell: Cell, fanins: list[int]) -> int:
        self._check_driven(fanins)
        idx = len(self.instances)
        first = len(self.driver)
        self.driver += [idx] * (2 if cell.kind == "splitter" else 1)
        outs = list(range(first, len(self.driver)))
        self.instances.append(
            Instance(cell, list(fanins), outs, [0] * len(fanins)))
        return outs[0]

    def add_po(self, sig: int, name: str):
        self._check_driven([sig])
        self.pos.append(sig)
        self.po_names.append(name)
        self.po_pads.append(0)

    def add_const_po(self, name: str, value: bool):
        self.const_pos.append((len(self.pos) + len(self.const_pos), name,
                               value))

    def _check_driven(self, sigs: list[int]):
        bad = [s for s in sigs if not 0 <= s < len(self.driver)]
        if bad:
            raise BalanceError(f"signal {bad[0]} is not driven yet")

    # -- topology ------------------------------------------------------

    def consumers(self) -> dict[int, list[tuple[int, int]]]:
        """Every signal's readers: ``(instance, pin)`` per instance pin,
        then ``(-1, po)`` per PO."""
        out: dict[int, list[tuple[int, int]]] = {}
        for i, inst in enumerate(self.instances):
            for pin, sig in enumerate(inst.fanins):
                out.setdefault(sig, []).append((i, pin))
        for i, sig in enumerate(self.pos):
            out.setdefault(sig, []).append((-1, i))
        return out

    def arrivals(self, balanced: bool = False) -> list[int]:
        """Clocked level of every signal, indexed by signal: 0 at a PI; at a
        cell's outputs the latest fanin arrival including its edge DFFs,
        plus one if clocked.  One walk of ``instances``, which is in
        topological order.  With ``balanced``, a cell whose fanins do not
        arrive together raises BalanceError."""
        h = [0] * len(self.driver)
        for i, inst in enumerate(self.instances):
            arrs = [h[f] + p for f, p in zip(inst.fanins, inst.pads)]
            arr = max(arrs)
            if balanced and min(arrs) != arr:
                raise BalanceError(f"unbalanced fanins at {inst.cell.name} "
                                   f"#{i}: {arrs}")
            arr += inst.cell.is_clocked
            for sig in inst.outs:
                h[sig] = arr
        return h

    # -- splitter insertion --------------------------------------------

    def insert_splitters(self, lib: CellLibrary):
        """Give every multi-fanout signal a chain-shaped splitter tree with
        the most DFF-critical sink nearest the source; f-1 splitters per
        f-fanout signal.  Each chain is placed right after the instance
        driving its signal (chains on PIs first), so the instance list
        stays topological."""
        self.splitter_cell = lib.splitter
        self.dff_cell = lib.dff
        if self.splitter_cell is None or self.dff_cell is None:
            raise BalanceError("library lacks splitter or DFF cell")
        h = self.arrivals()
        cons = {s: c for s, c in self.consumers().items() if len(c) > 1}
        po_height = max((h[s] for s in self.pos), default=0)
        old, self.instances = self.instances, []

        # estimated DFFs a sink's edge would need, by the arrivals before any
        # rewiring: fewer = more critical.  A cell's latest fanin arrives
        # at its output's arrival less its clock.
        def criticality(sig, sink):
            i, pin = sink
            if i < 0:
                return (po_height - h[sig], 1, pin)
            return (h[old[i].out] - old[i].cell.is_clocked - h[sig], 0, i)

        for i in range(-1, len(old)):  # -1: the PIs, as in ``driver``
            if i < 0:
                sigs = range(len(self.pi_names))
            else:  # the instance, then the chains on its outputs
                sigs = old[i].outs
                for sig in sigs:
                    self.driver[sig] = len(self.instances)
                self.instances.append(old[i])
            for sig in sigs:
                sinks = sorted(cons.get(sig, ()),
                               key=lambda c: criticality(sig, c))
                reads, cur = [], sig  # the signal each sink reads, in order
                for _ in sinks[1:]:
                    reads.append(self.add_gate(self.splitter_cell, [cur]))
                    cur = reads[-1] + 1
                for (j, pin), new in zip(sinks, reads + [cur]):
                    if j < 0:
                        self.pos[pin] = new
                    else:
                        old[j].fanins[pin] = new

    # -- DFF insertion -------------------------------------------------

    def insert_balancing(self):
        """Per-gate fanin equalization plus PO padding; sets ``depth``.
        Padding a fanin up to the latest one moves no arrival, so one walk
        of the unpadded network gives every pad."""
        for inst in self.instances:
            inst.pads = [0] * len(inst.fanins)
        h = self.arrivals()
        for inst in self.instances:
            target = h[inst.out] - inst.cell.is_clocked  # the latest fanin
            inst.pads = [target - h[f] for f in inst.fanins]
        self.depth = max((h[s] for s in self.pos), default=0)
        self.po_pads = [self.depth - h[s] for s in self.pos]
        return self

    # -- metrics -------------------------------------------------------

    @property
    def dff_total(self) -> int:
        return sum(sum(i.pads) for i in self.instances) + self.po_pad_dffs

    @property
    def po_pad_dffs(self) -> int:
        return sum(self.po_pads)

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
        """Every instance reads only signals driven before it, so the list
        is topological, every cell's fanins arrive together (checked by the
        arrival walk), every PO arrives at ``depth`` and no signal is read
        twice, i.e. has fanout above one.  Retiming keeps every PI-to-PO
        register count, so a retimed network keeps its depth."""
        n = len(self.driver)
        for i, inst in enumerate(self.instances):
            late = [f for f in inst.fanins
                    if not (0 <= f < n and self.driver[f] < i)]
            if late:
                raise BalanceError(f"{inst.cell.name} #{i} reads signal "
                                   f"{late[0]}, not driven before it")
        h = self.arrivals(balanced=True)
        po_arr = {h[s] + p for s, p in zip(self.pos, self.po_pads)}
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
        vals = dict(enumerate(pi_values))
        for inst in self.instances:
            ins = [vals[f] for f in inst.fanins]
            if inst.cell.kind in ("dff", "splitter"):
                v = ins[0]
            else:
                v = apply_cell(inst.cell.func, ins, mask)
            for sig in inst.outs:
                vals[sig] = v
        out = {name: vals[sig] for name, sig in zip(self.po_names, self.pos)}
        for _, name, value in self.const_pos:
            out[name] = mask if value else 0
        return out

    # -- retiming interface --------------------------------------------

    def retiming_edges(self) -> list[tuple]:
        """(tail_vertex, head_vertex, weight) triples; PIs and POs attach to
        the fixed 'host' vertex so I/O latency is pinned; instance pins in
        list order, then POs."""
        vertex = ["host" if d < 0 else ("inst", d) for d in self.driver]
        return [(vertex[f], ("inst", i), p)
                for i, inst in enumerate(self.instances)
                for f, p in zip(inst.fanins, inst.pads)] + [
            (vertex[s], "host", p) for s, p in zip(self.pos, self.po_pads)]

    def copy(self) -> "MappedNetwork":
        net = MappedNetwork(
            name=self.name, pi_names=list(self.pi_names), pos=list(self.pos),
            po_names=list(self.po_names), po_pads=list(self.po_pads),
            const_pos=list(self.const_pos), depth=self.depth,
            dff_cell=self.dff_cell, splitter_cell=self.splitter_cell)
        net.instances = [Instance(i.cell, list(i.fanins), list(i.outs),
                                  list(i.pads)) for i in self.instances]
        net.driver = list(self.driver)
        return net

    # -- emission ------------------------------------------------------

    def netlist_chunks(self, fmt: str):
        """The netlist in ``fmt`` ("blif" or "verilog") as an iterator of
        text chunks, each a join of whole records of at least
        ``CHUNK_CHARS`` characters but the last, so no list of lines ever
        holds the whole text.  A network that cannot be written raises
        here, before any text is made: BalanceError for DFFs without a DFF
        cell or a PO named like a PI that another net drives (any PO named
        like a PI in Verilog, whose ports are inputs or outputs, not both),
        ValueError for another format."""
        if fmt not in ("blif", "verilog"):
            raise ValueError(f"unknown netlist format '{fmt}'")
        pis = set(self.pi_names)
        if fmt == "verilog":
            both = next((n for n in self._po_ports() if n in pis), None)
            if both is not None:
                raise BalanceError(f"PO {both} is named like a PI: a Verilog "
                                   "port is an input or an output, not both")
        if self.dff_total and self.dff_cell is None:
            raise BalanceError("network has DFFs but no DFF cell")
        io = self._io_names()
        names = self._net_names(io)
        # a PO named like a PI must be that PI's net, read without a DFF
        for name, sig, pad in zip(self.po_names, self.pos, self.po_pads):
            if name in pis and (names[sig] != name or pad):
                raise BalanceError(f"PO {name} is named like a PI but does "
                                   "not read its net undelayed: net "
                                   f"{name} would have two drivers")
        parts = (self._blif_parts if fmt == "blif"
                 else self._verilog_parts)(io, names)
        return _chunked(parts)

    def write_blif(self) -> str:
        return "".join(self.netlist_chunks("blif"))

    def write_verilog(self) -> str:
        return "".join(self.netlist_chunks("verilog"))

    def _io_names(self) -> set[str]:
        return set(self.pi_names) | set(self._po_ports())

    def _po_ports(self) -> list[str]:
        """The PO names in port order, each constant PO at its position."""
        ports = list(self.po_names)
        for at, name, _ in self.const_pos:
            ports.insert(at, name)
        return ports

    def _net_names(self, io: set[str]) -> list[str]:
        """Every signal's net name, indexed by signal: a PI's own name, else
        ``n<sig>``."""
        names = _free_names([f"n{sig}" for sig in range(len(self.driver))], io)
        names[:len(self.pi_names)] = self.pi_names
        return names

    def _records(self, io: set[str], names: list[str]):
        """The netlist body in file order, shared by both writers: a
        ``(GATE, i, nets)`` record per instance, ``i`` its list position and
        its nets in the order of ``_ports(cell)``, and a ``(DFFS, src,
        dffs)`` record per edge's DFF chain, just before its consumer; then
        a ``(PO, name, net)`` record per PO.  A chain reads net ``src`` and its DFFs drive the nets
        ``_dff_nets(dffs, io)`` of the integer range ``dffs``, numbered in
        file order, each DFF reading the one before."""
        first = 0

        def chain(sig, n):
            """The DFF chain record of an edge from ``sig`` with ``n`` DFFs
            (None if it has none) and the net the consumer reads."""
            nonlocal first
            if not n:
                return None, names[sig]
            dffs = range(first, first + n)
            first += n
            return (DFFS, names[sig], dffs), _free_name(f"pbd{dffs[-1]}", io)

        for i, inst in enumerate(self.instances):
            nets = []
            for f, pad in zip(inst.fanins, inst.pads):
                rec, src = chain(f, pad)
                if rec:
                    yield rec
                nets.append(src)
            nets += [names[s] for s in inst.outs]
            yield GATE, i, tuple(nets)
        for name, sig, pad in zip(self.po_names, self.pos, self.po_pads):
            rec, src = chain(sig, pad)
            if rec:
                yield rec
            yield PO, name, src

    def _blif_parts(self, io: set[str], names: list[str]):
        """The BLIF text, one string per record."""
        yield (f".model {self.name}\n.inputs {' '.join(self.pi_names)}\n"
               f".outputs {' '.join(self._po_ports())}\n")
        # cell name -> %-template of its line over its nets; a '%' in a
        # genlib cell name is doubled, pin names are identifiers
        gate = {}
        for kind, a, b in self._records(io, names):
            if kind is PO:  # its name and the net it reads
                if a != b:
                    yield f".names {b} {a}\n1 1\n"
                continue
            cell = self.dff_cell if kind is DFFS else self.instances[a].cell
            fmt = gate.get(cell.name)
            if fmt is None:
                fmt = gate[cell.name] = (
                    f".gate {cell.name} ".replace("%", "%%")
                    + " ".join(f"{p}=%s" for p in _ports(cell)) + "\n")
            if kind is GATE:
                yield fmt % b
            else:  # a DFF chain from net a
                qs = _dff_nets(b, io)
                yield _rows(fmt, [a, *qs[:-1]], qs)
        yield "".join(f".names {name}\n1\n" if value else f".names {name}\n"
                      for _, name, value in self.const_pos) + ".end\n"

    def _verilog_parts(self, io: set[str], names: list[str]):
        """The Verilog text, one string per record; the ``wire`` declaration
        of every DFF net is joined a slice of the DFF range at a time.  The
        model, PI and PO names are written by ``_verilog_id``."""
        pis = [_verilog_id(name) for name in self.pi_names]
        outs = [_verilog_id(name) for name in self._po_ports()]
        names = names.copy()
        names[:len(pis)] = pis
        clk = _free_name("clk", io)
        ports = pis + outs + [clk]
        yield (f"module {_verilog_id(self.name)} ({', '.join(ports)});\n"
               f"  input {', '.join(pis + [clk])};\n")
        if outs:
            yield f"  output {', '.join(outs)};\n"
        wires = sorted(names[s] for s, d in enumerate(self.driver) if d >= 0)
        dffs = self.dff_total
        if wires or dffs:
            yield f"  wire {', '.join(wires)}"
            sep = ", " if wires else ""
            for lo in range(0, dffs, WIRE_SLICE):
                yield sep + ", ".join(
                    _dff_nets(range(lo, min(lo + WIRE_SLICE, dffs)), io))
                sep = ", "
            yield ";\n"
        gate = {}  # cell name -> %-template of its line over label and nets
        for kind, a, b in self._records(io, names):
            if kind is PO:  # its name and the net it reads
                yield f"  assign {_verilog_id(a)} = {b};\n"
                continue
            cell = self.dff_cell if kind is DFFS else self.instances[a].cell
            fmt = gate.get(cell.name)
            if fmt is None:  # names as identifiers; pins hold no '%'
                conns = [f".{_verilog_id(p)}(%s)" for p in _ports(cell)]
                if cell.is_clocked:
                    conns.append(f".clk({clk})")
                fmt = gate[cell.name] = (
                    f"  {_verilog_id(cell.name)} ".replace("%", "%%")
                    + f"%s ({', '.join(conns)});\n")
            if kind is GATE:
                yield fmt % (_free_name(f"u{a}", io), *b)
            else:  # a DFF chain from net a, each DFF labelled u_<its net>
                qs = _dff_nets(b, io)
                labels = _free_names([f"u_{q}" for q in qs], io)
                yield _rows(fmt, labels, [a, *qs[:-1]], qs)
        yield "".join(f"  assign {_verilog_id(name)} = 1'b{int(value)};\n"
                      for _, name, value in self.const_pos) + "endmodule\n"


# record kinds of MappedNetwork._records
GATE, DFFS, PO = "gate", "dffs", "po"
# netlist characters joined into one chunk of MappedNetwork.netlist_chunks
CHUNK_CHARS = 1 << 16
# DFF nets per slice of the Verilog wire declaration
WIRE_SLICE = 4096


def _chunked(parts):
    """The strings ``parts`` joined in order into chunks of at least
    ``CHUNK_CHARS`` characters, the last one shorter."""
    buf, size = [], 0
    for part in parts:
        buf.append(part)
        size += len(part)
        if size >= CHUNK_CHARS:
            yield "".join(buf)
            buf, size = [], 0
    if buf:
        yield "".join(buf)


def _rows(fmt: str, *cols: list[str]) -> str:
    """``fmt`` filled in once per row of the equal-length columns ``cols``,
    by one ``%`` over the template repeated, not one per row."""
    args = [None] * (len(cols) * len(cols[0]))
    for j, col in enumerate(cols):
        args[j::len(cols)] = col
    return (fmt * len(cols[0])) % tuple(args)


def _dff_nets(dffs: range, io: set[str]) -> list[str]:
    """The nets ``pbd<i>`` driven by the DFFs numbered ``dffs``."""
    return _free_names([f"pbd{i}" for i in dffs], io)


_VERILOG_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
# the reserved words of IEEE 1364-2005
_VERILOG_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end
    endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout
    input instance integer join large liblist library localparam
    macromodule medium module nand negedge nmos nor noshowcancelled not
    notif0 notif1 or output parameter pmos posedge primitive pull0 pull1
    pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1
    scalared showcancelled signed small specify specparam strong0 strong1
    supply0 supply1 table task time tran tranif0 tranif1 tri tri0 tri1
    triand trior trireg unsigned use uwire vectored wait wand weak0 weak1
    while wire wor xnor xor""".split())


def _verilog_id(name: str) -> str:
    """``name`` as a Verilog identifier: itself if it is a simple
    identifier and no reserved word, else escaped (``\\a[0] ``, ended by a
    space)."""
    if _VERILOG_PLAIN.fullmatch(name) and name not in _VERILOG_KEYWORDS:
        return name
    return f"\\{name} "


def _ports(cell: Cell) -> tuple[str, ...]:
    """A cell's pin names from the library: inputs, then the output, then a
    splitter's second output."""
    ins = cell.pin_names or tuple(f"i{i}" for i in range(cell.n_inputs))
    if cell.kind == "splitter":
        return ins + (cell.out_name, f"{cell.out_name}2")
    return ins + (cell.out_name,)
