"""Subject graphs: AND-inverter DAGs with complemented edges, plus BLIF and
ASCII-AIGER readers and writers.

Node ids are small integers.  Id 0 is reserved for the constant-false node;
primary inputs and internal AND nodes share the remaining id space.  Edges are
``(node_id, complemented)`` pairs; inverters never appear as explicit nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CONST0 = 0


class NetlistError(Exception):
    """Raised for malformed netlist input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class AndNode:
    fanin0: tuple[int, bool]
    fanin1: tuple[int, bool]


@dataclass
class SubjectGraph:
    name: str = "top"
    pis: list[int] = field(default_factory=list)
    pi_names: dict[int, str] = field(default_factory=dict)
    # filled by add_and only, in creation order, so it stays topological
    nodes: dict[int, AndNode] = field(default_factory=dict, init=False)
    pos: list[tuple[int, bool]] = field(default_factory=list)
    po_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._next_id = 1
        self._strash: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str | None = None) -> int:
        nid = self._next_id
        self._next_id += 1
        self.pis.append(nid)
        self.pi_names[nid] = name if name is not None else f"pi{len(self.pis)}"
        return nid

    def const_lit(self, value: bool) -> tuple[int, bool]:
        return (CONST0, bool(value))

    def add_and(self, f0: tuple[int, bool], f1: tuple[int, bool]) -> tuple[int, bool]:
        """Structurally hashed AND of two literals; returns a literal.

        Constant and duplicate-input cases fold away instead of creating a
        node, so the graph stays clean of degenerate ANDs.
        """
        for fi in (f0, f1):
            if fi[0] != CONST0 and fi[0] not in self.pi_names and fi[0] not in self.nodes:
                raise NetlistError(f"fanin references unknown node {fi[0]}")
        if f0[0] == CONST0:
            return f1 if f0[1] else self.const_lit(False)
        if f1[0] == CONST0:
            return f0 if f1[1] else self.const_lit(False)
        if f0 == f1:
            return f0
        if f0[0] == f1[0] and f0[1] != f1[1]:
            return self.const_lit(False)
        if f1 < f0:
            f0, f1 = f1, f0
        key = (f0, f1)
        nid = self._strash.get(key)
        if nid is None:
            nid = self._next_id
            self._next_id += 1
            self.nodes[nid] = AndNode(f0, f1)
            self._strash[key] = nid
        return (nid, False)

    def add_po(self, lit: tuple[int, bool], name: str | None = None):
        self.pos.append(lit)
        self.po_names.append(name if name is not None else f"po{len(self.pos)}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def topo_order(self) -> list[int]:
        """Internal nodes in topological order (fanins first): node order.
        ``add_and`` only takes fanins that already exist and ids only grow,
        so every node comes after its fanins."""
        return list(self.nodes)

    def fanout_counts(self) -> dict[int, int]:
        """Reads of each PI and node by nodes and POs, counted per call."""
        counts: dict[int, int] = {nid: 0 for nid in list(self.nodes) + self.pis}
        for n in self.nodes.values():  # add_and folds constants away
            counts[n.fanin0[0]] += 1
            counts[n.fanin1[0]] += 1
        for p, _ in self.pos:
            if p != CONST0:
                counts[p] += 1
        return counts

    def sweep_dangling(self):
        """Drop nodes with no path to any PO."""
        live = set()
        stack = [p for p, _ in self.pos if p in self.nodes]
        while stack:
            nid = stack.pop()
            if nid in live:
                continue
            live.add(nid)
            n = self.nodes[nid]
            for f, _ in (n.fanin0, n.fanin1):
                if f in self.nodes:
                    stack.append(f)
        dead = [nid for nid in self.nodes if nid not in live]
        for nid in dead:
            del self.nodes[nid]
        if dead:
            self._strash = {
                tuple(sorted((n.fanin0, n.fanin1))): nid
                for nid, n in self.nodes.items()
            }

    # ------------------------------------------------------------------
    # structural identity
    # ------------------------------------------------------------------
    def signature(self):
        """Hashable structural signature, invariant under node renumbering.

        PIs are anchored by name, so two graphs compare equal iff they are
        the same network up to internal node ids.
        """
        memo: dict[int, object] = {CONST0: ("const",)}
        for nid in self.pis:
            memo[nid] = ("pi", self.pi_names[nid])
        for nid in self.topo_order():
            n = self.nodes[nid]
            kids = tuple(sorted(((memo[f], c) for f, c in (n.fanin0, n.fanin1)),
                                key=repr))
            memo[nid] = ("and", kids)
        return tuple(
            (name, memo[p], c)
            for name, (p, c) in zip(self.po_names, self.pos)
        )

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(self, pi_values: dict[int, int]) -> list[int]:
        """Bit-parallel evaluation; values are ints used as bit-vectors."""
        vals = {CONST0: 0}
        vals.update(pi_values)
        for nid in self.topo_order():
            n = self.nodes[nid]
            a = vals[n.fanin0[0]]
            b = vals[n.fanin1[0]]
            if n.fanin0[1]:
                a = ~a
            if n.fanin1[1]:
                b = ~b
            vals[nid] = a & b
        return [~vals[p] if c else vals[p] for p, c in self.pos]


def balanced_reduce(graph: SubjectGraph, lits, op):
    """Combine literals pairwise in rounds, giving a balanced tree shape."""
    lits = list(lits)
    if not lits:
        raise ValueError("empty literal list")
    while len(lits) > 1:
        nxt = []
        for i in range(0, len(lits) - 1, 2):
            nxt.append(op(graph, lits[i], lits[i + 1]))
        if len(lits) % 2:
            nxt.append(lits[-1])
        lits = nxt
    return lits[0]


def _and_op(g, a, b):
    return g.add_and(a, b)


def _or_op(g, a, b):
    lit = g.add_and((a[0], not a[1]), (b[0], not b[1]))
    return (lit[0], not lit[1])


# ----------------------------------------------------------------------
# BLIF
# ----------------------------------------------------------------------

# primitive .gate cells accepted on input, each read as the .names record of
# its function: its input pins in order and the cubes over them
_GATE_CUBES = {
    "and2": ("ab", [("11", "1")]),
    "nand2": ("ab", [("11", "0")]),
    "or2": ("ab", [("1-", "1"), ("-1", "1")]),
    "nor2": ("ab", [("00", "1")]),
    "xor2": ("ab", [("10", "1"), ("01", "1")]),
    "xnor2": ("ab", [("10", "0"), ("01", "0")]),
    "inv": ("a", [("0", "1")]),
    "buf": ("a", [("1", "1")]),
}
_GATE_OUTPUT_PINS = ("o", "q", "y", "z", "out")


def _neg(lit):
    return (lit[0], not lit[1])


def _xor_op(g, a, b):
    t0 = g.add_and(a, _neg(b))
    t1 = g.add_and(_neg(a), b)
    return _or_op(g, t0, t1)


def _parse_blif(text: str) -> SubjectGraph:
    # join continuation lines, remember original line numbers
    raw = text.splitlines()
    lines: list[tuple[int, str]] = []
    buf, buf_line = "", 0
    for lno, line in enumerate(raw, 1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        if not buf:
            buf_line = lno
        if line.endswith("\\"):
            buf += line[:-1] + " "
            continue
        buf = (buf + line).strip()  # a bare "\" joins to nothing
        if buf:
            lines.append((buf_line, buf))
        buf = ""
    if buf.strip():
        lines.append((buf_line, buf.strip()))

    g = SubjectGraph()
    lits: dict[str, tuple[int, bool]] = {}  # PIs now, records as built
    outputs: list[str] = []
    # output -> (line, input names, cubes): every .names record, and every
    # .gate record as the .names record of its primitive
    records: dict[str, tuple[int, list[str], list[tuple[str, str]]]] = {}

    def define(lno, out, ins, cubes):
        if out in records or out in lits:
            raise NetlistError(f"signal '{out}' defined twice", lno)
        records[out] = (lno, ins, cubes)

    i = 0
    saw_model = ended = False
    while i < len(lines):
        lno, line = lines[i]
        tok = line.split()
        kw = tok[0]
        i += 1
        if ended:
            raise NetlistError(f"'{kw}' after .end: one model per file", lno)
        if kw == ".model":
            if saw_model:
                raise NetlistError("second .model: one model per file", lno)
            g.name = tok[1] if len(tok) > 1 else "top"
            saw_model = True
        elif kw == ".inputs":
            # a repeated input name is rejected by parse_netlist
            for name in tok[1:]:
                if name in records:
                    raise NetlistError(f"signal '{name}' defined twice", lno)
                lits[name] = (g.add_pi(name), False)
        elif kw == ".outputs":
            outputs.extend(tok[1:])
        elif kw == ".latch":
            raise NetlistError("sequential input (.latch) is not supported", lno)
        elif kw == ".names":
            if len(tok) < 2:
                raise NetlistError(".names needs at least an output", lno)
            ins = tok[1:-1]
            cubes = []
            while i < len(lines) and not lines[i][1].startswith("."):
                cubes.append(_cube(ins, *lines[i]))
                i += 1
            if any(v != cubes[0][1] for _, v in cubes):
                raise NetlistError("mixed on-set/off-set cubes in one .names "
                                   "body", lno)
            define(lno, tok[-1], ins, cubes)
        elif kw == ".gate":
            define(lno, *_gate_as_names(tok, lno))
        elif kw == ".end":
            ended = True
        elif kw == ".exdc":
            raise NetlistError(".exdc is not supported", lno)
        else:
            raise NetlistError(f"unsupported construct '{kw}'", lno)
    if not saw_model and not g.pis and not outputs:
        raise NetlistError("not a BLIF file (no .model/.inputs/.outputs)")

    if not outputs:
        raise NetlistError("no outputs declared")
    for name in outputs:
        g.add_po(_resolve(g, records, lits, name, None, "signal '{}'"), name)
    g.sweep_dangling()
    return g


def _resolve(g: SubjectGraph, records: dict, lits: dict, name, lno,
             noun: str) -> tuple[int, bool]:
    """Literal of ``name``, whose cone of ``records`` (name -> line, input
    names, .names cubes) is added to ``g`` and ``lits`` (name -> literal)
    depth-first, inputs in order, on an explicit stack, so a chain of any
    depth parses.  An undefined or cyclic name raises, named by ``noun``."""
    on_path: set = set()  # entered, inputs not yet all built
    stack = [(name, lno, None)]
    while stack:
        sig, ref, ins = stack.pop()
        if ins is not None:  # every input is built: build sig itself
            on_path.discard(sig)
            lits[sig] = _build_sop(g, [lits[n] for n in ins], records[sig][2])
            continue
        if sig in lits:
            continue
        if sig not in records:
            raise NetlistError(f"undefined {noun.format(sig)}", ref)
        if sig in on_path:
            raise NetlistError(f"cyclic definition of {noun.format(sig)}",
                               ref)
        on_path.add(sig)
        rlno, ins, _ = records[sig]
        stack.append((sig, rlno, ins))
        stack.extend((n, rlno, None) for n in reversed(ins))
    return lits[name]


def _cube(ins: list[str], lno: int, line: str) -> tuple[str, str]:
    """The (input mask, output value) of a cube line of a .names body."""
    parts = line.split()
    if len(parts) != (2 if ins else 1):
        raise NetlistError(f"malformed cube '{line}'", lno)
    mask, val = parts if ins else ("", parts[0])
    if len(mask) != len(ins) or any(ch not in "01-" for ch in mask):
        raise NetlistError(f"malformed cube '{line}'", lno)
    if val not in ("0", "1"):
        raise NetlistError("cube output must be 0 or 1", lno)
    return mask, val


def _gate_as_names(tok: list[str], lno: int):
    """The (output, input names, cubes) of a .gate line: the .names record
    of its primitive's function over the nets bound to its pins.  Gate and
    pin names are case-insensitive."""
    if len(tok) < 3:
        raise NetlistError("malformed .gate", lno)
    gname = tok[1]
    key = gname.lower()
    if key in ("dff", "dfff", "splitter", "split"):
        raise NetlistError(
            f"sequential or fanout cell '{gname}' not allowed in subject graph", lno)
    if key not in _GATE_CUBES:
        raise NetlistError(f"unknown gate '{gname}'", lno)
    pins, cubes = _GATE_CUBES[key]
    nets = {}
    for assign in tok[2:]:
        pin, eq, net = assign.partition("=")
        pin = pin.lower()
        if not eq:
            raise NetlistError(f"malformed pin binding '{assign}'", lno)
        if pin in nets:
            raise NetlistError(f"pin '{pin}' bound twice", lno)
        nets[pin] = net
    ins = sorted(nets.keys() - _GATE_OUTPUT_PINS)
    outs = [nets[p] for p in nets if p in _GATE_OUTPUT_PINS]
    if ins != list(pins) or len(outs) != 1:
        raise NetlistError(
            f"gate '{gname}' binds pins {' '.join(nets)}, not {' '.join(pins)} "
            f"and one of {'/'.join(_GATE_OUTPUT_PINS)}", lno)
    return outs[0], [nets[p] for p in pins], cubes


def _build_sop(g: SubjectGraph, in_lits, cubes) -> tuple[int, bool]:
    """Sum-of-cubes body of a .names record, balanced decomposition; the
    cubes share one output value."""
    if not cubes:
        return g.const_lit(False)
    terms = []
    for mask, _ in cubes:
        cube_lits = []
        for ch, lit in zip(mask, in_lits):
            if ch == "1":
                cube_lits.append(lit)
            elif ch == "0":
                cube_lits.append(_neg(lit))
        if not cube_lits:
            # all-dash cube: constant true
            terms.append(g.const_lit(True))
        else:
            terms.append(balanced_reduce(g, cube_lits, _and_op))
    lit = balanced_reduce(g, terms, _or_op)
    if cubes[0][1] == "0":
        lit = _neg(lit)
    return lit


# ----------------------------------------------------------------------
# ASCII AIGER
# ----------------------------------------------------------------------


def _aag_literals(lines: list[str], idx: int, what: str) -> list[int]:
    """The integers on line ``idx`` (0-based) of an aag body."""
    if idx >= len(lines):
        raise NetlistError(f"file ends before the header's {what} lines",
                           idx + 1)
    parts = lines[idx].split()
    if not parts:
        raise NetlistError(f"blank {what} line", idx + 1)
    if not all(_is_unsigned(x) for x in parts):
        raise NetlistError(f"literal in {what} line is not an unsigned "
                           "integer", idx + 1)
    return [int(x) for x in parts]


def _is_unsigned(word: str) -> bool:
    """Whether ``word`` is all ASCII digits; ``int`` also takes a sign, an
    underscore, surrounding space and non-ASCII digits."""
    return word.isascii() and word.isdigit()


def _parse_aag(text: str) -> SubjectGraph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("aag"):
        raise NetlistError("not an ascii AIGER file", 1)
    hdr = lines[0].split()
    if len(hdr) < 6 or not all(_is_unsigned(x) for x in hdr[1:6]):
        raise NetlistError("malformed aag header", 1)
    m, ni, nl, no, na = (int(x) for x in hdr[1:6])
    if nl:
        raise NetlistError("sequential input (latches) is not supported", 1)
    g = SubjectGraph(name="aag")
    idx = 1
    in_lits = []
    for k in range(ni):
        lit = _aag_literals(lines, idx, "input")[0]
        if lit % 2 or lit == 0:
            raise NetlistError("input literal must be even and nonzero", idx + 1)
        in_lits.append(lit)
        idx += 1
    out_lits = []  # (line, literal)
    for k in range(no):
        out_lits.append((idx + 1, _aag_literals(lines, idx, "output")[0]))
        idx += 1
    and_defs = []  # (line, lhs, rhs0, rhs1)
    for k in range(na):
        lits = _aag_literals(lines, idx, "and")
        if len(lits) != 3:
            raise NetlistError("malformed and line", idx + 1)
        and_defs.append((idx + 1, *lits))
        idx += 1
    # symbol table, up to an optional comment section
    in_names = {}
    out_names = {}
    while idx < len(lines):
        line = lines[idx].strip()
        idx += 1
        if not line:
            continue
        if line[0] == "c":
            break
        if line[0] not in "io":
            raise NetlistError("expected an i/o symbol or a comment line "
                               "after the and section", idx)
        pos, _, name = line[1:].partition(" ")
        if not (pos.isascii() and pos.isdigit() and name):
            raise NetlistError("malformed symbol line", idx)
        (in_names if line[0] == "i" else out_names)[int(pos)] = name

    # each AND is read as the .names record of its function, one cube over
    # its operands' variables; a variable is named by its even literal
    lits: dict[int, tuple[int, bool]] = {0: g.const_lit(False)}
    for k, lit in enumerate(in_lits):
        if lit in lits:  # input k is on line k + 2
            raise NetlistError(f"literal {lit} defined twice", k + 2)
        lits[lit] = (g.add_pi(in_names.get(k, f"i{k}")), False)
    records = {}
    for lno, lhs, rhs0, rhs1 in and_defs:
        if lhs % 2:
            raise NetlistError("and output literal must be even", lno)
        if lhs in lits or lhs in records:
            raise NetlistError(f"literal {lhs} defined twice", lno)
        records[lhs] = (lno, [rhs0 & ~1, rhs1 & ~1],
                        [("10"[rhs0 % 2] + "10"[rhs1 % 2], "1")])
    for lhs in records:  # in file order: an ordered file keeps its node ids
        _resolve(g, records, lits, lhs, None, "literal {}")
    for k, (lno, lit) in enumerate(out_lits):
        out = _resolve(g, records, lits, lit & ~1, lno, "literal {}")
        g.add_po(_neg(out) if lit % 2 else out, out_names.get(k, f"o{k}"))
    g.sweep_dangling()
    return g


def parse_netlist(text: str) -> SubjectGraph:
    """Parse ascii-AIGER source (text starting with ``aag``) or BLIF into a
    subject graph.  Its PI names are distinct, and so are its PO names, and
    none holds whitespace: a netlist written from it declares each as one
    port.  A PO named like a PI is that PI, uncomplemented, so a netlist
    written from it gives the net one driver."""
    if text.lstrip().startswith("aag"):
        g = _parse_aag(text)
    else:
        g = _parse_blif(text)
    pi_names = [g.pi_names[p] for p in g.pis]
    for kind, names in (("input", pi_names), ("output", g.po_names)):
        seen = set()
        for name in names:
            if name in seen:
                raise NetlistError(f"duplicate {kind} name '{name}'")
            if any(ch.isspace() for ch in name):
                raise NetlistError(f"{kind} name {name!r} holds whitespace")
            seen.add(name)
    _check_outputs_named_like_inputs(g)
    return g


def _check_outputs_named_like_inputs(g: SubjectGraph):
    """Raise ``NetlistError`` for a PO named like a PI that is not that PI,
    uncomplemented: a netlist would give their net two drivers."""
    pis = {g.pi_names[p]: p for p in g.pis}
    for name, lit in zip(g.po_names, g.pos):
        if name in pis and lit != (pis[name], False):
            raise NetlistError(f"output '{name}' is named like an input "
                               "but is not that input")


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------


def _free_name(name: str, io: set[str]) -> str:
    """A generated net name or instance label, or if a PI or PO already has
    it, the first ``<name>_<k>`` no PI or PO has.  Both writers name nets by
    this rule.  Generated net names (``n<id>``, ``pbd<i>``)
    hold no ``_`` of their own, so a suffixed one meets no other generated
    name; labels (``u<idx>``, ``u_<dff net>``) and the Verilog clock port
    ``clk`` start unlike any generated net."""
    if name not in io:
        return name
    k = 1
    while f"{name}_{k}" in io:
        k += 1
    return f"{name}_{k}"


def _free_names(names: list[str], io: set[str]) -> list[str]:
    """``_free_name`` of every name; ``names`` itself when none collides."""
    return names if io.isdisjoint(names) else [_free_name(n, io) for n in names]


def write_blif(g: SubjectGraph) -> str:
    """``g`` as BLIF.  A PI's net is its name and an AND node's ``n<id>``,
    renamed by ``_free_name`` away from the PI and PO names.  A PO that is
    its own PI, uncomplemented, reads the PI's net and writes no ``.names``;
    a constant PO is a ``.names`` of its own, as no AND node reads the
    constant.  A PO named like a PI that it is not raises ``NetlistError``,
    as ``parse_netlist`` does."""
    _check_outputs_named_like_inputs(g)
    io = set(g.pi_names.values()) | set(g.po_names)
    order = g.topo_order()
    net = dict(zip(order, _free_names([f"n{nid}" for nid in order], io)))
    net.update(g.pi_names)
    out = [f".model {g.name}"]
    out.append(".inputs " + " ".join(g.pi_names[p] for p in g.pis))
    out.append(".outputs " + " ".join(g.po_names))
    for nid in order:
        n = g.nodes[nid]
        a, b = n.fanin0, n.fanin1
        out.append(f".names {net[a[0]]} {net[b[0]]} {net[nid]}")
        out.append(("0" if a[1] else "1") + ("0" if b[1] else "1") + " 1")
    for name, (p, c) in zip(g.po_names, g.pos):
        if p == CONST0:
            out.append(f".names {name}")
            if c:
                out.append("1")
        elif c or net[p] != name:
            out.append(f".names {net[p]} {name}")
            out.append(("0 1") if c else ("1 1"))
    out.append(".end")
    return "\n".join(out) + "\n"


def write_aag(g: SubjectGraph) -> str:
    order = g.topo_order()
    var_of = {}
    for k, p in enumerate(g.pis):
        var_of[p] = k + 1
    for k, nid in enumerate(order):
        var_of[nid] = len(g.pis) + k + 1

    def lit_of(edge):
        nid, c = edge
        if nid == CONST0:
            return 1 if c else 0
        return 2 * var_of[nid] + (1 if c else 0)

    m = len(g.pis) + len(order)
    lines = [f"aag {m} {len(g.pis)} 0 {len(g.pos)} {len(order)}"]
    for p in g.pis:
        lines.append(str(2 * var_of[p]))
    for edge in g.pos:
        lines.append(str(lit_of(edge)))
    for nid in order:
        n = g.nodes[nid]
        lines.append(f"{2 * var_of[nid]} {lit_of(n.fanin0)} {lit_of(n.fanin1)}")
    for k, p in enumerate(g.pis):
        lines.append(f"i{k} {g.pi_names[p]}")
    for k, name in enumerate(g.po_names):
        lines.append(f"o{k} {name}")
    return "\n".join(lines) + "\n"


def write_netlist(g: SubjectGraph, fmt: str = "blif") -> str:
    if fmt == "blif":
        return write_blif(g)
    if fmt == "aag":
        return write_aag(g)
    raise ValueError(f"unsupported netlist format '{fmt}' for subject graphs")


# ----------------------------------------------------------------------
# random graphs (testing / corpus support)
# ----------------------------------------------------------------------


def random_aig(n_nodes: int, n_pis: int, seed: int, n_pos: int | None = None) -> SubjectGraph:
    rng = random.Random(seed)
    g = SubjectGraph(name=f"rand{seed}")
    pool = [(g.add_pi(), False) for _ in range(n_pis)]
    for _ in range(n_nodes):
        a = rng.choice(pool)
        b = rng.choice(pool)
        a = (a[0], rng.random() < 0.5)
        b = (b[0], rng.random() < 0.5)
        lit = g.add_and(a, b)
        if lit[0] != CONST0:
            pool.append(lit)
    fanout = g.fanout_counts()
    sinks = [nid for nid in g.nodes if fanout[nid] == 0]
    if not sinks:
        sinks = list(g.nodes)[:1] or []
    if n_pos is not None and sinks:
        while len(sinks) < n_pos:
            sinks.append(rng.choice(list(g.nodes)))
        sinks = sinks[:n_pos]
    for nid in sinks:
        g.add_po((nid, rng.random() < 0.3))
    if not g.pos:
        g.add_po(pool[0])
    g.sweep_dangling()
    return g
