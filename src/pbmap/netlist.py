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
    id: int
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
    has_const: bool = False

    def __post_init__(self):
        self._next_id = 1
        self._strash: dict[tuple, int] = {}
        self._fanout: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str | None = None) -> int:
        nid = self._next_id
        self._next_id += 1
        self.pis.append(nid)
        self.pi_names[nid] = name if name is not None else f"pi{len(self.pis)}"
        self._fanout = None
        return nid

    def const_lit(self, value: bool) -> tuple[int, bool]:
        self.has_const = True
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
            self.nodes[nid] = AndNode(nid, f0, f1)
            self._strash[key] = nid
            self._fanout = None
        return (nid, False)

    def add_po(self, lit: tuple[int, bool], name: str | None = None):
        self.pos.append(lit)
        self.po_names.append(name if name is not None else f"po{len(self.pos)}")
        self._fanout = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_pi(self, nid: int) -> bool:
        return nid in self.pi_names

    def topo_order(self) -> list[int]:
        """Internal nodes in topological order (fanins first): node order.
        ``add_and`` only takes fanins that already exist and ids only grow,
        so every node comes after its fanins."""
        return list(self.nodes)

    def fanout_counts(self) -> dict[int, int]:
        if self._fanout is not None:
            return self._fanout
        counts: dict[int, int] = {nid: 0 for nid in list(self.nodes) + self.pis}
        for n in self.nodes.values():
            for f, _ in (n.fanin0, n.fanin1):
                if f != CONST0:
                    counts[f] += 1
        for p, _ in self.pos:
            if p != CONST0:
                counts[p] += 1
        self._fanout = counts
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
            self._fanout = None

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

# primitive .gate cells accepted on input; pin order is alphabetical
_GATE_EXPRS = {
    "and2": ("ab", lambda g, a, b: g.add_and(a, b)),
    "nand2": ("ab", lambda g, a, b: _neg(g.add_and(a, b))),
    "or2": ("ab", _or_op),
    "nor2": ("ab", lambda g, a, b: _neg(_or_op(g, a, b))),
    "xor2": ("ab", lambda g, a, b: _xor_op(g, a, b)),
    "xnor2": ("ab", lambda g, a, b: _neg(_xor_op(g, a, b))),
    "inv": ("a", lambda g, a: _neg(a)),
    "buf": ("a", lambda g, a: a),
}


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
    inputs: list[str] = []
    outputs: list[str] = []
    # each entry: (line, out_name, in_names, cubes) for .names,
    # or (line, out_name, gate_name, pin_map) for .gate
    names_records = []
    gate_records = []
    i = 0
    saw_model = False
    while i < len(lines):
        lno, line = lines[i]
        tok = line.split()
        kw = tok[0]
        if kw == ".model":
            g.name = tok[1] if len(tok) > 1 else "top"
            saw_model = True
            i += 1
        elif kw == ".inputs":
            inputs.extend(tok[1:])
            i += 1
        elif kw == ".outputs":
            outputs.extend(tok[1:])
            i += 1
        elif kw == ".latch":
            raise NetlistError("sequential input (.latch) is not supported", lno)
        elif kw == ".names":
            if len(tok) < 2:
                raise NetlistError(".names needs at least an output", lno)
            ins, out = tok[1:-1], tok[-1]
            cubes = []
            i += 1
            while i < len(lines) and not lines[i][1].startswith("."):
                clno, cline = lines[i]
                parts = cline.split()
                if ins:
                    if len(parts) != 2:
                        raise NetlistError(f"malformed cube '{cline}'", clno)
                    mask, val = parts
                    if len(mask) != len(ins) or any(ch not in "01-" for ch in mask):
                        raise NetlistError(f"malformed cube '{cline}'", clno)
                else:
                    if len(parts) != 1 or parts[0] not in "01":
                        raise NetlistError(f"malformed constant '{cline}'", clno)
                    mask, val = "", parts[0]
                if val not in "01":
                    raise NetlistError(f"cube output must be 0 or 1", clno)
                cubes.append((mask, val))
                i += 1
            names_records.append((lno, out, ins, cubes))
        elif kw == ".gate":
            if len(tok) < 3:
                raise NetlistError("malformed .gate", lno)
            gname = tok[1]
            pin_map = {}
            for assign in tok[2:]:
                if "=" not in assign:
                    raise NetlistError(f"malformed pin binding '{assign}'", lno)
                pin, net = assign.split("=", 1)
                pin_map[pin.lower()] = net
            gate_records.append((lno, gname, pin_map))
            i += 1
        elif kw == ".end":
            i += 1
        elif kw == ".exdc":
            raise NetlistError(".exdc is not supported", lno)
        else:
            raise NetlistError(f"unsupported construct '{kw}'", lno)
    if not saw_model and not inputs and not outputs:
        raise NetlistError("not a BLIF file (no .model/.inputs/.outputs)")

    lits: dict[str, tuple[int, bool]] = {}
    for name in inputs:
        if name in lits:
            raise NetlistError(f"duplicate input '{name}'")
        lits[name] = (g.add_pi(name), False)

    # defer records until all their inputs are defined
    pending = [("names", r) for r in names_records] + [("gate", r) for r in gate_records]
    defined_by: dict[str, tuple] = {}
    for kind, rec in pending:
        if kind == "names":
            out = rec[1]
        else:
            pins = rec[2]
            outs = [n for p, n in pins.items() if p in ("o", "q", "y", "z", "out")]
            if not outs:
                raise NetlistError("cannot identify output pin of .gate", rec[0])
            out = outs[0]
        if out in defined_by or out in lits:
            raise NetlistError(f"signal '{out}' defined twice", rec[0])
        defined_by[out] = (kind, rec)

    def resolve(name: str, lno) -> tuple[int, bool]:
        """Literal of ``name``.  Its cone is built depth-first, inputs in
        order, on an explicit stack, so a chain of any depth parses."""
        on_path: set[str] = set()  # entered, inputs not yet all built
        stack = [(name, lno, None)]
        while stack:
            sig, ref, ins = stack.pop()
            if ins is not None:  # every input is built: build sig itself
                on_path.discard(sig)
                kind, rec = defined_by[sig]
                in_lits = [lits[n] for n in ins]
                if kind == "names":
                    lits[sig] = _build_sop(g, in_lits, rec[3])
                else:
                    lits[sig] = _GATE_EXPRS[rec[1].lower()][1](g, *in_lits)
                continue
            if sig in lits:
                continue
            if sig not in defined_by:
                raise NetlistError(f"undefined signal '{sig}'", ref)
            if sig in on_path:
                raise NetlistError(f"cyclic definition of '{sig}'", ref)
            on_path.add(sig)
            kind, rec = defined_by[sig]
            ins = _record_inputs(kind, rec)
            stack.append((sig, rec[0], ins))
            stack.extend((n, rec[0], None) for n in reversed(ins))
        return lits[name]

    if not outputs:
        raise NetlistError("no outputs declared")
    for name in outputs:
        g.add_po(resolve(name, None), name)
    g.sweep_dangling()
    return g


def _record_inputs(kind: str, rec) -> list[str]:
    """Input signal names of a BLIF record, in pin order."""
    if kind == "names":
        return rec[2]
    rlno, gname, pin_map = rec
    key = gname.lower()
    if key in ("dff", "dfff", "splitter", "split"):
        raise NetlistError(
            f"sequential or fanout cell '{gname}' not allowed in subject graph", rlno)
    if key not in _GATE_EXPRS:
        raise NetlistError(f"unknown gate '{gname}'", rlno)
    for p in _GATE_EXPRS[key][0]:
        if p not in pin_map:
            raise NetlistError(f"gate '{gname}' missing pin '{p}'", rlno)
    return [pin_map[p] for p in _GATE_EXPRS[key][0]]


def _build_sop(g: SubjectGraph, in_lits, cubes) -> tuple[int, bool]:
    """Sum-of-cubes body of a .names record, balanced decomposition."""
    if not in_lits:
        if not cubes:
            return g.const_lit(False)
        return g.const_lit(cubes[0][1] == "1")
    if not cubes:
        return g.const_lit(False)
    out_val = cubes[0][1]
    if any(v != out_val for _, v in cubes):
        raise NetlistError("mixed on-set/off-set cubes in one .names body")
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
    if out_val == "0":
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
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise NetlistError(f"non-numeric literal in {what} line",
                           idx + 1) from None


def _parse_aag(text: str) -> SubjectGraph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("aag"):
        raise NetlistError("not an ascii AIGER file", 1)
    hdr = lines[0].split()
    if len(hdr) < 6:
        raise NetlistError("malformed aag header", 1)
    try:
        m, ni, nl, no, na = (int(x) for x in hdr[1:6])
    except ValueError:
        raise NetlistError("malformed aag header", 1)
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

    lit_map: dict[int, tuple[int, bool]] = {0: g.const_lit(False), 1: g.const_lit(True)}
    for k, lit in enumerate(in_lits):
        if lit in lit_map:  # input k is on line k + 2
            raise NetlistError(f"literal {lit} defined twice", k + 2)
        nid = g.add_pi(in_names.get(k, f"i{k}"))
        lit_map[lit] = (nid, False)
        lit_map[lit ^ 1] = (nid, True)

    def lookup(lit, lno):
        if lit not in lit_map:
            raise NetlistError(f"undefined literal {lit}", lno)
        return lit_map[lit]

    for lno, lhs, rhs0, rhs1 in and_defs:
        if lhs % 2:
            raise NetlistError("and output literal must be even", lno)
        if lhs in lit_map:
            raise NetlistError(f"literal {lhs} defined twice", lno)
        out = g.add_and(lookup(rhs0, lno), lookup(rhs1, lno))
        lit_map[lhs] = out
        lit_map[lhs ^ 1] = _neg(out)
    for k, (lno, lit) in enumerate(out_lits):
        g.add_po(lookup(lit, lno), out_names.get(k, f"o{k}"))
    g.sweep_dangling()
    return g


def parse_netlist(text: str) -> SubjectGraph:
    """Parse ascii-AIGER source (text starting with ``aag``) or BLIF into a
    subject graph."""
    if text.lstrip().startswith("aag"):
        return _parse_aag(text)
    return _parse_blif(text)


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------


def _net_name(g: SubjectGraph, nid: int) -> str:
    if nid == CONST0:
        return "const0"
    if g.is_pi(nid):
        return g.pi_names[nid]
    return f"n{nid}"


def write_blif(g: SubjectGraph) -> str:
    out = [f".model {g.name}"]
    out.append(".inputs " + " ".join(g.pi_names[p] for p in g.pis))
    out.append(".outputs " + " ".join(g.po_names))
    if g.has_const and any(p == CONST0 for p, _ in g.pos):
        out.append(".names const0")  # empty body: constant 0
    for nid in g.topo_order():
        n = g.nodes[nid]
        a, b = n.fanin0, n.fanin1
        out.append(f".names {_net_name(g, a[0])} {_net_name(g, b[0])} n{nid}")
        out.append(("0" if a[1] else "1") + ("0" if b[1] else "1") + " 1")
    for name, (p, c) in zip(g.po_names, g.pos):
        src = _net_name(g, p)
        if p == CONST0:
            out.append(f".names {name}")
            if c:
                out.append("1")
        else:
            out.append(f".names {src} {name}")
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
