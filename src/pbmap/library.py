"""SFQ cell library: genlib parsing, supergate generation, Boolean matching.

The genlib dialect is the classic ``GATE <name> <area> <out>=<expr>;`` form
with ``PIN`` lines, extended by ``#JJ=<n>`` and ``#CLOCKED=<0|1>`` trailing
annotations (which double as comments for tools that ignore them).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import retime
from .truthtable import (MAX_VARS, apply_cell, symmetry_perms, table_mask,
                         tt_not, var_table)


class LibraryError(Exception):
    pass


@dataclass
class Cell:
    name: str
    n_inputs: int
    func: int | None  # truth table over n_inputs; None for dff/splitter
    area: float
    jj_count: int
    delay: float
    is_clocked: bool
    kind: str  # logic | dff | splitter | inverter
    pin_names: tuple[str, ...] = ()
    out_name: str = "o"


@dataclass
class CellLibrary:
    cells: list[Cell]
    name: str = "library"
    sfq_mode: bool = True

    def __post_init__(self):
        self.by_name = {c.name: c for c in self.cells}

    def logic_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.kind in ("logic", "inverter")]

    def _single(self, kind: str) -> Cell | None:
        for c in self.cells:
            if c.kind == kind:
                return c
        return None

    @property
    def inverter(self) -> Cell | None:
        return self._single("inverter")

    @property
    def dff(self) -> Cell | None:
        return self._single("dff")

    @property
    def splitter(self) -> Cell | None:
        return self._single("splitter")


# ----------------------------------------------------------------------
# genlib expression parsing
# ----------------------------------------------------------------------


class _ExprParser:
    """Recursive descent over genlib boolean expressions."""

    def __init__(self, text: str):
        self.tokens = re.findall(r"[A-Za-z_][A-Za-z_0-9]*|[!'*+^()]|0|1", text)
        self.pos = 0
        self.vars: list[str] = []

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr_or()
        if self.peek() is not None:
            raise LibraryError(f"trailing tokens in expression: {self.peek()}")
        return node

    def expr_or(self):
        node = self.expr_xor()
        while self.peek() == "+":
            self.take()
            node = ("or", node, self.expr_xor())
        return node

    def expr_xor(self):
        node = self.expr_and()
        while self.peek() == "^":
            self.take()
            node = ("xor", node, self.expr_and())
        return node

    def expr_and(self):
        node = self.expr_unary()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                node = ("and", node, self.expr_unary())
            elif tok is not None and (tok == "(" or tok == "!" or tok.isidentifier() or tok in "01"):
                node = ("and", node, self.expr_unary())  # juxtaposition
            else:
                return node

    def expr_unary(self):
        tok = self.take()
        if tok == "!":
            node = ("not", self.expr_unary())
        elif tok == "(":
            node = self.expr_or()
            if self.take() != ")":
                raise LibraryError("unbalanced parentheses in expression")
        elif tok in ("0", "1"):
            node = ("const", int(tok))
        elif tok is not None and tok.isidentifier():
            if tok not in self.vars:
                self.vars.append(tok)
            node = ("var", tok)
        else:
            raise LibraryError(f"unexpected token '{tok}' in expression")
        while self.peek() == "'":
            self.take()
            node = ("not", node)
        return node


def _eval_expr(node, var_index, nvars):
    mask = table_mask(nvars)
    op = node[0]
    if op == "var":
        return var_table(var_index[node[1]], nvars)
    if op == "const":
        return mask if node[1] else 0
    if op == "not":
        return tt_not(_eval_expr(node[1], var_index, nvars), nvars)
    a = _eval_expr(node[1], var_index, nvars)
    b = _eval_expr(node[2], var_index, nvars)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    raise LibraryError(f"bad expression node {op}")


# ----------------------------------------------------------------------
# genlib records
# ----------------------------------------------------------------------

_GATE_RE = re.compile(
    r"GATE\s+(?P<name>\S+)\s+(?P<area>[\d.eE+-]+)\s+(?P<out>\w+)\s*=\s*(?P<expr>[^;]+);",
    re.S,
)
_PIN_RE = re.compile(
    r"PIN\s+(?P<pin>\S+)\s+\S+\s+\S+\s+\S+\s+(?P<rb>[\d.eE+-]+)\s+\S+\s+(?P<fb>[\d.eE+-]+)\s+\S+"
)
_JJ_RE = re.compile(r"\bJJ\s*=\s*(\d+)")
_CLOCKED_RE = re.compile(r"\bCLOCKED\s*=\s*([01])")


def parse_library(text: str, name: str = "library", sfq_mode: bool = True) -> CellLibrary:
    # split into records at each GATE keyword
    starts = [m.start() for m in re.finditer(r"^\s*GATE\b", text, re.M)]
    if not starts:
        raise LibraryError("no GATE records found")
    records = [text[s:e] for s, e in zip(starts, starts[1:] + [len(text)])]

    cells = []
    seen = set()
    for rec in records:
        jj = _JJ_RE.search(rec)
        clocked = _CLOCKED_RE.search(rec)
        jj_count = int(jj.group(1)) if jj else 0
        is_clocked = bool(int(clocked.group(1))) if clocked else True
        # strip comments (annotations already captured)
        stripped = "\n".join(line.split("#")[0] for line in rec.splitlines())
        m = _GATE_RE.search(stripped)
        if not m:
            raise LibraryError(f"malformed GATE record: {rec.splitlines()[0]!r}")
        cname = m.group("name")
        if cname in seen:
            raise LibraryError(f"duplicate cell name '{cname}'")
        seen.add(cname)
        area = float(m.group("area"))
        parser = _ExprParser(m.group("expr"))
        tree = parser.parse()
        pin_delays = {p.group("pin"): max(float(p.group("rb")), float(p.group("fb")))
                      for p in _PIN_RE.finditer(stripped)}
        pins = list(parser.vars)
        nvars = len(pins)
        var_index = {v: i for i, v in enumerate(pins)}
        func = _eval_expr(tree, var_index, nvars) if nvars else None
        delay = max(pin_delays.values(), default=0.0)

        kind = "logic"
        lname = cname.lower()
        if nvars == 1 and func == var_table(0, 1):
            kind = "splitter" if (not is_clocked or "split" in lname) else "dff"
            func = None
        elif "split" in lname:
            kind = "splitter"
            func = None
        elif lname in ("dff", "dffr", "dffe") and nvars <= 1:
            kind = "dff"
            func = None
        elif nvars == 1 and func == tt_not(var_table(0, 1), 1):
            kind = "inverter"
        cells.append(Cell(cname, nvars, func, area, jj_count, delay,
                          is_clocked, kind, tuple(pins), m.group("out")))

    lib = CellLibrary(cells, name=name, sfq_mode=sfq_mode)
    if sfq_mode:
        _validate_sfq(lib)
    return lib


def _validate_sfq(lib: CellLibrary):
    for c in lib.cells:
        if c.kind in ("logic", "inverter") and c.n_inputs > 2:
            raise LibraryError(
                f"cell '{c.name}' has {c.n_inputs} logic inputs; SFQ mode allows at most 2")
    if lib.inverter is None:
        raise LibraryError("library has no inverter; mapping feasibility not guaranteed")
    and_like = {0b1000, 0b0111}  # and2 / nand2
    if not any(c.kind == "logic" and c.n_inputs == 2 and c.func in and_like
               for c in lib.cells):
        raise LibraryError("library has no (N)AND-capable cell")
    if lib.dff is None:
        raise LibraryError("library has no DFF cell (required for path balancing)")
    if lib.splitter is None:
        raise LibraryError("library has no splitter cell (required for fanout)")


# ----------------------------------------------------------------------
# supergates
# ----------------------------------------------------------------------

# supergates kept before generation stops (GenerationStats.budget_exhausted)
SUPERGATE_BUDGET = 4000
# alternatives kept per function beside its best representative
RUNNER_UPS = 4


@dataclass
class Supergate:
    root_cell: Cell
    children: tuple  # per input: int (leaf index) or Supergate
    n_inputs: int
    func: int
    area: float
    jj_count: int
    depth: int
    leaf_depths: tuple[int, ...]
    name: str
    # (children - 1, leaf positions below) per cell with two or more
    # children, the root included: the terms of retimed_match_dffs
    groups: tuple = field(repr=False, compare=False)
    internal_dffs: int = 0
    struct_level: int = 1  # cell-tree height; depth counts clocked cells only

    def __hash__(self):
        return hash((self.name, self.n_inputs, self.func))


def _render_name(root: Cell, children: tuple, base: int = 0) -> str:
    parts = []
    pos = base
    for ch in children:
        if isinstance(ch, Supergate):
            parts.append(_render_name(ch.root_cell, ch.children, pos))
            pos += ch.n_inputs
        else:
            parts.append(f"x{pos}")
            pos += 1
    return f"{root.name}({','.join(parts)})"


def _compose(root: Cell, children: tuple) -> Supergate:
    """Build a supergate from a root cell and child slots (None = leaf).
    Its ``groups`` and ``internal_dffs`` come from its children's: with all
    leaves at height 0, each child pads from its own arrival (``bump`` for a
    leaf, ``depth + bump`` for a supergate) up to the root's depth."""
    leaf_depths: list[int] = []
    child_objs = []
    groups = []
    internal = 0
    child_arrivals = []
    area = root.area
    jj = root.jj_count
    offset = 0
    bump = 1 if root.is_clocked else 0
    for ch in children:
        if ch is None:
            child_objs.append(offset)
            leaf_depths.append(bump)
            child_arrivals.append(bump)
            offset += 1
        else:
            child_objs.append(ch)
            leaf_depths.extend(d + bump for d in ch.leaf_depths)
            groups.extend((w, tuple(p + offset for p in pos))
                          for w, pos in ch.groups)
            internal += ch.internal_dffs
            child_arrivals.append(ch.depth + bump)
            area += ch.area
            jj += ch.jj_count
            offset += ch.n_inputs
    n = offset
    depth = max(leaf_depths)
    if len(children) > 1:
        groups.append((len(children) - 1, tuple(range(n))))
    child_tts = []
    pos = 0
    for ch in children:
        if ch is None:
            child_tts.append(var_table(pos, n))
            pos += 1
        else:
            child_tts.append(apply_cell(
                ch.func, [var_table(pos + i, n) for i in range(ch.n_inputs)], n))
            pos += ch.n_inputs
    func = apply_cell(root.func, child_tts, n)
    return Supergate(
        root_cell=root,
        children=tuple(child_objs),
        n_inputs=n,
        func=func,
        area=area,
        jj_count=jj,
        depth=depth,
        leaf_depths=tuple(leaf_depths),
        name=_render_name(root, tuple(children)),
        internal_dffs=internal + sum(depth - a for a in child_arrivals),
        struct_level=1 + max((c.struct_level for c in children if c is not None),
                             default=0),
        groups=tuple(groups),
    )


def _sort_key(sg: Supergate):
    return (sg.internal_dffs, sg.depth, sg.area, sg.jj_count, sg.name)


@dataclass
class GenerationStats:
    generated: int = 0
    kept: int = 0
    budget_exhausted: bool = False


def generate_supergates(lib: CellLibrary, k: int = 5, max_depth: int = 3,
                        stats: GenerationStats | None = None) -> list[Supergate]:
    """Exhaustive breadth-first composition of library gates up to
    ``max_depth`` levels and ``k`` inputs, stopping once
    ``SUPERGATE_BUDGET`` are kept.

    Duplicate functions keep the best (internal_dffs, depth, area)
    representative plus up to ``RUNNER_UPS`` alternatives with distinct
    leaf-depth profiles (the DP needs non-minimal-height choices too).
    """
    if k > MAX_VARS:
        raise ValueError(f"k must be at most {MAX_VARS}")
    stats = stats or GenerationStats()
    roots = sorted(lib.logic_cells(), key=lambda c: c.name)
    identity = var_table(0, 1)

    by_func: dict[tuple[int, int], list[Supergate]] = {}
    kept_total = 0

    def keep(sg: Supergate) -> bool:
        nonlocal kept_total
        if sg.n_inputs == 1 and sg.func == identity:
            return False  # inv(inv(x)) and friends
        mask = table_mask(sg.n_inputs)
        if sg.func in (0, mask):
            return False
        bucket = by_func.setdefault((sg.n_inputs, sg.func), [])
        if any(o.leaf_depths == sg.leaf_depths and _sort_key(o) <= _sort_key(sg)
               for o in bucket):
            return False
        bucket.append(sg)
        bucket.sort(key=_sort_key)
        if len(bucket) > 1 + RUNNER_UPS:
            bucket.pop()
            return sg in bucket
        kept_total += 1
        return True

    levels: list[list[Supergate]] = []
    current = []
    for cell in roots:
        if cell.n_inputs == 0:
            continue
        sg = _compose(cell, tuple(None for _ in range(cell.n_inputs)))
        stats.generated += 1
        if keep(sg):
            current.append(sg)
    levels.append(sorted(current, key=_sort_key))

    for level in range(2, max_depth + 1):
        prev_pool = [sg for lv in levels for sg in lv]
        newcomers = []
        done = False
        for cell in roots:
            if done:
                break
            # child options: None (leaf) or any kept supergate of lower level
            opts: list = [None] + prev_pool
            if cell.n_inputs == 1:
                combos = ((a,) for a in opts)
            else:
                combos = ((a, b) for a in opts for b in opts)
            for combo in combos:
                child_levels = [0 if c is None else c.struct_level for c in combo]
                if max(child_levels) != level - 1:
                    continue  # must use at least one child from the frontier
                width = sum(1 if c is None else c.n_inputs for c in combo)
                if width > k:
                    continue
                sg = _compose(cell, combo)
                stats.generated += 1
                if keep(sg):
                    newcomers.append(sg)
                if kept_total >= SUPERGATE_BUDGET:
                    stats.budget_exhausted = True
                    done = True
                    break
        levels.append(sorted(newcomers, key=_sort_key))
        if done:
            break

    result = [sg for lv in levels for sg in lv]
    # drop entries evicted from their bucket after being added to a level
    result = [sg for sg in result if sg in by_func.get((sg.n_inputs, sg.func), ())]
    result.sort(key=lambda s: (s.n_inputs, s.func, _sort_key(s)))
    stats.kept = len(result)
    return result


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------


def _profiles(sg: Supergate, func: int, base: tuple[int, ...]):
    """Distinct wirings of ``sg`` onto a cut of function ``func`` whose leaves
    arrive at ``base``: one (perm, root_height, retimed_dffs) entry per
    distinct permuted height profile ``tuple(base[p] for p in perm)``, in
    first-occurrence order over ``symmetry_perms`` (frontier tie-breaking
    depends on that order).  The profiles themselves are not kept; a caller
    rebuilds one only for a candidate it keeps, so the cache holds no height
    tuples.  Cached per table by ``MatchTable.profiles``."""
    depths = sg.leaf_depths
    seen = set()
    out = []
    for perm in symmetry_perms(func, len(base)):
        heights = tuple(base[p] for p in perm)
        if heights in seen:
            continue
        seen.add(heights)
        height = max(h + d for h, d in zip(heights, depths))
        out.append((perm, height, retime.retimed_match_dffs(sg, heights)))
    return tuple(out)


class MatchTable:
    """Exact-function lookup from canonical cut truth tables to supergates,
    with the wiring table of its supergates (``profiles``, see
    ``_profiles``): it lives and is freed with the table."""

    def __init__(self, supergates: list[Supergate]):
        self.table: dict[tuple[int, int], list[Supergate]] = {}
        for sg in supergates:
            self.table.setdefault((sg.n_inputs, sg.func), []).append(sg)
        for lst in self.table.values():
            lst.sort(key=_sort_key)
        self.supergates = supergates
        self.profiles = functools.lru_cache(maxsize=None)(_profiles)

    def lookup(self, func: int, nvars: int, phase: str = "positive") -> list[Supergate]:
        if phase == "negative":
            func = tt_not(func, nvars)
        elif phase != "positive":
            raise ValueError(f"unknown phase '{phase}'")
        return self.table.get((nvars, func), [])


def hit_rate(cutsets, table: MatchTable) -> float:
    """Fraction of non-trivial cuts whose function has at least one match."""
    total = 0
    hits = 0
    for nid, cs in cutsets.items():
        for cut in cs.cuts:
            if cut.is_trivial_for(nid):
                continue
            if cut.func is None:
                raise ValueError("cut functions not computed")
            total += 1
            if table.lookup(cut.func, len(cut.leaves)):
                hits += 1
    return hits / total if total else 0.0
