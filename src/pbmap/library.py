"""SFQ cell library: genlib parsing, supergate generation, Boolean matching.

The genlib dialect is the classic ``GATE <name> <area> <out>=<expr>;`` form
with ``PIN`` lines, extended by ``#JJ=<n>`` and ``#CLOCKED=<0|1>`` trailing
annotations (which double as comments for tools that ignore them).  ``PIN``
lines are accepted but not read: a clocked cell is one level, whatever its
pin delays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import add

import numpy as np

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
    is_clocked: bool
    kind: str  # logic | dff | splitter | inverter
    pin_names: tuple[str, ...] = ()
    out_name: str = "o"


@dataclass
class CellLibrary:
    cells: list[Cell]
    name: str = "library"

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
    """Recursive descent over genlib boolean expressions.  Each rule returns
    the truth table of what it parsed over ``MAX_VARS`` variables, numbered
    by first use in ``vars``; a variable past ``MAX_VARS`` reads as 0, so a
    syntax error is found before the caller counts the inputs."""

    def __init__(self, text: str):
        # any other character is a token of its own, which no rule accepts
        self.tokens = re.findall(r"[A-Za-z_][A-Za-z_0-9]*|[!'*+^()]|0|1|\S",
                                 text)
        self.pos = 0
        self.vars: list[str] = []

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> int:
        tt = self.expr_or()
        if self.peek() is not None:
            raise LibraryError(f"trailing tokens in expression: {self.peek()}")
        return tt

    def expr_or(self) -> int:
        tt = self.expr_xor()
        while self.peek() == "+":
            self.take()
            tt |= self.expr_xor()
        return tt

    def expr_xor(self) -> int:
        tt = self.expr_and()
        while self.peek() == "^":
            self.take()
            tt ^= self.expr_and()
        return tt

    def expr_and(self) -> int:
        tt = self.expr_unary()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                tt &= self.expr_unary()
            elif tok is not None and (tok == "(" or tok == "!" or tok.isidentifier() or tok in "01"):
                tt &= self.expr_unary()  # juxtaposition
            else:
                return tt

    def expr_unary(self) -> int:
        tok = self.take()
        if tok == "!":
            tt = tt_not(self.expr_unary(), MAX_VARS)
        elif tok == "(":
            tt = self.expr_or()
            if self.take() != ")":
                raise LibraryError("unbalanced parentheses in expression")
        elif tok in ("0", "1", "CONST0", "CONST1"):  # genlib's constants
            tt = table_mask(MAX_VARS) if tok[-1] == "1" else 0
        elif tok is not None and tok.isidentifier():
            if tok not in self.vars:
                self.vars.append(tok)
            i = self.vars.index(tok)
            tt = var_table(i, MAX_VARS) if i < MAX_VARS else 0
        else:
            raise LibraryError(f"unexpected token '{tok}' in expression")
        while self.peek() == "'":
            self.take()
            tt = tt_not(tt, MAX_VARS)
        return tt


# ----------------------------------------------------------------------
# genlib records
# ----------------------------------------------------------------------

_GATE_RE = re.compile(
    r"GATE\s+(?P<name>\S+)\s+(?P<area>[\d.eE+-]+)\s+(?P<out>\w+)\s*=\s*(?P<expr>[^;]+);",
    re.S,
)
_JJ_RE = re.compile(r"\bJJ\s*=\s*(\S*)")
_CLOCKED_RE = re.compile(r"\bCLOCKED\s*=[ \t]*(\w*)")


def parse_library(text: str, name: str = "library") -> CellLibrary:
    """The cell library of genlib ``text``, checked to be one the flow can
    map onto (see ``_validate_sfq``)."""
    # split into records at each GATE keyword
    starts = [m.start() for m in re.finditer(r"^\s*GATE\b", text, re.M)]
    if not starts:
        raise LibraryError("no GATE records found")
    records = [text[s:e] for s, e in zip(starts, starts[1:] + [len(text)])]

    cells = []
    seen = set()
    for rec in records:
        lines = rec.splitlines()
        stripped = "\n".join(line.split("#")[0] for line in lines)
        m = _GATE_RE.search(stripped)
        if not m:
            # rec starts where ^\s*GATE matched, so blank lines may lead it
            raise LibraryError(
                f"malformed GATE record: {rec.strip().splitlines()[0]!r}")
        # annotations are read from the statement's own lines, through the
        # one holding its ';', never from a comment before the next GATE
        own = "\n".join(lines[:stripped.count("\n", 0, m.end()) + 1])
        jj = _JJ_RE.search(own)
        clocked = _CLOCKED_RE.search(own)
        cname = m.group("name")
        if cname in seen:
            raise LibraryError(f"duplicate cell name '{cname}'")
        seen.add(cname)
        try:
            area = float(m.group("area"))
        except ValueError:
            raise LibraryError(f"cell '{cname}' has a non-numeric area "
                               f"{m.group('area')!r}") from None
        if not math.isfinite(area):  # an overflow, e.g. 1e400
            raise LibraryError(f"cell '{cname}' has a non-finite area "
                               f"{m.group('area')!r}")
        if area < 0:
            raise LibraryError(f"cell '{cname}' has a negative area "
                               f"{m.group('area')!r}")
        if jj and not jj.group(1).isdecimal():  # e.g. JJ=-6 or JJ=x
            raise LibraryError(f"cell '{cname}' has an unreadable JJ count "
                               f"{jj.group(1)!r}")
        jj_count = int(jj.group(1)) if jj else 0
        if clocked and clocked.group(1) not in ("0", "1"):  # e.g. CLOCKED=2
            raise LibraryError(f"cell '{cname}' has an unreadable CLOCKED "
                               f"flag {clocked.group(1)!r}")
        is_clocked = clocked.group(1) == "1" if clocked else True
        parser = _ExprParser(m.group("expr"))
        try:
            tt = parser.parse()
        except LibraryError as err:
            raise LibraryError(f"cell '{cname}': {err}") from None
        pins = parser.vars
        nvars = len(pins)
        if nvars > MAX_VARS:
            raise LibraryError(f"cell '{cname}' has {nvars} inputs; at most "
                               f"{MAX_VARS} are supported")
        func = tt & table_mask(nvars) if nvars else None

        kind = "logic"  # from the function; a name only marks a splitter
        if nvars == 1 and func == var_table(0, 1):
            split = not is_clocked or "split" in cname.lower()
            kind, func = ("splitter" if split else "dff"), None
        elif nvars == 1 and func == tt_not(var_table(0, 1), 1):
            kind = "inverter"
        cells.append(Cell(cname, nvars, func, area, jj_count,
                          is_clocked, kind, tuple(pins), m.group("out")))

    lib = CellLibrary(cells, name=name)
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

    @cached_property
    def dff_terms(self) -> tuple:
        """The terms of ``retimed_match_dffs``, taken once per supergate
        that is matched, not per one generated: 1 plus the weight of the
        groups spanning every leaf, the sum of the leaf depths, and the
        other groups."""
        n = self.n_inputs
        return (1 + sum(w for w, pos in self.groups if len(pos) == n),
                sum(self.leaf_depths),
                tuple(g for g in self.groups if len(g[1]) < n))


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
    n = sum(1 if ch is None else ch.n_inputs for ch in children)
    mask = table_mask(n)
    leaf_depths: list[int] = []
    child_objs = []
    child_tts = []
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
            child_tts.append(var_table(offset, n))
            leaf_depths.append(bump)
            child_arrivals.append(bump)
            offset += 1
        else:
            child_objs.append(ch)
            child_tts.append(apply_cell(
                ch.func, [var_table(offset + i, n) for i in range(ch.n_inputs)],
                mask))
            leaf_depths.extend(d + bump for d in ch.leaf_depths)
            groups.extend((w, tuple(p + offset for p in pos))
                          for w, pos in ch.groups)
            internal += ch.internal_dffs
            child_arrivals.append(ch.depth + bump)
            area += ch.area
            jj += ch.jj_count
            offset += ch.n_inputs
    depth = max(leaf_depths)
    if len(children) > 1:
        groups.append((len(children) - 1, tuple(range(n))))
    func = apply_cell(root.func, child_tts, mask)
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


def retimed_match_dffs(supergate, heights) -> int:
    """Minimum DFFs to balance a supergate whose leaves arrive at the given
    clocked heights, with registers placed anywhere inside the match.

    With every leaf's common slack pushed up, a cell ``v`` pads each child
    ``c`` by ``M_v - M_c``, where ``M`` is the latest leaf arrival
    ``a_i = h_i + leaf_depths[i]`` below it (a leaf's own for a leaf).
    Summed over the cells this telescopes to
    ``T - sum(a) + sum_v (c_v - 1) * M_v`` with ``T = max(a)``, over the
    cells with ``c_v >= 2`` children: ``supergate.groups``.  A group that
    spans every leaf has ``M_v = T``, so it is evaluated as
    ``(1 + w) * T - sum(h) - sum(leaf_depths) + sum_g w_g * M_g``, ``w``
    the weight of those groups and ``g`` the others
    (``Supergate.dff_terms``)."""
    if len(heights) != supergate.n_inputs:
        raise ValueError("leaf height count does not match supergate inputs")
    full, depth_sum, others = supergate.dff_terms
    arrivals = list(map(add, heights, supergate.leaf_depths))
    regs = full * max(arrivals) - sum(heights) - depth_sum
    for weight, positions in others:
        regs += weight * max([arrivals[i] for i in positions])
    return regs


def _sort_key(sg: Supergate):
    return (sg.internal_dffs, sg.depth, sg.area, sg.jj_count, sg.name)


def _child_tuples(opts: list, widths: list[int], slots: int, room: int,
                  prefix: tuple = ()):
    """``prefix`` extended by each tuple of ``itertools.product(opts,
    repeat=slots)`` at most ``room`` leaves wide, in the product's order;
    an option is ``None`` (one leaf) or a supergate, of width ``widths[i]``.
    A prefix is dropped as soon as it leaves too little width for one leaf
    per slot still open, so no wider tuple is built."""
    if slots == 1:
        for o, w in zip(opts, widths):
            if w <= room:
                yield prefix + (o,)
        return
    for o, w in zip(opts, widths):
        if w + slots - 1 <= room:
            yield from _child_tuples(opts, widths, slots - 1, room - w,
                                     prefix + (o,))


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
    roots = sorted((c for c in lib.logic_cells() if c.n_inputs),
                   key=lambda c: c.name)
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

    pool: list[Supergate] = []  # kept by an earlier level, evicted or not
    done = False
    for level in range(1, max_depth + 1):
        # child options: None (leaf) or any supergate of a lower level
        opts: list = [None] + pool
        widths = [1 if o is None else o.n_inputs for o in opts]
        newcomers = []
        for cell in roots:
            if done:
                break
            for combo in _child_tuples(opts, widths, cell.n_inputs, k):
                child_levels = [0 if c is None else c.struct_level for c in combo]
                if max(child_levels) != level - 1:
                    continue  # must use at least one child from the frontier
                sg = _compose(cell, combo)
                stats.generated += 1
                if keep(sg):
                    newcomers.append(sg)
                if kept_total >= SUPERGATE_BUDGET:
                    stats.budget_exhausted = True
                    done = True
                    break
        pool += sorted(newcomers, key=_sort_key)
        if done:
            break

    # the buckets hold exactly the kept supergates not evicted since
    result = sorted((sg for bucket in by_func.values() for sg in bucket),
                    key=lambda s: (s.n_inputs, s.func, _sort_key(s)))
    stats.kept = len(result)
    return result


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------


def dominates(height: int, dffs: int, height2: int, dffs2: int) -> bool:
    """Whether a (height, dffs) frontier point makes one at (height2, dffs2)
    redundant: it arrives no later and needs no more DFFs.  The DP's
    frontier insert and ``MatchTable.options`` both prune by this one test;
    it is shift-invariant in dffs, so options that share their leaves' DFF
    sum can be pruned before that sum is added."""
    return height <= height2 and dffs <= dffs2


def _prune_options(entries) -> tuple:
    """The (height, sg_dffs, supergate, perm) ``entries`` of one leaf choice,
    in order, less those that cannot reach a frontier whatever the choice's
    leaf costs: an entry strictly dominated in (height, sg_dffs) by another,
    and one equal in (height, sg_dffs) to an earlier entry of the same
    supergate, which ties it in area and JJs too.  Equal entries of
    different supergates are kept: the frontier breaks their tie on area
    summed with the leaves', and float sums can round two areas together."""
    front: list[tuple[int, int]] = []  # the undominated (height, sg_dffs)
    for h, d, _, _ in entries:
        if not any(dominates(fh, fd, h, d) for fh, fd in front):
            front = [(fh, fd) for fh, fd in front
                     if not dominates(h, d, fh, fd)] + [(h, d)]
    seen = set()
    kept = []
    for entry in entries:
        key = (entry[0], entry[1], id(entry[2]))
        if key[:2] in front and key not in seen:
            seen.add(key)
            kept.append(entry)
    return tuple(kept)


class MatchTable:
    """Exact-function lookup from canonical cut truth tables to supergates,
    with two wiring caches that live and are freed with the table:
    ``wirings`` per cut function and pattern of equal leaf heights, and
    ``options``, built from it for the DP, one pruned list per cut function
    and leaf heights."""

    def __init__(self, supergates: list[Supergate]):
        self.table: dict[tuple[int, int], list[Supergate]] = {}
        for sg in supergates:
            self.table.setdefault((sg.n_inputs, sg.func), []).append(sg)
        for lst in self.table.values():
            lst.sort(key=_sort_key)
        # per cut width, the functions held, sorted as int64 bits
        self.funcs = [np.unique(np.array([f for n, f in self.table if n == w],
                                         np.uint64).view(np.int64))
                      for w in range(MAX_VARS + 1)]
        self.supergates = supergates
        self.wiring_cache: dict[tuple, tuple] = {}
        self.option_cache: dict[tuple, tuple] = {}

    def lookup(self, func: int, nvars: int) -> list[Supergate]:
        return self.table.get((nvars, func), [])

    def holds(self, widths: np.ndarray, funcs: np.ndarray) -> np.ndarray:
        """Whether ``lookup`` finds a supergate for each (width, func) of the
        two arrays, a function given as the int64 bits of its table."""
        held = np.zeros(len(funcs), bool)
        for w, known in enumerate(self.funcs):
            rows = (widths == w).nonzero()[0]
            if len(rows) and len(known):
                f = funcs[rows]
                at = known.searchsorted(f).clip(max=len(known) - 1)
                held[rows] = known[at] == f
        return held

    def wirings(self, func: int, base: tuple[int, ...]) -> tuple:
        """The perms of ``symmetry_perms(func, len(base))`` that give the
        distinct permuted height profiles ``tuple(base[p] for p in perm)``,
        each the first to give its profile (frontier tie-breaking depends on
        that order).  Which perms those are depends only on which leaf
        heights are equal, so they are cached per (func, equality pattern
        of ``base``)."""
        pattern = tuple(base.index(h) for h in base)
        key = (func, pattern)
        perms = self.wiring_cache.get(key)
        if perms is None:
            seen = set()
            perms = []
            for perm in symmetry_perms(func, len(base)):
                profile = tuple(pattern[p] for p in perm)
                if profile not in seen:
                    seen.add(profile)
                    perms.append(perm)
            perms = self.wiring_cache[key] = tuple(perms)
        return perms

    def options(self, func: int, base: tuple[int, ...]) -> tuple:
        """Every (height, sg_dffs, supergate, perm) that realizes ``func``
        over leaves arriving at ``base``: the supergates in ``lookup`` order,
        each wired onto the leaves by every perm of ``wirings(func, base)``
        in order (leaf ``perm[i]`` to input i), pruned by
        ``_prune_options``.  Cached per table."""
        key = (func, base)
        opts = self.option_cache.get(key)
        if opts is None:
            perms = self.wirings(func, base)
            entries = []
            for sg in self.lookup(func, len(base)):
                for perm in perms:
                    heights = tuple([base[p] for p in perm])
                    entries.append((max(map(add, heights, sg.leaf_depths)),
                                    retimed_match_dffs(sg, heights), sg, perm))
            opts = self.option_cache[key] = _prune_options(entries)
        return opts


def hit_rate(cutsets, table: MatchTable) -> float:
    """Fraction of the non-trivial cuts of ``cutsets``, a ``cuts.CutSets``,
    whose function has at least one match, read from the kernel's rows."""
    trivial = cutsets.off[list(cutsets)]
    held = table.holds(cutsets.width, cutsets.func)
    held[trivial] = False
    total = len(held) - len(trivial)
    return int(held.sum()) / total if total else 0.0
