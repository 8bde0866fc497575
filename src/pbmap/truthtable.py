"""Truth tables packed into Python ints.

Tables are indexed by minterm: bit ``m`` of a table over ``n`` variables is
the function value when variable ``i`` has value ``(m >> i) & 1``.  With
``n <= 6`` every table fits in a single 64-bit word.
"""

import functools
import itertools

MAX_VARS = 6


def table_mask(nvars: int) -> int:
    return (1 << (1 << nvars)) - 1


def projection(var: int, nvars: int) -> int:
    """Table of the bare variable ``var`` over an ``nvars`` input space."""
    if not 0 <= var < nvars:
        raise ValueError(f"variable {var} out of range for {nvars} inputs")
    tt = 0
    for m in range(1 << nvars):
        if (m >> var) & 1:
            tt |= 1 << m
    return tt


# cache: _PROJ[nvars][var]
_PROJ = [[projection(v, n) for v in range(n)] for n in range(MAX_VARS + 1)]


def var_table(var: int, nvars: int) -> int:
    return _PROJ[nvars][var]


def tt_not(tt: int, nvars: int) -> int:
    return ~tt & table_mask(nvars)


def tt_eval(tt: int, assignment: int) -> int:
    """Value of the function at the minterm index ``assignment``."""
    return (tt >> assignment) & 1


def tt_eval_packed(tt: int, nvars: int, ins: list[int], mask: int) -> int:
    """Bit-parallel evaluation: each input is a packed word of samples."""
    acc = 0
    for m in range(1 << nvars):
        if (tt >> m) & 1:
            term = mask
            for i, v in enumerate(ins):
                term &= v if (m >> i) & 1 else ~v
            acc |= term
    return acc & mask


def apply_cell(cell_tt: int, child_tts: list[int], nvars: int) -> int:
    """Compose a cell's table with per-input tables over a shared space.

    ``cell_tt`` is over ``len(child_tts)`` inputs; the children are tables
    over the combined ``nvars`` space.  Returns the composed table.
    """
    mask = table_mask(nvars)
    out = 0
    for m in range(1 << len(child_tts)):
        if not (cell_tt >> m) & 1:
            continue
        term = mask
        for i, child in enumerate(child_tts):
            term &= child if (m >> i) & 1 else ~child & mask
        out |= term
    return out


def support(tt: int, nvars: int) -> tuple[int, ...]:
    """Indices of variables the function actually depends on."""
    deps = []
    for v in range(nvars):
        hi = 0
        lo = 0
        for m in range(1 << nvars):
            bit = (tt >> m) & 1
            if (m >> v) & 1:
                hi |= bit << (m & ~(1 << v))
            else:
                lo |= bit << m
        if hi != lo:
            deps.append(v)
    return tuple(deps)


@functools.lru_cache(maxsize=None)
def symmetry_perms(tt: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Input permutations under which the function is invariant.

    A permutation ``p`` is listed when feeding input ``p[j]`` into slot ``j``
    reproduces the same function; these are exactly the valid alternative
    wirings of a gate that realizes ``tt``.  The identity is always included.
    """
    perms = []
    for perm in itertools.permutations(range(nvars)):
        ok = True
        for m in range(1 << nvars):
            y = 0
            for j, src in enumerate(perm):
                y |= ((m >> src) & 1) << j
            if ((tt >> y) & 1) != ((tt >> m) & 1):
                ok = False
                break
        if ok:
            perms.append(perm)
    return tuple(perms)
