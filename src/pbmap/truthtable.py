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


def apply_cell(cell_tt: int, ins: list[int], mask: int) -> int:
    """Compose a cell's table with one packed word per input.

    ``cell_tt`` is over ``len(ins)`` inputs.  The inputs are tables over a
    shared variable space, or bit-parallel samples; ``mask`` keeps the
    table's (``table_mask``) or the samples' bits of the result.
    """
    out = 0
    for m in range(1 << len(ins)):
        if not (cell_tt >> m) & 1:
            continue
        term = mask
        for i, v in enumerate(ins):
            term &= v if (m >> i) & 1 else ~v
        out |= term
    return out


@functools.lru_cache(maxsize=None)
def _permuted_minterms(nvars: int) -> tuple:
    """(perm, ys) per permutation of ``nvars`` inputs, in
    ``itertools.permutations`` order: minterm ``ys[m]`` sets bit ``j`` to
    bit ``perm[j]`` of minterm ``m``."""
    return tuple(
        (perm, tuple(sum(((m >> src) & 1) << j for j, src in enumerate(perm))
                     for m in range(1 << nvars)))
        for perm in itertools.permutations(range(nvars)))


@functools.lru_cache(maxsize=None)
def symmetry_perms(tt: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Input permutations under which the function is invariant.

    A permutation ``p`` is listed when feeding input ``p[j]`` into slot ``j``
    reproduces the same function; these are exactly the valid alternative
    wirings of a gate that realizes ``tt``.  The identity is always included.
    """
    bits = [(tt >> m) & 1 for m in range(1 << nvars)]
    return tuple(perm for perm, ys in _permuted_minterms(nvars)
                 if [bits[y] for y in ys] == bits)
