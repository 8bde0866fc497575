import random

from hypothesis import given
from hypothesis import strategies as st

import itertools

from pbmap.truthtable import (MAX_VARS, apply_cell, projection,
                              symmetry_perms, table_mask, tt_eval, tt_not,
                              var_table)


def test_table_mask_widths():
    assert table_mask(0) == 0b1
    assert table_mask(1) == 0b11
    assert table_mask(2) == 0xF
    assert table_mask(6) == (1 << 64) - 1


def test_projection_matches_definition():
    for n in range(1, MAX_VARS + 1):
        for v in range(n):
            tt = projection(v, n)
            for m in range(1 << n):
                assert tt_eval(tt, m) == (m >> v) & 1


def test_var_table_cache_consistent():
    for n in range(MAX_VARS + 1):
        for v in range(n):
            assert var_table(v, n) == projection(v, n)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_tt_not_involutive(n, data):
    tt = data.draw(st.integers(min_value=0, max_value=table_mask(n)))
    assert tt_not(tt_not(tt, n), n) == tt
    for m in range(1 << n):
        assert tt_eval(tt_not(tt, n), m) == 1 - tt_eval(tt, m)


def test_apply_cell_on_packed_patterns_matches_scalar():
    # the inputs are bit-parallel samples, not tables: the mask is theirs
    rng = random.Random(1)
    for n in range(1, 5):
        width = 16
        mask = (1 << width) - 1
        for _ in range(20):
            tt = rng.randrange(table_mask(n) + 1)
            ins = [rng.randrange(mask + 1) for _ in range(n)]
            packed = apply_cell(tt, ins, mask)
            for bit in range(width):
                m = sum(((ins[i] >> bit) & 1) << i for i in range(n))
                assert (packed >> bit) & 1 == tt_eval(tt, m)


def test_apply_cell_composes_and_of_ors():
    # cell = 2-input AND, children = (x0 | x1), (x2 | x3) over 4 vars
    and2 = 0b1000
    or01 = var_table(0, 4) | var_table(1, 4)
    or23 = var_table(2, 4) | var_table(3, 4)
    got = apply_cell(and2, [or01, or23], table_mask(4))
    assert got == or01 & or23


def test_apply_cell_random_against_pointwise():
    rng = random.Random(7)
    for _ in range(30):
        nvars = rng.randint(1, 4)
        arity = rng.randint(1, 3)
        cell = rng.randrange(table_mask(arity) + 1)
        children = [rng.randrange(table_mask(nvars) + 1) for _ in range(arity)]
        got = apply_cell(cell, children, table_mask(nvars))
        for m in range(1 << nvars):
            idx = sum(tt_eval(c, m) << i for i, c in enumerate(children))
            assert tt_eval(got, m) == tt_eval(cell, idx)


def test_symmetry_perms_known_functions():
    # fully symmetric: AND2, AND3
    assert symmetry_perms(0b1000, 2) == ((0, 1), (1, 0))
    assert len(symmetry_perms(0x80, 3)) == 6
    # a & !b admits only the identity wiring
    assert symmetry_perms(0b0010, 2) == ((0, 1),)
    # mux(a, b, s) = s ? b : a over (x0, x1, x2): no nontrivial symmetry
    mux = 0
    for m in range(8):
        sel = (m >> 2) & 1
        if (m >> (1 if sel else 0)) & 1:
            mux |= 1 << m
    assert symmetry_perms(mux, 3) == ((0, 1, 2),)


def test_symmetry_perms_invariance_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        tt = rng.randrange(table_mask(n) + 1)
        got = set(symmetry_perms(tt, n))
        for perm in itertools.permutations(range(n)):
            same = True
            for m in range(1 << n):
                y = sum(((m >> perm[j]) & 1) << j for j in range(n))
                if tt_eval(tt, y) != tt_eval(tt, m):
                    same = False
                    break
            assert (perm in got) == same
