"""Built-in benchmark circuits: a 4-bit Kogge-Stone adder and a small
corpus of structured circuits used by the regression suite and the CLI
examples."""

from __future__ import annotations

from .netlist import (SubjectGraph, _and_op, _neg, _or_op, _xor_op,
                      balanced_reduce, random_aig)


def kogge_stone_adder(width: int) -> SubjectGraph:
    """Kogge-Stone adder with carry-in: s0..s{w-1}, cout.

    Generate/propagate pairs (carry-in as prefix element 0) feed the dense
    log-depth parallel-prefix tree; the combine is g_out = g_hi + p_hi*g_lo,
    p_out = p_hi*p_lo.
    """
    g = SubjectGraph(name=f"ksa{width}")
    a = [(g.add_pi(f"a{i}"), False) for i in range(width)]
    b = [(g.add_pi(f"b{i}"), False) for i in range(width)]
    cin = (g.add_pi("cin"), False)

    gen = [_and_op(g, a[i], b[i]) for i in range(width)]
    pro = [_xor_op(g, a[i], b[i]) for i in range(width)]

    def combine(hi, lo):
        gh, ph = hi
        gl, pl = lo
        return (_or_op(g, gh, _and_op(g, ph, gl)), _and_op(g, ph, pl))

    m = width + 1
    cur = [(cin, g.const_lit(False))] + list(zip(gen, pro))
    dist = 1
    while dist < m:
        cur = [combine(cur[i], cur[i - dist]) if i >= dist else cur[i]
               for i in range(m)]
        dist *= 2
    carries = [pr[0] for pr in cur]  # carries[i] = carry into bit i

    for i in range(width):
        g.add_po(_xor_op(g, pro[i], carries[i]), f"s{i}")
    g.add_po(carries[width], "cout")
    g.sweep_dangling()
    return g


def ksa4() -> SubjectGraph:
    return kogge_stone_adder(4)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------


def and_chain(n: int) -> SubjectGraph:
    g = SubjectGraph(name=f"chain{n}")
    lits = [(g.add_pi(f"x{i}"), False) for i in range(n)]
    acc = lits[0]
    for lit in lits[1:]:
        acc = _and_op(g, acc, lit)
    g.add_po(acc, "f")
    return g


def alternating_chain(n: int) -> SubjectGraph:
    """AND/OR chain with every third input complemented; worst case for a
    depth-greedy cover, cheap for a balancing-aware one."""
    g = SubjectGraph(name=f"altchain{n}")
    lits = [(g.add_pi(f"x{i}"), False) for i in range(n)]
    acc = lits[0]
    for i, lit in enumerate(lits[1:], start=1):
        if i % 3 == 2:
            lit = _neg(lit)
        acc = _and_op(g, acc, lit) if i % 2 else _or_op(g, acc, lit)
    g.add_po(acc, "f")
    return g


def parity(n: int) -> SubjectGraph:
    g = SubjectGraph(name=f"parity{n}")
    lits = [(g.add_pi(f"x{i}"), False) for i in range(n)]
    g.add_po(balanced_reduce(g, lits, _xor_op), "p")
    return g


def mux_tree(sel_bits: int) -> SubjectGraph:
    """2^sel_bits-to-1 multiplexer built as a tree of 2:1 muxes."""
    g = SubjectGraph(name=f"mux{2 ** sel_bits}")
    sels = [(g.add_pi(f"s{i}"), False) for i in range(sel_bits)]
    data = [(g.add_pi(f"d{i}"), False) for i in range(2 ** sel_bits)]
    layer = data
    for s in sels:
        nxt = []
        for i in range(0, len(layer), 2):
            a, b = layer[i], layer[i + 1]
            nxt.append(_or_op(g, _and_op(g, _neg(s), a), _and_op(g, s, b)))
        layer = nxt
    g.add_po(layer[0], "y")
    return g


def comparator(width: int) -> SubjectGraph:
    """Equality and greater-than of two unsigned words."""
    g = SubjectGraph(name=f"cmp{width}")
    a = [(g.add_pi(f"a{i}"), False) for i in range(width)]
    b = [(g.add_pi(f"b{i}"), False) for i in range(width)]
    eqs = [_neg(_xor_op(g, x, y)) for x, y in zip(a, b)]
    eq = balanced_reduce(g, eqs, _and_op)
    gt = g.const_lit(False)
    # ripple from MSB: gt = a_i > b_i while higher bits equal
    for i in reversed(range(width)):
        here = _and_op(g, a[i], _neg(b[i]))
        hi_eq = balanced_reduce(g, eqs[i + 1:], _and_op) \
            if i + 1 < width else g.const_lit(True)
        gt = _or_op(g, gt, _and_op(g, here, hi_eq))
    g.add_po(eq, "eq")
    g.add_po(gt, "gt")
    g.sweep_dangling()
    return g


def one_hot_decoder(bits: int) -> SubjectGraph:
    g = SubjectGraph(name=f"dec{bits}")
    sel = [(g.add_pi(f"s{i}"), False) for i in range(bits)]
    for code in range(2 ** bits):
        terms = [sel[i] if (code >> i) & 1 else _neg(sel[i])
                 for i in range(bits)]
        g.add_po(balanced_reduce(g, terms, _and_op), f"y{code}")
    return g


def ripple_adder(width: int) -> SubjectGraph:
    g = SubjectGraph(name=f"rca{width}")
    a = [(g.add_pi(f"a{i}"), False) for i in range(width)]
    b = [(g.add_pi(f"b{i}"), False) for i in range(width)]
    carry = g.const_lit(False)
    for i in range(width):
        p = _xor_op(g, a[i], b[i])
        g.add_po(_xor_op(g, p, carry), f"s{i}")
        carry = _or_op(g, _and_op(g, a[i], b[i]), _and_op(g, p, carry))
    g.add_po(carry, "cout")
    g.sweep_dangling()
    return g


def _mux2(g, s, a, b):
    return _or_op(g, _and_op(g, _neg(s), a), _and_op(g, s, b))


def barrel_shifter(width: int) -> SubjectGraph:
    """Rotate-left by a log2(width)-bit amount, built from mux layers."""
    g = SubjectGraph(name=f"bshift{width}")
    bits = width.bit_length() - 1
    data = [(g.add_pi(f"d{i}"), False) for i in range(width)]
    sel = [(g.add_pi(f"s{i}"), False) for i in range(bits)]
    layer = data
    for k in range(bits):
        sh = 1 << k
        layer = [_mux2(g, sel[k], layer[i], layer[(i + sh) % width])
                 for i in range(width)]
    for i, lit in enumerate(layer):
        g.add_po(lit, f"y{i}")
    return g


def priority_encoder(width: int) -> SubjectGraph:
    """Highest-set-bit index plus a valid flag."""
    g = SubjectGraph(name=f"prio{width}")
    req = [(g.add_pi(f"r{i}"), False) for i in range(width)]
    none_hi = g.const_lit(True)
    bits = (width - 1).bit_length()
    outs = [g.const_lit(False)] * bits
    for i in reversed(range(width)):
        grant = _and_op(g, req[i], none_hi) if i + 1 < width else req[i]
        for bpos in range(bits):
            if (i >> bpos) & 1:
                outs[bpos] = _or_op(g, outs[bpos], grant)
        none_hi = _and_op(g, none_hi, _neg(req[i]))
    for bpos in range(bits):
        g.add_po(outs[bpos], f"q{bpos}")
    g.add_po(_neg(none_hi), "valid")
    g.sweep_dangling()
    return g


def alu(width: int) -> SubjectGraph:
    """4-function ALU: a 2-bit opcode selects sum, AND, OR, or XOR per bit."""
    g = SubjectGraph(name=f"alu{width}")
    a = [(g.add_pi(f"a{i}"), False) for i in range(width)]
    b = [(g.add_pi(f"b{i}"), False) for i in range(width)]
    op = [(g.add_pi(f"op{i}"), False) for i in range(2)]
    carry = g.const_lit(False)
    for i in range(width):
        p = _xor_op(g, a[i], b[i])
        s = _xor_op(g, p, carry)
        carry = _or_op(g, _and_op(g, a[i], b[i]), _and_op(g, p, carry))
        y0 = _mux2(g, op[0], s, _and_op(g, a[i], b[i]))
        y1 = _mux2(g, op[0], _or_op(g, a[i], b[i]), p)
        g.add_po(_mux2(g, op[1], y0, y1), f"y{i}")
    g.sweep_dangling()
    return g


def corpus() -> list[SubjectGraph]:
    """Deterministic mixed corpus; chain-heavy entries included because
    depth-oblivious covers differ most from min-DFF covers there."""
    circuits = [
        ksa4(),
        and_chain(6), and_chain(10), and_chain(16),
        alternating_chain(9), alternating_chain(14), alternating_chain(20),
        parity(8), parity(12),
        mux_tree(2), mux_tree(3),
        comparator(3), comparator(4),
        one_hot_decoder(3),
        ripple_adder(3), ripple_adder(4),
    ]
    for i, seed in enumerate((11, 23, 47, 81)):
        g = random_aig(60 + 25 * i, 8 + i, seed=seed, n_pos=4)
        g.name = f"rand{seed}"
        circuits.append(g)
    return circuits
