"""Balanced-tree analytics: the input-pin/buffer profile algebra of trees of
2-input gates, its extremal trees, and the buffer-count identities behind
path balancing.

Trees of 2-input gates balanced to height H are described by a buffer
profile y_2..y_H: padding a subtree away at level x removes 2^(H-x)
input pins, so  n = 2^H - sum y_x * 2^(H-x).

Concrete trees are nested tuples: a pin is ``None``, a gate ``(l, r)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate


@dataclass
class TreeProfile:
    H: int
    y: tuple[int, ...]  # y_2 .. y_H

    @property
    def n(self) -> int:
        return input_pins_from_profile(self.H, self.y)

    @property
    def N(self) -> int:
        return self.n - 1  # a tree of 2-input gates has one more pin than nodes

    @property
    def Y(self) -> int:
        return sum(self.y)


def input_pins_from_profile(H: int, y) -> int:
    if H < 1:
        raise ValueError("height must be >= 1")
    y = tuple(y)
    if len(y) != max(H - 1, 0):
        raise ValueError(f"profile for height {H} needs {H - 1} entries y_2..y_H")
    if any(v < 0 for v in y):
        raise ValueError("negative buffer count in profile")
    n = 2 ** H - sum(v * 2 ** (H - x) for x, v in enumerate(y, start=2))
    if n <= 0:
        raise ValueError("profile prunes more pins than the full tree has")
    return n


# -- tree construction and measurement --------------------------------------


def tree_leaf_depths(tree) -> list[int]:
    """The depth of every pin, left to right; the root's own pins are at
    depth 1.  Walked on an explicit stack, so a tree of any height works."""
    depths, stack = [], [(tree, 0)]
    while stack:
        t, d = stack.pop()
        if t is None:
            depths.append(d)
        else:
            stack += ((t[1], d + 1), (t[0], d + 1))
    return depths


def measure_tree(tree) -> TreeProfile:
    """Chain-buffer profile of a concrete tree: a pin at depth d < H needs
    one pad per level d+1..H, so y_x counts pins shallower than x, a
    running sum over the pins counted per depth."""
    depths = tree_leaf_depths(tree)
    h = max(depths)
    at = [0] * (h + 1)
    for d in depths:
        at[d] += 1
    return TreeProfile(h, tuple(accumulate(at))[1:h])


def caterpillar(x: int):
    """Height-x chain: each level adds one pin."""
    t = (None, None)
    for _ in range(x - 1):
        t = (t, None)
    return t


def double_caterpillar(x: int):
    """Two height-(x-1) chains under a common root."""
    return (caterpillar(x - 1), caterpillar(x - 1))


def random_tree(n_nodes: int, seed: int = 0):
    rng = random.Random(seed)

    # grow by repeatedly replacing a random leaf with a node
    def grow(t, path):
        if not path:
            return (None, None)
        side, rest = path[0], path[1:]
        l, r = t
        return (grow(l, rest), r) if side == 0 else (l, grow(r, rest))

    t = (None, None)
    for _ in range(n_nodes - 1):
        # random walk to a leaf
        path = []
        cur = t
        while cur is not None:
            side = rng.randint(0, 1)
            path.append(side)
            cur = cur[side]
        t = grow(t, path)
    return t


# -- extremal trees and buffer-count identities ------------------------------


def most_unbalanced(x: int) -> TreeProfile:
    """Max-buffer tree of height x: a chain for x <= 3, two chains under a
    root for larger x."""
    if x < 1:
        raise ValueError("height must be >= 1")
    tree = caterpillar(x) if x <= 3 else double_caterpillar(x)
    return measure_tree(tree)


def most_balanced(x: int, n: int) -> TreeProfile:
    """Min-buffer profile of height x with n pins: greedily prune the
    largest subtrees first (maximum y_2, then y_3, ...), keeping at least
    one fertile node per level."""
    if x < 1:
        raise ValueError("height must be >= 1")
    if not (x + 1 <= n <= 2 ** x):
        raise ValueError(f"no height-{x} tree has {n} input pins")
    deficit = 2 ** x - n
    y = []
    fertile = 2  # both level-1 nodes of any height>=2 tree can have children
    for lvl in range(2, x + 1):
        slots = 2 * fertile
        take = min(slots - 1, deficit // 2 ** (x - lvl))
        y.append(take)
        deficit -= take * 2 ** (x - lvl)
        fertile = slots - take
    if x == 1:
        if deficit:
            raise ValueError("inconsistent profile")
        return TreeProfile(1, ())
    if deficit:
        raise ValueError(f"no feasible profile for height {x}, pins {n}")
    prof = TreeProfile(x, tuple(y))
    assert prof.n == n and fertile == n
    return prof


def enumerate_profiles(x: int) -> list[tuple[tuple[int, ...], int]]:
    """Every per-level pruning profile of a height-x tree, with its fertile
    node count after the last level: at each level, from none to all but
    one of the ``2 * fertile`` slots are pruned.  The exhaustive reference
    that ``most_balanced`` is checked against."""
    profiles = [((), 2)]
    for _ in range(2, x + 1):
        profiles = [(y + (take,), 2 * fertile - take)
                    for y, fertile in profiles for take in range(2 * fertile)]
    return profiles


def buffer_band_check(x: int, p: int):
    """No balanced tree can land its buffer-count difference strictly
    between 1 and p; the difference is (-x^2 + 4(p+1)x - 2p - 3p^2 - 3)/2,
    and a half-integral value cannot be a buffer count at all."""
    if x < 4:
        raise ValueError("requires height >= 4")
    if not 1 <= p <= x - 1:
        raise ValueError(f"p must be in 1..{x - 1}")
    num = -x * x + 4 * (p + 1) * x - 2 * p - 3 * p * p - 3
    y_diff = num // 2 if num % 2 == 0 else num / 2
    holds = not (num % 2 == 0 and 1 < num // 2 < p)
    return y_diff, holds


def push_to_last_level_check(h: int, x: int) -> tuple[int, int, bool]:
    """Compare the two buffer-contribution sums for a node pushed from level
    ``x`` to the last level ``h``; both must equal ``2^(h-x+1) - 2``."""
    if not 1 <= x < h:
        raise ValueError("requires 1 <= x < h")
    per_child_sum = 2 * sum(2 ** j for j in range(0, h - x))          # 2*(2^{h-x-1}+...+1)
    per_level_sum = sum(2 ** j for j in range(1, h - x + 1))          # 2^{h-x}+...+2
    closed = 2 ** (h - x + 1) - 2
    return per_child_sum, per_level_sum, per_child_sum == per_level_sum == closed
