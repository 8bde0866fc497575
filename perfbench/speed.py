"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the speed of a core drifts by 20-30 % within
seconds, far more than the changes the benchmark must resolve.  A fixed
pure-Python workload run between the measured steps drifts with it: on a
2-core Xeon VM, over 15 s blocks of alternating ksa32 maps and calibration
runs, the block medians of the mapping time spread (IQR over median) by
0.28 and their ratio to the calibration medians by 0.09.  Each timed metric
is therefore reported in reference seconds: wall seconds times REFERENCE_S
over the median of the calibration runs taken among its measurements.

The workload imports nothing from pbmap, so no change to the program can
move it; it mixes the operations the mapper spends its time on (small
tuples and sets, dict lookups, sorting, attribute access).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass

# about calibrate()'s median on the 2-core Xeon VM the benchmark was tuned
# on (Python 3.11), so reference and wall seconds are close there; fixed,
# because only its ratio to the measured calibrations carries information
REFERENCE_S = 0.1


@dataclass
class _Point:
    height: int
    dffs: int
    leaves: tuple


def _workload() -> int:
    rng = random.Random(12345)
    leaf_sets = [tuple(sorted(rng.sample(range(48), rng.randint(1, 4))))
                 for _ in range(600)]
    merged: dict[tuple, int] = {}
    for i, a in enumerate(leaf_sets):
        s = set(a)
        for b in leaf_sets[i % 50: i % 50 + 60]:
            u = s.union(b)
            if len(u) <= 5:
                key = tuple(sorted(u))
                merged[key] = merged.get(key, 0) + 1
    points = [_Point(len(k), v, k) for k, v in merged.items()]
    points.sort(key=lambda p: (p.dffs, p.height, p.leaves))
    front: list[_Point] = []
    for p in points:
        if not any(q.height <= p.height and q.dffs <= p.dffs for q in front[-8:]):
            front.append(p)
    return len(front) + sum(p.height for p in points)


def calibrate() -> float:
    """Seconds taken by one run of the fixed calibration workload.

    The cyclic collector is paused meanwhile: run between two mapped
    circuits, a collection would otherwise traverse the mapper's heap and
    charge its size to the machine's speed.  The workload frees all it
    allocates, so the collector's schedule for the program is unchanged.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _workload()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor turning wall seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
