"""pbmap benchmark: map one seeded workload, check every mapped output, and
print the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).

    python3 perfbench/run.py --workload prefix --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a source checkout; it imports pbmap from the
checkout's ``src`` and builds nothing.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to ``.perfbench/`` at the
root of the checkout when the run ends.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("prefix", "datapath", "clocked_inv")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pbmap" / "__init__.py").is_file():
        print(f"perfbench: no pbmap sources under {SRC}; run it inside a "
              "pbmap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # imports pbmap, so only once the sources are known

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
