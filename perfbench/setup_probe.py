"""One cold set-up, run in a fresh interpreter by run.py: import pbmap and
the retiming LP's scipy dependency, parse a genlib, build the supergate
match table.  Prints the table's supergate count.

Usage: python3 perfbench/setup_probe.py GENLIB
"""

import sys
from pathlib import Path


def main(genlib: Path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import scipy.optimize  # noqa: F401  (retime imports it on first use)

    from pbmap import flow
    from pbmap.library import parse_library

    lib = parse_library(genlib.read_text(), name=genlib.stem)
    print(len(flow.prepare_match_table(lib).supergates))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
