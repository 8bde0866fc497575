"""Command-line driver: map circuits, run the tree analytics, sweep the
identity checks, and report supergate hit rates.

Exit codes: 0 success, 2 netlist parse or usage error, 3 library error,
4 internal error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import balance, flow, report
from . import library as libmod
from . import retime as retimemod
from .netlist import NetlistError, parse_netlist, write_netlist

EXIT_PARSE = 2
EXIT_LIBRARY = 3
EXIT_INTERNAL = 4


def _read_text(path, error: type[Exception]) -> str:
    """A file's UTF-8 text; bytes that do not decode raise ``error``, so bad
    input keeps its exit code instead of escaping as a traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text (byte {e.start}: {e.reason})") from None


def _load_library(path: str | None):
    if path is None:
        path = Path(__file__).parent / "data" / "sfq.genlib"
    return libmod.parse_library(_read_text(path, libmod.LibraryError),
                                name=Path(path).stem)


def _fail(code: int, stage: str, err: Exception):
    click.echo(f"error [{stage}]: {err}", err=True)
    sys.exit(code)


def _load_table(lib_path: str | None, k: int, supergate_depth: int):
    """The cell library and its match table; library errors exit 3."""
    try:
        lib = _load_library(lib_path)
        return lib, flow.prepare_match_table(lib, k=k, max_depth=supergate_depth)
    except libmod.LibraryError as e:
        _fail(EXIT_LIBRARY, "library", e)


def _read_netlist(path):
    """The subject graph of a netlist file; parse errors exit 2."""
    try:
        return parse_netlist(_read_text(path, NetlistError))
    except NetlistError as e:
        _fail(EXIT_PARSE, f"parse {Path(path).name}", e)


# out-of-range values are usage errors (exit 2): cuts have at most six
# leaves, and a cut cap below 2 or a supergate depth below 1 leaves nodes
# with no matchable cut
_k_option = click.option("-k", default=5, show_default=True,
                         type=click.IntRange(2, 6), help="max cut width")
_depth_option = click.option("--supergate-depth", default=3, show_default=True,
                             type=click.IntRange(min=1),
                             help="max supergate tree depth")


@click.group()
def main():
    """Path-balancing technology mapper for clocked SFQ cell libraries."""


@main.command("map")
@click.argument("inputs", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--lib", "lib_path", type=click.Path(exists=True), default=None,
              help="genlib cell library (bundled SFQ library by default)")
@_k_option
@_depth_option
@click.option("--cut-cap", default=250, show_default=True,
              type=click.IntRange(min=2), help="max cuts kept per node")
@click.option("--no-retime", is_flag=True, help="report pre-retiming numbers")
@click.option("--output", "-o", type=click.Path(), default=None,
              help="mapped netlist path (single input only)")
@click.option("--netlist-format", default="blif", show_default=True,
              type=click.Choice(["blif", "verilog"]))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="write the aggregate CSV here")
def map_cmd(inputs, lib_path, k, supergate_depth, cut_cap, no_retime, output,
            netlist_format, as_json, csv_path):
    """Map one or more netlists (or a directory of them)."""
    lib, table = _load_table(lib_path, k, supergate_depth)

    paths = []
    for inp in inputs:
        p = Path(inp)
        if p.is_dir():
            paths.extend(sorted(q for q in p.iterdir()
                                if q.suffix in (".blif", ".aag")))
        else:
            paths.append(p)
    if not paths:
        _fail(EXIT_PARSE, "input", FileNotFoundError("no netlists found"))
    if output and len(paths) > 1:
        raise click.UsageError(
            f"--output takes a single input netlist, got {len(paths)}")

    graphs = [(p, _read_netlist(p)) for p in paths]
    try:
        results = [(p, flow.map_graph(g, lib, table, k=k, cut_cap=cut_cap,
                                      retime=not no_retime))
                   for p, g in graphs]
    except Exception as e:  # noqa: BLE001 - surface stage + cause, per contract
        _fail(EXIT_INTERNAL, "map", e)

    reports = [report.build_report(res, circuit=p.stem) for p, res in results]
    if output:
        net = results[0][1].after
        text = net.write_blif() if netlist_format == "blif" else net.write_verilog()
        Path(output).write_text(text)
    if csv_path:
        Path(csv_path).write_text(report.emit(reports, "csv"))
    click.echo(report.emit(reports, "json" if as_json else "text"), nl=False)


@main.command("analyze-tree")
@click.option("--height", "-x", type=int, required=True)
@click.option("--pins", "-n", type=int, default=None,
              help="input pin count (defaults to the most unbalanced tree)")
def analyze_tree(height, pins):
    """Buffer profile and identity checks for a balanced tree shape."""
    try:
        if pins is None:
            prof = balance.most_unbalanced(height)
        else:
            prof = balance.most_balanced(height, pins)
    except ValueError as e:
        _fail(EXIT_INTERNAL, "analytics", e)
    doc = {
        "height": prof.H,
        "y": {f"y{x}": v for x, v in enumerate(prof.y, start=2)},
        "pins": prof.n,
        "nodes": prof.N,
        "buffers": prof.Y,
        "pin_identity": prof.n == prof.N + 1,
    }
    click.echo(json.dumps(doc, indent=2))


@main.command("check-identities")
@click.option("--max-height", default=20, show_default=True)
def check_identities(max_height):
    """Machine-check the tree-count identities and extremal-tree formulas."""
    failures = []

    def check(name, ok):
        click.echo(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    ok = all(balance.measure_tree(balance.random_tree(n, seed=n)).N + 1
             == balance.measure_tree(balance.random_tree(n, seed=n)).n
             for n in range(1, 60))
    check("pin count = node count + 1 (random trees)", ok)

    ok = all(balance.most_unbalanced(x).Y
             == (x * (x - 1) // 2 if x <= 3 else (x - 2) * (x - 1))
             for x in range(1, 11))
    check("most-unbalanced closed forms", ok)

    ok = True
    for x in range(2, 7):
        for n in range(x + 1, 2 ** x + 1):
            prof = balance.most_balanced(x, n)
            if prof.n != n:
                ok = False
    check("most-balanced profile consistency", ok)

    ok = all(balance.buffer_band_check(x, p)[1]
             for x in range(4, 201) for p in range(1, x))
    check("no tree lands in the forbidden buffer-difference band", ok)

    ok = True
    for h in range(2, max_height + 1):
        for x in range(1, h):
            e7, e8, same = retimemod.push_to_last_level_check(h, x)
            if not same or e7 != 2 ** (h - x + 1) - 2:
                ok = False
    check("push-to-last-level buffer sums agree", ok)

    if failures:
        sys.exit(1)


@main.command("hit-rate")
@click.argument("inputs", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--lib", "lib_path", type=click.Path(exists=True), default=None)
@_k_option
@_depth_option
@click.option("--json", "as_json", is_flag=True)
def hit_rate_cmd(inputs, lib_path, k, supergate_depth, as_json):
    """Fraction of enumerated cut functions coverable by a supergate."""
    from . import cuts as cutsmod

    _, table = _load_table(lib_path, k, supergate_depth)
    rows = []
    for inp in inputs:
        g = _read_netlist(inp)
        rows.append((Path(inp).stem,
                     libmod.hit_rate(cutsmod.enumerate_cuts(g, k=k), table)))
    if as_json:
        click.echo(json.dumps({name: round(r, 4) for name, r in rows}, indent=2))
    else:
        for name, r in rows:
            click.echo(f"{name}: {r:.4f}")


@main.command("emit")
@click.argument("input", type=click.Path(exists=True))
@click.option("--format", "fmt", default="blif", show_default=True,
              type=click.Choice(["blif", "aag"]))
def emit_cmd(input, fmt):
    """Parse a netlist and re-emit the subject graph (round-trip check)."""
    click.echo(write_netlist(_read_netlist(input), fmt), nl=False)


if __name__ == "__main__":
    main()
