"""The measurements behind run.py.

A workload is a closed loop in one process and one thread: a pass maps its
circuits one after the other, each as parse_netlist -> flow.map_graph
(defaults, retiming on) -> write_blif.  Every time is taken with
perf_counter from outside the program and reported in reference seconds
(see speed.py); the report's own ``runtime`` field is never read.  Checks
and QoR bookkeeping run outside the timed regions.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from pbmap import flow
from pbmap import library as libmod
from pbmap.netlist import parse_netlist

import checks
import speed
import tracing
import workloads
from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_RUNS = 3            # fresh interpreters per run; setup_s is their median
MIN_PASSES = 2            # timed warm passes, however short --seconds is
MIN_TRACED_PAIRS = 2      # (untraced, traced) pass pairs in a traced run
LIBRARY_REPS = 3          # library parses and table builds in a traced run
CIRCUIT_CALIBRATIONS = 3  # calibration runs before each circuit of a pass
CLI_RUNS = 2              # cold CLI children per run; cli_s is their median
CLI_CALIBRATIONS = 3      # calibration runs between two CLI children
CHILD_TIMEOUT = 60        # seconds; a child that overruns is killed and reaped

QOR_NAMES = ("dffs_before", "dffs_after", "jj_total", "splitters", "depth")
CLI_QOR_KEYS = ("dffs_before", "dffs_after", "jj_total", "splitters",
                "logical_depth")


class Failures:
    """Failures per circuit; a circuit with any failure counts as failed."""

    def __init__(self, names):
        self.by_circuit: dict[str, list[str]] = {n: [] for n in names}

    def add(self, circuit: str, where: str, err) -> None:
        text = (f"{type(err).__name__}: {err}"
                if isinstance(err, BaseException) else str(err))
        self.by_circuit[circuit].append(f"{where}: {text}")

    def add_all(self, where: str, err) -> None:
        for name in self.by_circuit:
            self.add(name, where, err)

    @property
    def attempted(self) -> int:
        return len(self.by_circuit)

    @property
    def failed(self) -> int:
        return sum(1 for errs in self.by_circuit.values() if errs)


def qor_of(before, after) -> tuple[int, ...]:
    """The QoR_NAMES of one mapped circuit."""
    return (before.dff_total, after.dff_total, after.jj_count,
            after.splitter_count, after.depth)


def compare_qor(reference, observed, failures: Failures, where: str):
    for name, qor in observed.items():
        if name in reference and qor != reference[name]:
            failures.add(name, where,
                         f"QoR {qor} differs from {reference[name]}")


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


@dataclass
class Pass:
    wall: float    # seconds spent mapping, calibration excluded
    results: dict  # circuit -> FlowResult or tracing.Traced


def run_pass(wl, map_one, calib: list[float] | None, failures: Failures,
             where: str) -> Pass:
    """Map every circuit with ``map_one``, calibrating before each one
    unless ``calib`` is None."""
    results, wall = {}, 0.0
    for c in wl.circuits:
        if calib is not None:
            calib += [speed.calibrate() for _ in range(CIRCUIT_CALIBRATIONS)]
        t0 = time.perf_counter()
        try:
            results[c.name] = map_one(c)
        except Exception as e:  # a failing circuit must not end the run
            failures.add(c.name, where, e)
        wall += time.perf_counter() - t0
    return Pass(wall, results)


def flow_mapper(lib, table):
    """The untraced path: exactly what a caller of the library runs."""
    def map_one(c):
        res = flow.map_graph(parse_netlist(c.blif), lib, table)
        res.after.write_blif()
        return res
    return map_one


def warm_up(wl, map_one, seed: int, failures: Failures):
    """The untimed first pass: fills the lru_caches, checks every output
    and returns each circuit's QoR as the reference for later passes."""
    reference = {}
    warm = run_pass(wl, map_one, None, failures, "warm-up")
    for c in wl.circuits:
        res = warm.results.get(c.name)
        if res is None:  # already recorded as failed
            continue
        try:
            checks.check_circuit(seed, c.name, c.graph, res.graph,
                                 {"before retiming": res.before,
                                  "after retiming": res.after})
        except Exception as e:  # validate() and simulate() raise their own
            failures.add(c.name, "output check", e)
        reference[c.name] = qor_of(res.before, res.after)
    return reference


def check_pass(p: Pass, reference, failures: Failures, where: str):
    compare_qor(reference, {n: qor_of(r.before, r.after)
                            for n, r in p.results.items()}, failures, where)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PBMAP_THREADS", None)  # measure the default, single-thread path
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one child process, started and reaped one at a time."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        proc = subprocess.CompletedProcess(
            cmd, -1, "", f"killed after {CHILD_TIMEOUT} s")
    return time.perf_counter() - t0, proc


def _child_error(proc) -> str:
    return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def measure_setup(wl, supergates: int, calib: list[float],
                  failures: Failures) -> list[float]:
    """Wall seconds of SETUP_RUNS cold set-ups."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(wl.genlib)]
    times = []
    for _ in range(SETUP_RUNS):
        calib.append(speed.calibrate())
        secs, proc = _run_child(cmd)
        calib.append(speed.calibrate())
        times.append(secs)
        if proc.returncode != 0:
            failures.add_all("setup", _child_error(proc))
        elif proc.stdout.split()[-1:] != [str(supergates)]:
            failures.add_all("setup", f"{proc.stdout.strip()} supergates, "
                             f"{supergates} in process")
    return times


def _check_cli(proc, wl, reference, failures: Failures):
    if proc.returncode != 0:
        failures.add_all("cli", _child_error(proc))
        return
    docs = json.loads(proc.stdout)
    docs = docs if isinstance(docs, list) else [docs]
    by_name = {d["circuit"]: tuple(d[k] for k in CLI_QOR_KEYS) for d in docs}
    for c in wl.circuits:
        if c.name not in by_name:
            failures.add(c.name, "cli", "missing from the --json report")
    compare_qor(reference, by_name, failures, "cli --json")


def measure_cli(wl, reference, failures: Failures):
    """Wall seconds of CLI_RUNS cold ``pbmap map --json`` runs over the
    workload's BLIF files, one after the other, and for each the scale of
    the calibrations on either side of it."""
    blif_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    walls, scales = [], []
    try:
        for c in wl.circuits:
            (blif_dir / f"{c.name}.blif").write_text(c.blif)
        cmd = [sys.executable, "-m", "pbmap.cli", "map", "--json"]
        if not wl.genlib_is_bundled:
            cmd += ["--lib", str(wl.genlib)]
        before = [speed.calibrate() for _ in range(CLI_CALIBRATIONS)]
        for _ in range(CLI_RUNS):
            secs, proc = _run_child(cmd + [str(blif_dir)])
            after = [speed.calibrate() for _ in range(CLI_CALIBRATIONS)]
            walls.append(secs)
            scales.append(speed.scale(before + after))
            before = after
            _check_cli(proc, wl, reference, failures)
    finally:
        shutil.rmtree(blif_dir)
    return walls, scales


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def _print_metric(m, value, note: str = ""):
    shown = f"{value:.4f}" if isinstance(value, float) else str(value)
    print(f"  {m.name:<26} {shown:>12} {m.unit:<6} {note}")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def timed_run(wl, seed: int, seconds: float, failures: Failures) -> dict:
    """End-to-end metrics, tracing off."""
    lib = libmod.parse_library(wl.genlib.read_text(), name=wl.genlib.stem)
    table = flow.prepare_match_table(lib)
    setup_calib: list[float] = []
    setup = measure_setup(wl, len(table.supergates), setup_calib, failures)

    map_one = flow_mapper(lib, table)
    reference = warm_up(wl, map_one, seed, failures)
    passes: list[float] = []
    pass_calib: list[float] = []
    while sum(passes) < seconds or len(passes) < MIN_PASSES:
        where = f"timed pass {len(passes) + 1}"
        p = run_pass(wl, map_one, pass_calib, failures, where)
        passes.append(p.wall)
        check_pass(p, reference, failures, where)
        del p  # a pass's networks must not outlive it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cli, cli_scales = measure_cli(wl, reference, failures)

    scales = {"setup_s": speed.scale(setup_calib),
              "map_s": speed.scale(pass_calib)}
    sums = [sum(q[i] for q in reference.values())
            for i in range(len(QOR_NAMES))]
    values = {
        "setup_s": statistics.median(setup) * scales["setup_s"],
        "map_s": statistics.median(passes) * scales["map_s"],
        "cli_s": statistics.median(w * k for w, k in zip(cli, cli_scales)),
        "peak_rss_mb": peak_rss_mb,
        **dict(zip(QOR_NAMES, sums)),
        "ok_rate": (failures.attempted - failures.failed) / failures.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall "
                   f"{statistics.median(setup):.4f} s ({_spread(setup)})",
        "map_s": f"median warm pass; wall {statistics.median(passes):.4f} s "
                 f"({_spread(passes)})",
        "cli_s": f"median of {len(cli)} cold `pbmap map --json`; wall "
                 f"{', '.join(f'{w:.4f}' for w in cli)} s, x "
                 f"{', '.join(f'{k:.4f}' for k in cli_scales)}",
        "peak_rss_mb": "getrusage of the process that ran the passes",
    }
    for name, calib in (("setup_s", setup_calib), ("map_s", pass_calib)):
        notes[name] += (f"; x {scales[name]:.4f} from {len(calib)} "
                        f"calibrations ({_spread(calib)})")
    for name, qor in reference.items():
        print(f"  {name:<10} " + "  ".join(
            f"{k} {v}" for k, v in zip(QOR_NAMES, qor)))
    for m in END_TO_END:
        _print_metric(m, values[m.name], notes.get(m.name, ""))
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in END_TO_END}


def traced_run(wl, seed: int, seconds: float, failures: Failures) -> dict:
    """Per-layer metrics.  Untraced and traced passes alternate, so the
    tracing overhead is measured under the same conditions."""
    spans = tracing.Spans()
    with spans.span(wl.name) as root:
        lib_times, table_times, calib = [], [], []
        for _ in range(LIBRARY_REPS):
            calib.append(speed.calibrate())
            with spans.span("library.parse", root) as sid:
                lib = libmod.parse_library(wl.genlib.read_text(),
                                           name=wl.genlib.stem)
            lib_times.append(spans.duration(sid))
            with spans.span("library.table", root) as sid:
                table = flow.prepare_match_table(lib)
            table_times.append(spans.duration(sid))
        stats = libmod.GenerationStats()
        sgs = libmod.generate_supergates(lib, stats=stats)
        if [s.name for s in sgs] != [s.name for s in table.supergates]:
            failures.add_all("library", "generate_supergates disagrees with "
                             "flow.prepare_match_table")

        map_one = flow_mapper(lib, table)
        reference = warm_up(wl, map_one, seed, failures)
        untraced: list[float] = []
        traced: list[float] = []
        layers: list[dict[str, float]] = []
        counts: dict[str, int] = {}

        def map_traced(c):
            return tracing.map_traced(spans, root, c.name, c.blif, lib, table)

        while (sum(untraced) + sum(traced) < seconds
               or len(traced) < MIN_TRACED_PAIRS):
            where = f"pass pair {len(traced) + 1}"
            p = run_pass(wl, map_one, calib, failures, f"untraced {where}")
            untraced.append(p.wall)
            check_pass(p, reference, failures, f"untraced {where}")
            del p

            p = run_pass(wl, map_traced, calib, failures, f"traced {where}")
            traced.append(p.wall)
            layers.append(spans.totals_under(
                {t.span for t in p.results.values()}))
            if not counts:
                counts = tracing.layer_counts(p.results.values())
            check_pass(p, reference, failures, f"traced {where}")
            del p

    scale = speed.scale(calib)
    pass_s = statistics.median(traced) * scale
    values = {
        "library.parse_s": statistics.median(lib_times) * scale,
        "library.table_s": statistics.median(table_times) * scale,
        "library.supergates": len(table.supergates),
        "library.budget_exhausted": int(stats.budget_exhausted),
        "library.hit_rate": _ratio(counts.get("library.hits", 0),
                                   counts.get("cuts.nontrivial", 0)),
        "retime.dff_ratio": _ratio(sum(q[1] for q in reference.values()),
                                   sum(q[0] for q in reference.values())),
        "flow.pass_s": pass_s,
        "flow.trace_overhead": statistics.median(traced)
        / statistics.median(untraced),
    }
    for m in PER_LAYER:
        if m.name in values:
            continue
        if m.unit == "s":  # span "<layer>.<stage>" -> metric "<...>_s"
            values[m.name] = scale * statistics.median(
                per_pass.get(m.name[:-2], 0.0) for per_pass in layers)
        else:
            values[m.name] = counts.get(m.name, 0)
    trace_file = WORK / f"trace-{wl.name}-seed{seed}.json"
    spans.write(trace_file)

    print(f"  {len(traced)} traced and {len(untraced)} untraced passes; "
          f"spans in {trace_file.relative_to(ROOT)}")
    print(f"  reference seconds = wall seconds x {scale:.4f} (median of "
          f"{len(calib)} calibrations, {_spread(calib)})")
    for m in PER_LAYER:
        in_pass = m.unit == "s" and not m.name.startswith(("library", "flow"))
        share = f"{100 * values[m.name] / pass_s:5.1f}% of a pass; " \
            if in_pass else ""
        _print_metric(m, values[m.name], f"{share}moves {m.moves}")
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in PER_LAYER}


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    wl = workloads.build(workload, seed)
    failures = Failures(c.name for c in wl.circuits)
    print(f"workload {wl.name}  seed {seed}  trace {int(traced)}  library "
          f"{wl.genlib.name}  circuits {', '.join(c.name for c in wl.circuits)}")
    WORK.mkdir(exist_ok=True)
    if traced:
        metrics = traced_run(wl, seed, seconds, failures)
    else:
        metrics = timed_run(wl, seed, seconds, failures)
    for name, errs in failures.by_circuit.items():
        for err in errs:
            print(f"  FAILED {name}: {err}")
    print(f"  fail_rate {failures.failed / failures.attempted:.4f} "
          f"({failures.failed} of {failures.attempted} circuits failed)")
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed,
                      "metrics": metrics}))
    return 0
