"""The genlib parser, fuzzed: any text either parses or raises
``LibraryError``, and the CLI reports such an error as exit 3.  The
examples are derandomized, so a run is repeatable."""

import pathlib

from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbmap.cli import main
from pbmap.library import LibraryError, parse_library

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbmap" / "data"
KSA4 = DATA / "ksa4.blif"
# a mappable library, so a fuzzed record is the only thing that can fail
BASE = (DATA / "sfq.genlib").read_text()

# seven variable names, one more than a truth table holds
VARS = list("abcdefg")
EXPR_TOKENS = [*VARS, "0", "1", "2", "*", "+", "^", "!", "'", "(", ")", "|",
               "-", "@", "&", " "]
AREAS = ["1", "2.5", "0.001", "1e", "1e3", "-", ".", "+1", "1e+", "x"]

# token soup, or a product of variables, which parses at any width
expr = st.one_of(
    st.lists(st.sampled_from(EXPR_TOKENS), max_size=10).map("".join),
    st.lists(st.sampled_from(VARS), min_size=1, max_size=7,
             unique=True).map("*".join))
gate_record = st.builds(
    lambda name, area, out, body, tail: f"GATE {name} {area} {out}={body};{tail}",
    st.sampled_from(["g0", "g1", "and2", "x"]),
    st.sampled_from(AREAS),
    st.sampled_from(["o", "q", "O"]),
    expr,
    st.sampled_from(["", " # JJ=5 CLOCKED=0", " # CLOCKED=1",
                     " PIN * NONINV 1 999 1 0 1 0"]))
genlib_soup = st.builds(
    lambda head, lines: "\n".join([*head, *lines]),
    st.sampled_from([[], [BASE], ["", "", BASE]]),
    st.lists(st.one_of(gate_record,
                       st.sampled_from(["", "# note", "GATE", "GATE x 1",
                                        "GATE x 1 o=a", "PIN * INV"])),
             max_size=4))


def parses_or_raises_library_error(text):
    try:
        parse_library(text)
    except LibraryError:
        return False
    return True


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=genlib_soup)
def test_genlib_soup_parses_or_raises_library_error(text):
    parses_or_raises_library_error(text)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(text=genlib_soup)
def test_cli_exits_3_on_fuzzed_library_errors(text):
    assume(not parses_or_raises_library_error(text))
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("fuzz.genlib", "w") as f:
            f.write(text)
        result = runner.invoke(main, ["map", "--lib", "fuzz.genlib",
                                      "--supergate-depth", "1", str(KSA4)])
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
