"""Both netlist parsers, fuzzed: any text either parses or raises
``NetlistError``, and the CLI reports such an error as exit 2.  The
examples are derandomized, so a run is repeatable."""

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbmap.cli import main
from pbmap.netlist import NetlistError, parse_netlist

BLIF_TOKENS = [
    ".model", ".inputs", ".outputs", ".names", ".gate", ".latch", ".exdc",
    ".subckt", ".end", "a", "b", "f", "n1", "and2", "buf", "a=a", "b=b",
    "o=f", "O=f", "=", "0", "1", "-", "11", "1-", "-0", "01", "2", "\\",
    "#", "x\\",
]
# lines that join or vanish: a continuation, a blank line and a comment
BLIF_BARE_LINES = ["\\", " \\ ", "", "# note"]

blif_soup = st.builds(
    lambda head, lines: "\n".join([*head, *lines]),
    st.sampled_from([[], [".model m", ".inputs a b", ".outputs f"]]),
    st.lists(st.one_of(st.sampled_from(BLIF_BARE_LINES),
                       st.lists(st.sampled_from(BLIF_TOKENS),
                                max_size=6).map(" ".join)),
             max_size=12))

aag_soup = st.builds(
    lambda header, body: "\n".join(["aag " + " ".join(header), *body]),
    st.one_of(  # a well-formed header, or a header of any shape
        st.lists(st.integers(0, 4).map(str), min_size=5, max_size=5),
        st.lists(st.one_of(st.integers(0, 6).map(str),
                           st.sampled_from(["-1", "x"])), max_size=6)),
    st.lists(st.lists(st.one_of(st.integers(0, 14).map(str),
                                st.sampled_from(["i0", "o0", "l0", "c", "a"])),
                      max_size=4).map(" ".join),
             max_size=10))


def parses_or_raises_netlist_error(text):
    try:
        parse_netlist(text)
    except NetlistError:
        return False
    return True


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=blif_soup)
def test_blif_soup_parses_or_raises_netlist_error(text):
    parses_or_raises_netlist_error(text)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=aag_soup)
def test_aag_soup_parses_or_raises_netlist_error(text):
    parses_or_raises_netlist_error(text)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(text=st.one_of(blif_soup, aag_soup))
def test_cli_exits_2_on_fuzzed_parse_errors(text):
    assume(not parses_or_raises_netlist_error(text))
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("fuzz.blif", "w") as f:
            f.write(text)
        # a depth-1 table keeps the library setup out of each example
        result = runner.invoke(main, ["map", "--supergate-depth", "1",
                                      "fuzz.blif"])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("text", ["\\\n", ".model m\n\\\n"])
def test_bare_continuation_raises_netlist_error(text):
    with pytest.raises(NetlistError):
        parse_netlist(text)


@pytest.mark.parametrize("text", ["\\\n", ".model m\n\\\n"])
def test_cli_bare_continuation_exit_code(tmp_path, text):
    bad = tmp_path / "x.blif"
    bad.write_text(text)
    result = CliRunner().invoke(main, ["map", str(bad)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
