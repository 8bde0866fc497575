import pathlib

import pytest

from pbmap.flow import prepare_match_table
from pbmap.library import parse_library

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "pbmap" / "data"


@pytest.fixture(scope="session")
def lib():
    return parse_library((DATA / "sfq.genlib").read_text(), name="sfq")


@pytest.fixture(scope="session")
def table(lib):
    return prepare_match_table(lib, k=5, max_depth=3)


@pytest.fixture(scope="session")
def clocked_lib():
    # the bundled library with a clocked inverter: the only library at hand
    # whose frontiers hold more than one point
    text = (DATA / "sfq.genlib").read_text()
    inv = next(line for line in text.splitlines()
               if line.split()[:2] == ["GATE", "inv"])
    clocked = text.replace(inv, inv.replace("CLOCKED=0", "CLOCKED=1"))
    assert clocked != text
    return parse_library(clocked, name="sfq_clocked_inv")


@pytest.fixture(scope="session")
def clocked_table(clocked_lib):
    return prepare_match_table(clocked_lib)
