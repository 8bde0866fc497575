"""The package's public surface: what ``pbmap`` exports resolves, the
balanced-tree analytics live in ``pbmap.trees``, nothing deleted from the
program is still reachable, and the options of the entry points are pinned,
so a new one shows up here as a test change."""

import dataclasses
import inspect

import pytest

import pbmap
from pbmap import (balance, cli, cuts, flow, library, mapper, netlist, retime,
                   trees, truthtable)

ANALYTICS = ("TreeProfile", "input_pins_from_profile", "tree_leaf_depths",
             "measure_tree", "caterpillar", "double_caterpillar",
             "random_tree", "most_unbalanced", "most_balanced",
             "buffer_band_check", "push_to_last_level_check")

DELETED = {
    trees: ("max_depth_gap", "tree_buffer_count", "tree_node_count",
            "tree_height", "depth_gap_pad_lengths", "depth_gap_buffers"),
    truthtable: ("support", "tt_eval_packed"),
    balance.MappedNetwork: ("gate_count",),
    mapper.NodeSolution: ("opt",),
    cuts.Cut: ("signature",),
    netlist.SubjectGraph: ("compute_levels", "depth", "fanins"),
    library: ("_PIN_RE",),
}


@pytest.mark.parametrize("name", pbmap.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(pbmap, name) is not None


def test_exports_are_unique():
    assert len(pbmap.__all__) == len(set(pbmap.__all__))


@pytest.mark.parametrize("name", ANALYTICS)
def test_analytics_live_in_trees(name):
    obj = getattr(trees, name)
    assert obj.__module__ == "pbmap.trees"
    assert not hasattr(balance, name)
    assert not hasattr(retime, name)
    if name in pbmap.__all__:
        assert getattr(pbmap, name) is obj


@pytest.mark.parametrize("owner,name", [
    pytest.param(owner, name, id=f"{owner.__name__}.{name}")
    for owner, names in DELETED.items() for name in names])
def test_deleted_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in pbmap.__all__


def test_deleted_fields_are_gone():
    assert "delay" not in {f.name for f in dataclasses.fields(library.Cell)}
    assert "sfq_mode" not in {f.name
                              for f in dataclasses.fields(library.CellLibrary)}


# parameter names in order; the first one or two are the inputs
SIGNATURES = {
    flow.map_graph: ("g", "lib", "table", "k", "retime", "depth_greedy"),
    flow.prepare_match_table: ("lib", "k", "max_depth"),
    library.parse_library: ("text", "name"),
    netlist.parse_netlist: ("text",),
    cuts.enumerate_cuts: ("g", "k", "cap"),
}

OPTIONS = {
    "map": ("inputs", "lib_path", "k", "supergate_depth", "no_retime",
            "output", "netlist_format", "as_json", "csv_path"),
    "hit-rate": ("inputs", "lib_path", "k", "supergate_depth", "as_json"),
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda f: f.__name__)
def test_signature_is_pinned(func):
    assert tuple(inspect.signature(func).parameters) == SIGNATURES[func]


@pytest.mark.parametrize("command", OPTIONS)
def test_cli_options_are_pinned(command):
    params = cli.main.commands[command].params
    assert tuple(p.name for p in params) == OPTIONS[command]

