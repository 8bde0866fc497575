"""Path-balancing technology mapper for clocked SFQ cell libraries."""

from .balance import MappedNetwork
from .cuts import (Cut, CutSet, CutSets, compute_cut_functions,
                   enumerate_cuts)
from .flow import FlowResult, map_graph, prepare_match_table
from .library import (Cell, CellLibrary, LibraryError, MatchTable, Supergate,
                      generate_supergates, parse_library, retimed_match_dffs)
from .mapper import MappingError, map_dag
from .netlist import NetlistError, SubjectGraph, parse_netlist, write_netlist
from .report import MappingReport, build_report, emit
from .retime import retime_min_registers
from .trees import (TreeProfile, buffer_band_check, input_pins_from_profile,
                    most_balanced, most_unbalanced, push_to_last_level_check)

__version__ = "0.1.0"

__all__ = [
    "Cell", "CellLibrary", "Cut", "CutSet", "CutSets", "FlowResult",
    "LibraryError", "MappedNetwork", "MappingError", "MappingReport",
    "MatchTable", "NetlistError", "SubjectGraph", "Supergate", "TreeProfile",
    "build_report", "compute_cut_functions", "emit", "enumerate_cuts",
    "generate_supergates", "input_pins_from_profile",
    "push_to_last_level_check", "map_dag", "map_graph", "most_balanced",
    "most_unbalanced", "parse_library", "parse_netlist",
    "prepare_match_table", "retime_min_registers", "retimed_match_dffs",
    "buffer_band_check", "write_netlist",
]
