"""Construction, verification, and use of locating arrays for combinatorial testing.

A locating array doubles as a combinatorial test suite and a fault locator:
run each row as a test, and the set of failing rows identifies the single
faulty t-way interaction (if any).  This package builds small such arrays
with simulated annealing inside a search over the array size, and
independently verifies the defining properties of any array.
"""

from .anneal import AnnealParams, NoNeighborError, sa_run, select_neighbor_baseline, select_neighbor_proposed
from .cost import CapacityError, CoverageIndex, Move, apply_move, build_index, entry_move, overwrite_move, undo_move
from .model import (
    Interaction,
    InteractionCatalog,
    ModelParseError,
    SutModel,
    TestArray,
    covers,
    enumerate_interactions,
    format_array,
    interaction_count,
    load_array,
    parse_array,
    parse_model,
    random_array,
    rho,
    save_array,
)
from .search import (
    ProbeRecord,
    SearchBudget,
    SearchResult,
    construct,
    derive_seed,
    initial_bounds,
    parallel_construct,
    tang_lower_bound,
)
from .verify import VerifyReport, locate_fault, verify

__version__ = "0.1.0"

__all__ = [
    "AnnealParams",
    "CapacityError",
    "CoverageIndex",
    "Interaction",
    "InteractionCatalog",
    "ModelParseError",
    "Move",
    "NoNeighborError",
    "ProbeRecord",
    "SearchBudget",
    "SearchResult",
    "SutModel",
    "TestArray",
    "VerifyReport",
    "apply_move",
    "build_index",
    "construct",
    "covers",
    "derive_seed",
    "entry_move",
    "enumerate_interactions",
    "format_array",
    "initial_bounds",
    "interaction_count",
    "load_array",
    "locate_fault",
    "overwrite_move",
    "parallel_construct",
    "parse_array",
    "parse_model",
    "random_array",
    "rho",
    "sa_run",
    "save_array",
    "select_neighbor_baseline",
    "select_neighbor_proposed",
    "tang_lower_bound",
    "undo_move",
    "verify",
    "__version__",
]
