"""Construction, verification, and use of locating arrays for combinatorial testing.

A locating array doubles as a combinatorial test suite and a fault locator:
run each row as a test, and the set of failing rows identifies the single
faulty t-way interaction (if any).  This package builds small such arrays
with simulated annealing inside a search over the array size, and
independently verifies the defining properties of any array.
"""

from .anneal import AnnealParams
from .model import (
    CapacityError,
    Interaction,
    ModelParseError,
    SutModel,
    TestArray,
    format_array,
    interaction_count,
    load_array,
    parse_array,
    parse_model,
    rho,
    save_array,
)
from .search import SearchBudget, SearchResult, construct, parallel_construct, tang_lower_bound
from .verify import VerifyReport, locate_fault, verify

__version__ = "0.1.0"

__all__ = [
    "AnnealParams",
    "CapacityError",
    "Interaction",
    "ModelParseError",
    "SearchBudget",
    "SearchResult",
    "SutModel",
    "TestArray",
    "VerifyReport",
    "construct",
    "format_array",
    "interaction_count",
    "load_array",
    "locate_fault",
    "parallel_construct",
    "parse_array",
    "parse_model",
    "rho",
    "save_array",
    "tang_lower_bound",
    "verify",
    "__version__",
]
