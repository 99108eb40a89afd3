"""Exact minimum vertex cover toolkit.

A bounded-search-tree decision solver with three branching strategies,
deterministic instance generators, a brute-force oracle for testing,
DIMACS input and output, and a benchmark harness, all behind one CLI.
"""

from .bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    BranchingFit,
    estimate_branching_factor,
    parse_config_file,
    run_benchmark,
    write_report,
)
from .dimacs import (
    DimacsError,
    DimacsFormatWarning,
    parse_dimacs,
    read_dimacs_file,
    write_dimacs,
    write_dimacs_file,
)
from .generate import PlantedInstance, gen_gnm, gen_planted
from .graph import Graph, GraphError
from .oracle import BRUTE_FORCE_VERTEX_LIMIT, brute_force_tau, verify_cover
from .solver import (
    BranchSolver,
    MinCoverResult,
    SolveResult,
    SolveStats,
    SolveTimeout,
    Strategy,
    decide_vc,
    lp_lower_bound,
    min_vertex_cover,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_VERTEX_LIMIT",
    "BenchConfig",
    "BenchRecord",
    "BranchSolver",
    "BranchingFit",
    "CSV_HEADER",
    "DimacsError",
    "DimacsFormatWarning",
    "Graph",
    "GraphError",
    "MinCoverResult",
    "PlantedInstance",
    "SolveResult",
    "SolveStats",
    "SolveTimeout",
    "Strategy",
    "brute_force_tau",
    "decide_vc",
    "estimate_branching_factor",
    "gen_gnm",
    "gen_planted",
    "lp_lower_bound",
    "min_vertex_cover",
    "parse_config_file",
    "parse_dimacs",
    "read_dimacs_file",
    "run_benchmark",
    "verify_cover",
    "write_dimacs",
    "write_dimacs_file",
    "write_report",
]
