"""Exact minimum vertex cover toolkit.

A bounded-search-tree decision solver with three branching strategies,
deterministic instance generators, a brute-force oracle for testing,
DIMACS input and output, and a benchmark harness, all behind one CLI.
"""

from .bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    estimate_branching_factor,
    run_benchmark,
    write_report,
)
from .dimacs import (
    DimacsError,
    DimacsFormatWarning,
    parse_dimacs,
    read_dimacs_file,
    write_dimacs,
)
from .generate import gen_gnm, gen_planted
from .graph import Graph, GraphError
from .oracle import brute_force_tau, verify_cover
from .solver import (
    BranchSolver,
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
    "BenchConfig",
    "BenchRecord",
    "BranchSolver",
    "CSV_HEADER",
    "DimacsError",
    "DimacsFormatWarning",
    "Graph",
    "GraphError",
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
    "parse_dimacs",
    "read_dimacs_file",
    "run_benchmark",
    "verify_cover",
    "write_dimacs",
    "write_report",
]
