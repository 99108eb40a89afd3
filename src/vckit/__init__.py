"""Exact minimum vertex cover toolkit.

A bounded-search-tree decision solver with three branching strategies,
deterministic instance generators, a brute-force oracle for testing,
DIMACS input and output, and a benchmark harness, all behind one CLI.

``import vckit`` loads none of them: a public name loads its module when
it is first used, through the module ``__getattr__`` (PEP 562), so a
process pays only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name's module.  A name is looked up there on every use,
# not cached here, so vckit.X is always what the module binds.
_MODULES = {
    **dict.fromkeys(
        ("CSV_HEADER", "BenchConfig", "BenchRecord", "estimate_branching_factor",
         "run_benchmark", "write_report"),
        "bench",
    ),
    **dict.fromkeys(
        ("DimacsError", "DimacsFormatWarning", "parse_dimacs", "read_dimacs_file",
         "write_dimacs"),
        "dimacs",
    ),
    **dict.fromkeys(("gen_gnm", "gen_planted"), "generate"),
    **dict.fromkeys(("Graph", "GraphError"), "graph"),
    **dict.fromkeys(("brute_force_tau", "verify_cover"), "oracle"),
    **dict.fromkeys(
        ("BranchSolver", "SolveResult", "SolveStats", "SolveTimeout", "Strategy",
         "decide_vc", "lp_lower_bound", "min_vertex_cover"),
        "solver",
    ),
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
