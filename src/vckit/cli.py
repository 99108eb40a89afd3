"""Command-line interface: decide, solve, gen, verify, bench.

Graphs come in as DIMACS edge-format files ('-' for stdin), read a
block at a time, so a command never holds a graph file's whole text;
cover files are read whole.  Vertex ids in program output are 0-based;
only the 1-based ``e`` lines inside DIMACS files follow the format's
own convention.  Exit codes: 0 for success (decide: true, verify:
valid), 1 for a negative answer (decide: false, verify: invalid), 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

# What reading, generating and writing a graph need is imported here; the
# solver, the oracle and the benchmark harness load in the commands that
# use them, so importing this module does not pay for them.  These three
# stay here: perfbench/spans.py wraps functions only in modules already
# loaded when it installs, right after importing this module.
from .dimacs import read_dimacs_file, write_dimacs
from .generate import _check_edge_ratio, gen_planted
from .graph import Graph


def _read_graph(path: str) -> Graph:
    """The graph in the DIMACS file at path, or on stdin for '-', read a
    block at a time."""
    return read_dimacs_file(sys.stdin if path == "-" else path)


def _read_cover(path: str) -> list[int]:
    """Whitespace-separated vertex ids in the file at path, or on stdin
    for '-'; 'c' or '#' lines are comments."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    ids: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        for token in line.split():
            try:
                ids.append(int(token))
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-integer vertex id {token!r}"
                ) from None
    return ids


def _print_stats_text(stats) -> None:
    print(f"nodes_expanded: {stats.nodes_expanded}")
    print(f"max_depth: {stats.max_depth}")
    print(f"triplet_scans: {stats.triplet_scans}")
    print(f"time_ms: {stats.elapsed_ms:.3f}")


def _cmd_decide(args) -> int:
    from .solver import _check_time_limit, decide_vc

    time_limit = _check_time_limit(args.time_limit, "--time-limit")
    g = _read_graph(args.graph)
    result = decide_vc(g, args.k, args.strategy, time_limit=time_limit)
    if args.json:
        payload = {
            "decision": result.decision,
            "certificate": (
                None if result.certificate is None else sorted(result.certificate)
            ),
            "stats": result.stats._asdict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"decision: {'true' if result.decision else 'false'}")
        if result.decision:
            print(f"certificate: {' '.join(map(str, sorted(result.certificate)))}")
        _print_stats_text(result.stats)
    return 0 if result.decision else 1


def _cmd_solve(args) -> int:
    from .solver import _check_time_limit, min_vertex_cover

    time_limit = _check_time_limit(args.time_limit, "--time-limit")
    g = _read_graph(args.graph)
    size, cover, stats = min_vertex_cover(g, args.strategy, time_limit=time_limit)
    if args.json:
        payload = {
            "size": size,
            "cover": sorted(cover),
            "stats": stats._asdict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"size: {size}")
        print(f"cover: {' '.join(map(str, sorted(cover)))}")
        _print_stats_text(stats)
    return 0


def _cmd_gen(args) -> int:
    if args.extra_edges is not None and args.extra_edge_ratio is not None:
        raise ValueError("give either --extra-edges or --extra-edge-ratio, not both")
    if args.extra_edges is not None:
        extra = args.extra_edges
    else:
        ratio = 0.5 if args.extra_edge_ratio is None else args.extra_edge_ratio
        if not math.isfinite(ratio):
            raise ValueError(f"--extra-edge-ratio must be finite, got {ratio}")
        extra = _check_edge_ratio(ratio, args.n, "--extra-edge-ratio")
    instance = gen_planted(args.n, args.k, extra, args.seed)
    comments = (
        f"planted instance: n={args.n} k={args.k} extra_edges={extra} seed={args.seed}",
        f"planted cover (0-based): {' '.join(map(str, sorted(instance.planted_cover)))}",
    )
    text = write_dimacs(instance.graph, comments)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import verify_cover

    if args.graph == "-" and args.cover == "-":
        # The graph would read all of stdin and leave the cover empty.
        raise ValueError("the graph and the cover cannot both be read from stdin")
    g = _read_graph(args.graph)
    cover = _read_cover(args.cover)
    valid = verify_cover(g, cover)
    if args.json:
        print(json.dumps({"valid": valid, "cover_size": len(set(cover))}, indent=2))
    else:
        print(f"valid: {'true' if valid else 'false'}")
    return 0 if valid else 1


def _cmd_bench(args) -> int:
    from .bench import BenchConfig, estimate_branching_factor, run_benchmark, write_report

    # A sweep flag left out is not in args, so its field keeps its default.
    config = BenchConfig(**{
        key: value for key, value in vars(args).items() if key in BenchConfig._fields
    })
    config.validate()

    # Opened before the sweep, so a bad output path fails before any solve.
    output = (
        nullcontext() if args.output is None
        else open(args.output, "w", encoding="utf-8")
    )
    with output as csv_file:
        records = run_benchmark(config)
        if csv_file is not None:
            csv_file.write(write_report(records, "csv"))
    sys.stdout.write(write_report(records, "table"))

    fits = estimate_branching_factor(records)
    if fits:
        print()
        print("branching-factor fits (log nodes_expanded vs k):")
        for fit in fits:
            print(
                f"  strategy={fit.strategy.value} n={fit.n}: "
                f"base={fit.base:.3f} (slope={fit.slope:.4f}, "
                f"log_rmse={fit.log_rmse:.3f}, points={fit.points})"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .solver import Strategy

    strategies = [s.value for s in Strategy]
    parser = argparse.ArgumentParser(
        prog="vckit",
        description="Exact minimum vertex cover: decide, solve, generate, verify, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_strategy(p):
        p.add_argument(
            "--strategy",
            choices=strategies,
            default=Strategy.PAPER_FIVE.value,
            help="branching strategy (default: paper5)",
        )

    def add_time_limit(p):
        p.add_argument(
            "--time-limit",
            type=float,
            default=None,
            metavar="SECONDS",
            help="abort the search after this many seconds",
        )

    p_decide = sub.add_parser(
        "decide", help="decide whether a vertex cover of size <= k exists"
    )
    p_decide.add_argument("graph", help="DIMACS edge-format file, or - for stdin")
    p_decide.add_argument("--k", type=int, required=True, help="cover size budget")
    add_strategy(p_decide)
    add_time_limit(p_decide)
    p_decide.add_argument("--json", action="store_true", help="machine-readable output")
    p_decide.set_defaults(func=_cmd_decide)

    p_solve = sub.add_parser("solve", help="compute a minimum vertex cover")
    p_solve.add_argument("graph", help="DIMACS edge-format file, or - for stdin")
    add_strategy(p_solve)
    add_time_limit(p_solve)
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser(
        "gen", help="generate a planted instance with known minimum cover size"
    )
    p_gen.add_argument("--n", type=int, required=True, help="number of vertices")
    p_gen.add_argument("--k", type=int, required=True, help="planted cover size")
    p_gen.add_argument(
        "--extra-edges", type=int, default=None,
        help="extra cover-incident edges beyond the planted matching",
    )
    p_gen.add_argument(
        "--extra-edge-ratio", type=float, default=None,
        help="extra edges as a fraction of n (default 0.5 when --extra-edges is absent)",
    )
    p_gen.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    p_gen.add_argument(
        "--output", default=None, help="output path (default or '-': stdout)"
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="check a proposed cover against a graph")
    p_verify.add_argument("graph", help="DIMACS edge-format file, or - for stdin")
    p_verify.add_argument(
        "cover", help="file of whitespace-separated 0-based vertex ids"
    )
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="run a benchmark sweep over planted instances"
    )
    # Each sweep flag sets the BenchConfig field named by its dest; lists
    # split on commas or whitespace.
    def int_list(text: str) -> list[int]:
        return [int(p) for p in text.replace(",", " ").split()]

    def strategy_list(text: str) -> tuple[Strategy, ...]:
        try:
            return tuple(map(Strategy, text.replace(",", " ").split()))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def seconds(text: str) -> float | None:
        return None if text.lower() == "none" else float(text)

    for flag, key, convert, help_text in (
        ("--n", "n_values", int_list, "comma-separated n values"),
        ("--k", "k_values", int_list, "comma-separated k values"),
        ("--seed", "seeds", int_list, "comma-separated seeds"),
        ("--strategy", "strategies", strategy_list,
         f"comma-separated strategies from {{{','.join(strategies)}}}"),
        ("--extra-edge-ratio", "extra_edge_ratio", float, "extra edges as a fraction of n"),
        ("--repetitions", "repetitions", int, "solves per cell; the median time is kept"),
        ("--time-limit", "time_limit", seconds, "per-solve time limit in seconds, or none"),
    ):
        p_bench.add_argument(
            flag, dest=key, type=convert, default=argparse.SUPPRESS, help=help_text
        )
    p_bench.add_argument("--output", default=None, help="write the CSV report here")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


# Built on the first main() call, then kept for the process: parse_args
# leaves the parser unchanged and puts every value, defaults included, in
# a fresh namespace per call.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # DimacsError and GraphError are ValueErrors, SolveTimeout an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
