"""Benchmark sweeps over planted instances, with CSV and table reports.

A sweep runs every (n, k, seed) cell of the config through each
strategy on the same generated instance.  Records are deterministic
given the config except for the timing fields, so two runs of the same
config produce byte-identical CSV once the time_ms column is ignored.
The CSV is the integration point for any downstream analysis.
"""

from __future__ import annotations

import math
from itertools import product
from statistics import linear_regression, median
from typing import Iterable, NamedTuple, Optional, Sequence

from .generate import _check_edge_ratio, _check_planted, gen_planted
from .solver import BranchSolver, SolveTimeout, Strategy, _check_time_limit

# The CSV columns in order, each a BenchRecord field; a field left out
# of this header never reaches the CSV.
CSV_HEADER = "n,k_input,tau,strategy,decision,nodes_expanded,max_depth,time_ms,seed,timed_out"

_STRATEGY_ORDER = tuple(Strategy)  # paper5, p3, edge


class BenchConfig(NamedTuple):
    """One benchmark sweep: the cartesian product of the lists below.

    extra_edge_ratio scales with n (extra_edges = round(ratio * n)), so
    instances keep comparable density across sizes.  repetitions solves
    each cell that many times and reports the median time; the default
    of 1 keeps the stock sweep quick, and the other counters are
    identical across repetitions anyway.  time_limit (seconds) applies
    per solve, and an exceeded limit becomes a timed-out record rather
    than an error.  strategies may name a Strategy by its value, as
    BranchSolver accepts; validate() rejects an unknown name.
    """

    n_values: Sequence[int] = (1000, 2000, 5000, 10000)
    k_values: Sequence[int] = (6, 8, 10, 12)
    extra_edge_ratio: float = 0.5
    strategies: Sequence[Strategy | str] = _STRATEGY_ORDER
    seeds: Sequence[int] = (1,)
    repetitions: int = 1
    time_limit: Optional[float] = 60.0

    def validate(self) -> None:
        if not self.n_values or not self.k_values or not self.seeds:
            raise ValueError("n_values, k_values and seeds must be non-empty")
        if not self.strategies:
            raise ValueError("strategies must be non-empty")
        # Strategy() raises ValueError naming an unknown strategy.
        strategies = [Strategy(name).value for name in self.strategies]
        for field, values in (
            ("n_values", self.n_values), ("k_values", self.k_values),
            ("seeds", self.seeds), ("strategies", strategies),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"{field} must not repeat a value, got {list(values)}")
        # At the largest n first, so an infinite edge count names it.
        _check_edge_ratio(self.extra_edge_ratio, max(self.n_values), "extra_edge_ratio")
        # Every cell that gen_planted would refuse, before any is generated.
        for n, k, seed in product(self.n_values, self.k_values, self.seeds):
            extra_edges = _check_edge_ratio(self.extra_edge_ratio, n, "extra_edge_ratio")
            _check_planted(n, k, extra_edges, seed)
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        _check_time_limit(self.time_limit, "time_limit")


class BenchRecord(NamedTuple):
    """One (n, k, strategy, seed) cell of a sweep.

    A measurement a record lacks is None.  A timed-out record keeps its
    identity fields and tau but carries no decision or counters.
    """

    n: int
    k_input: int
    strategy: Strategy
    seed: int
    tau: Optional[int] = None
    decision: Optional[bool] = None
    nodes_expanded: Optional[int] = None
    max_depth: Optional[int] = None
    time_ms: Optional[float] = None
    timed_out: bool = False


def run_benchmark(config: BenchConfig) -> list[BenchRecord]:
    """Execute the sweep; one record per (n, k, strategy, seed) cell.

    Cells sharing (n, k, seed) solve the same generated instance, and
    every record carries a Strategy member, whether config.strategies
    named it by member or by string.  A per-solve timeout is recorded,
    not raised, so a valid sweep always completes.
    """
    config.validate()
    strategies = tuple(map(Strategy, config.strategies))
    records: list[BenchRecord] = []
    for n in config.n_values:
        extra_edges = _check_edge_ratio(config.extra_edge_ratio, n, "extra_edge_ratio")
        for k in config.k_values:
            for seed in config.seeds:
                instance = gen_planted(n, k, extra_edges, seed)
                for strategy in strategies:
                    records.append(_solve_cell(instance, strategy, config))
    return records


def _solve_cell(instance, strategy: Strategy, config: BenchConfig) -> BenchRecord:
    n = instance.graph.vertex_count
    k = instance.planted_k
    times: list[float] = []
    outcome = None
    # A session serves any number of decides, so one serves every repetition.
    solver = BranchSolver(instance.graph, strategy)
    for _ in range(config.repetitions):
        try:
            outcome = solver.decide(k, time_limit=config.time_limit)
        except SolveTimeout:
            return BenchRecord(
                n=n, k_input=k, tau=k, strategy=strategy, seed=instance.seed,
                timed_out=True,
            )
        times.append(outcome.stats.elapsed_ms)
    return BenchRecord(
        n=n,
        k_input=k,
        tau=k,
        strategy=strategy,
        decision=outcome.decision,
        nodes_expanded=outcome.stats.nodes_expanded,
        max_depth=outcome.stats.max_depth,
        time_ms=median(times),
        seed=instance.seed,
    )


class BranchingFit(NamedTuple):
    """Least-squares fit of log(nodes_expanded) against k for one
    (strategy, n) group; base = exp(slope) estimates the branching
    factor, log_rmse the fit residual in log space."""

    strategy: Strategy
    n: int
    base: float
    slope: float
    intercept: float
    log_rmse: float
    points: int


def estimate_branching_factor(records: Iterable[BenchRecord]) -> list[BranchingFit]:
    """Fit the empirical branching factor per (strategy, n) group.

    Timed-out records carry no node count and are dropped.
    A group left with fewer than three distinct k gets no fit, since
    two points always fit a line exactly; so the result may be empty.
    """
    groups: dict[tuple[Strategy, int], list[BenchRecord]] = {}
    for record in records:
        if record.nodes_expanded is not None:
            groups.setdefault((record.strategy, record.n), []).append(record)
    fits = []
    for strategy, n in sorted(groups, key=lambda key: (key[0].value, key[1])):
        members = groups[(strategy, n)]
        if len({r.k_input for r in members}) < 3:
            continue
        xs = [r.k_input for r in members]
        ys = [math.log(r.nodes_expanded) for r in members]
        slope, intercept = linear_regression(xs, ys)
        residual = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        fits.append(
            BranchingFit(
                strategy=strategy,
                n=n,
                base=math.exp(slope),
                slope=slope,
                intercept=intercept,
                log_rmse=math.sqrt(residual / len(xs)),
                points=len(xs),
            )
        )
    return fits


def _sort_key(record: BenchRecord):
    return (record.n, record.k_input, record.strategy.value, record.seed)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, Strategy):
        return value.value
    return str(value)


def write_report(records: Iterable[BenchRecord], fmt: str = "csv") -> str:
    """Render records as 'csv' (machine) or 'table' (human) text.

    Both orders rows by (n, k_input, strategy, seed).  CSV emits one
    row per record under CSV_HEADER; the table groups rows by (n, k)
    with per-strategy median time and node columns.
    """
    ordered = sorted(records, key=_sort_key)
    if fmt == "csv":
        return _write_csv(ordered)
    if fmt == "table":
        return _write_table(ordered)
    raise ValueError(f"unknown report format {fmt!r}, expected 'csv' or 'table'")


def _write_csv(ordered: Sequence[BenchRecord]) -> str:
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(",".join(_csv_cell(getattr(r, column)) for column in columns))
    return "\n".join(lines) + "\n"


def _write_table(ordered: Sequence[BenchRecord]) -> str:
    strategies = [s for s in _STRATEGY_ORDER if any(r.strategy is s for r in ordered)]
    cells: dict[tuple[int, int], dict[Strategy, list[BenchRecord]]] = {}
    for r in ordered:
        cells.setdefault((r.n, r.k_input), {}).setdefault(r.strategy, []).append(r)

    def time_cell(group: list[BenchRecord]) -> str:
        if any(r.timed_out for r in group):
            return "timeout"
        return f"{median(r.time_ms for r in group):.3f}"

    def nodes_cell(group: list[BenchRecord]) -> str:
        usable = [r.nodes_expanded for r in group if r.nodes_expanded is not None]
        if not usable:
            return "-"
        return str(round(median(usable)))

    header = ["n", "k", "tau"]
    header += [f"time_ms[{s.value}]" for s in strategies]
    header += [f"nodes[{s.value}]" for s in strategies]
    rows = [header]
    for (n, k) in sorted(cells):
        by_strategy = cells[(n, k)]
        taus = {r.tau for group in by_strategy.values() for r in group}
        taus.discard(None)
        row = [str(n), str(k), str(taus.pop()) if len(taus) == 1 else "-"]
        for s in strategies:
            group = by_strategy.get(s)
            row.append(time_cell(group) if group else "-")
        for s in strategies:
            group = by_strategy.get(s)
            row.append(nodes_cell(group) if group else "-")
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    out = []
    for row in rows:
        out.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out) + "\n"

