"""Acceptance gate: one test per release criterion.

Each test prints a single summary line so a verbose run reads as a
checklist.  Thresholds are fixed here on purpose; loosening them is a
release decision, not a test edit.
"""

from __future__ import annotations

import random
import statistics
import time

from vckit import (
    CSV_HEADER,
    BenchConfig,
    BranchSolver,
    Strategy,
    brute_force_tau,
    decide_vc,
    estimate_branching_factor,
    gen_gnm,
    gen_planted,
    parse_dimacs,
    run_benchmark,
    verify_cover,
    write_dimacs,
    write_report,
)

ALL_STRATEGIES = tuple(Strategy)


def _report(number: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS - {detail}")


def _session_snapshot(solver: BranchSolver):
    return (
        bytes(solver._flags),
        solver.selected,
        bytes(solver._live),
    )


def test_criterion_1_oracle_equivalence_on_all_small_graphs():
    """All three strategies agree with brute force on every graph with
    up to 7 vertices, for every budget, within 2 minutes."""
    import networkx

    from vckit import Graph

    start = time.perf_counter()
    atlas = networkx.graph_atlas_g()
    graphs = [g for g in atlas if 1 <= g.number_of_nodes() <= 7]
    assert len(graphs) == 1252
    decisions = 0
    for nx_graph in graphs:
        n = nx_graph.number_of_nodes()
        g = Graph(n, list(nx_graph.edges()))
        tau = brute_force_tau(g)
        for strategy in ALL_STRATEGIES:
            solver = BranchSolver(g, strategy)
            for k in range(n + 1):
                result = solver.decide(k)
                decisions += 1
                assert result.decision == (tau <= k), (
                    f"mismatch on atlas graph {nx_graph.name!r}: "
                    f"strategy={strategy.value} k={k} tau={tau}"
                )
                if result.decision:
                    assert verify_cover(g, result.certificate)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
    _report(
        1, "oracle equivalence",
        f"{len(graphs)} graphs, {decisions} decisions, 0 mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_certificates_verify_corpus_wide():
    """Every certificate from a true decision across a mixed corpus is a
    genuine vertex cover no larger than its budget."""
    rng = random.Random(161803)
    corpus = []
    for trial in range(300):
        n = rng.randrange(1, 13)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        corpus.append(gen_gnm(n, m, seed=rng.randrange(2**32)))
    for trial in range(30):
        k = rng.randrange(1, 6)
        n = rng.randrange(2 * k, 2 * k + 20)
        available = k * (k - 1) // 2 + k * (n - k) - k
        extra = rng.randrange(0, min(available, 2 * n) + 1)
        corpus.append(gen_planted(n, k, extra, seed=rng.randrange(2**32)).graph)

    checked = 0
    for g in corpus:
        budgets = sorted({
            rng.randrange(0, g.vertex_count + 1) for _ in range(3)
        } | {g.vertex_count})
        for strategy in ALL_STRATEGIES:
            for k in budgets:
                result = decide_vc(g, k, strategy)
                if result.decision:
                    assert verify_cover(g, result.certificate), (
                        f"bad certificate: n={g.vertex_count} "
                        f"strategy={strategy.value} k={k}"
                    )
                    assert len(result.certificate) <= k
                    checked += 1
    assert checked > 1000
    _report(2, "certificate soundness", f"{checked} certificates verified")


def test_criterion_3_planted_instances_hit_their_tau():
    """gen_planted(30, 5, 40) has brute-force tau exactly 5 for fifty
    consecutive seeds, within a minute."""
    start = time.perf_counter()
    for seed in range(50):
        instance = gen_planted(30, 5, 40, seed)
        tau = brute_force_tau(instance.graph)
        assert tau == 5, f"seed {seed}: tau={tau}"
        assert verify_cover(instance.graph, instance.planted_cover)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    _report(3, "planted tau", f"50 seeds, all tau=5, {elapsed:.1f}s")


def test_criterion_4_node_counts_scale_with_k_not_n():
    """Fixed k=8: median search-tree size stays within 4x while n grows
    8x, and no solve takes anywhere near 10 seconds."""
    medians = {}
    slowest = 0.0
    for n in (1000, 2000, 4000, 8000):
        nodes = []
        for seed in (1, 2, 3, 4, 5):
            instance = gen_planted(n, 8, n // 2, seed)
            start = time.perf_counter()
            result = decide_vc(instance.graph, 8, Strategy.PAPER_FIVE)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            assert elapsed < 10.0, f"n={n} seed={seed} took {elapsed:.1f}s"
            assert result.decision is True
            nodes.append(result.stats.nodes_expanded)
        medians[n] = statistics.median(nodes)
    spread = max(medians.values()) / min(medians.values())
    assert spread <= 4.0, f"median nodes varied {spread:.2f}x across n: {medians}"
    _report(
        4, "fpt scaling",
        f"medians {medians}, spread {spread:.2f}x, slowest solve {slowest:.2f}s",
    )


def test_criterion_5_edge_branch_fit_within_two():
    """The fitted branching base for the edge strategy stays at or below
    2.05 on the standard sweep; the other strategies are informational."""
    config = BenchConfig(
        n_values=[2000],
        k_values=[6, 8, 10, 12],
        extra_edge_ratio=0.5,
        strategies=ALL_STRATEGIES,
        seeds=[1, 2, 3],
        repetitions=1,
        time_limit=60.0,
    )
    records = run_benchmark(config)
    assert not any(r.timed_out or r.error for r in records)
    fits = {fit.strategy: fit for fit in estimate_branching_factor(records)}
    edge_fit = fits[Strategy.EDGE_BRANCH]
    assert edge_fit.base <= 2.05, f"edge base {edge_fit.base:.3f} exceeds 2.05"
    info = ", ".join(
        f"{s.value}={fits[s].base:.3f}" for s in ALL_STRATEGIES
    )
    _report(5, "branching factor", f"fitted bases: {info}")


def test_criterion_6_huge_budget_stays_shallow():
    """Budget far above tau must not hurt: the first descent succeeds,
    depth tracks tau rather than k, and the answer is immediate."""
    instance = gen_planted(2000, 5, 1000, seed=1)
    start = time.perf_counter()
    result = decide_vc(instance.graph, 500, Strategy.PAPER_FIVE)
    elapsed = time.perf_counter() - start
    assert result.decision is True
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    assert result.stats.max_depth <= 20, f"depth {result.stats.max_depth} > 20"
    assert verify_cover(instance.graph, result.certificate)
    _report(
        6, "huge budget",
        f"decision in {elapsed * 1000:.1f}ms at depth {result.stats.max_depth}",
    )


def test_criterion_7_default_benchmark_is_reproducible():
    """Two runs of the stock benchmark agree byte for byte once the
    timing column is removed."""
    def stripped_csv() -> str:
        csv = write_report(run_benchmark(BenchConfig()), "csv")
        lines = csv.splitlines()
        assert lines[0] == CSV_HEADER
        kept = []
        time_col = CSV_HEADER.split(",").index("time_ms")
        for line in lines:
            cells = line.split(",")
            del cells[time_col]
            kept.append(",".join(cells))
        return "\n".join(kept)

    first = stripped_csv()
    second = stripped_csv()
    assert first == second
    rows = len(first.splitlines()) - 1
    _report(7, "bench determinism", f"{rows} records identical across runs")


def test_criterion_8_decide_leaves_no_trace():
    """Backtracking purity over 500+ random (graph, budget) pairs: the
    session state equals its pre-call snapshot and the graph is
    untouched, decision regardless."""
    rng = random.Random(5150)
    cases = 0
    while cases < 510:
        # alternate small graphs with free budgets and larger graphs with
        # capped ones; an uncapped budget near tau on 30 vertices would
        # make single failing searches astronomically large
        if cases % 2:
            n = rng.randrange(1, 15)
            k = rng.randrange(0, n + 1)
        else:
            n = rng.randrange(15, 31)
            k = rng.randrange(0, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        edges_before = list(g.edges())
        strategy = ALL_STRATEGIES[cases % len(ALL_STRATEGIES)]
        solver = BranchSolver(g, strategy)
        before = _session_snapshot(solver)
        solver.decide(k)
        assert _session_snapshot(solver) == before, (
            f"state leak: n={n} m={m} k={k} strategy={strategy.value}"
        )
        assert list(g.edges()) == edges_before
        g.validate()
        cases += 1
    _report(8, "backtracking purity", f"{cases} decide calls, no state leaks")


def test_criterion_9_dimacs_round_trip():
    """write -> parse is the identity on 200 random graphs."""
    rng = random.Random(314159)
    for trial in range(200):
        n = rng.randrange(1, 51)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        assert parse_dimacs(write_dimacs(g)) == g
    _report(9, "dimacs round trip", "200 graphs, all identical")
