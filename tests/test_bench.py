"""Benchmark sweeps: record shape, determinism, reports, and fits."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from vckit import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    BranchSolver,
    Strategy,
    decide_vc,
    estimate_branching_factor,
    gen_planted,
    run_benchmark,
    verify_cover,
    write_report,
)

TINY = dict(
    n_values=[40],
    k_values=[3],
    extra_edge_ratio=0.3,
    seeds=[1, 2],
    repetitions=2,
    time_limit=30.0,
)


def _strip_times(records):
    return [
        (r.n, r.k_input, r.tau, r.strategy, r.decision, r.nodes_expanded,
         r.max_depth, r.seed, r.timed_out, r.error)
        for r in records
    ]


def test_run_benchmark_record_shape():
    config = BenchConfig(**TINY)
    records = run_benchmark(config)
    assert len(records) == 1 * 1 * len(config.strategies) * 2
    for r in records:
        assert r.n == 40 and r.k_input == 3 and r.tau == 3
        assert r.decision is True
        assert not r.timed_out and r.error is None
        assert r.nodes_expanded >= 1
        assert r.max_depth <= r.k_input + 1
        assert r.time_ms is not None and r.time_ms >= 0


def test_benchmark_decisions_verify_on_regenerated_instances():
    config = BenchConfig(**TINY)
    for r in run_benchmark(config):
        instance = gen_planted(r.n, r.k_input, round(0.3 * r.n), r.seed)
        result = decide_vc(instance.graph, r.k_input, r.strategy)
        assert result.decision is True
        assert verify_cover(instance.graph, result.certificate)
        assert result.stats.nodes_expanded == r.nodes_expanded


def test_run_benchmark_deterministic_modulo_time():
    config = BenchConfig(**TINY)
    assert _strip_times(run_benchmark(config)) == _strip_times(run_benchmark(config))


def test_run_benchmark_builds_one_solver_per_cell(monkeypatch):
    # a session serves any number of budgets, so repetitions reuse it
    built = []
    decided = []
    init = BranchSolver.__init__
    decide = BranchSolver.decide

    def counting_init(self, g, strategy=Strategy.PAPER_FIVE):
        built.append(Strategy(strategy))
        init(self, g, strategy)

    def counting_decide(self, k, time_limit=None):
        decided.append(self.strategy)
        return decide(self, k, time_limit)

    monkeypatch.setattr(BranchSolver, "__init__", counting_init)
    monkeypatch.setattr(BranchSolver, "decide", counting_decide)
    config = BenchConfig(**{**TINY, "repetitions": 3})
    records = run_benchmark(config)
    cells = len(TINY["seeds"])
    assert len(records) == cells * len(config.strategies)
    assert Counter(built) == Counter(list(config.strategies) * cells)
    assert Counter(decided) == Counter(list(config.strategies) * cells * 3)


def test_run_benchmark_records_generation_failures():
    # n=10, k=1 admits at most 8 extra edges; ratio 0.9 asks for 9.
    # the n=200 cell is feasible, so the sweep must carry on.
    config = BenchConfig(
        n_values=[10, 200], k_values=[1], extra_edge_ratio=0.9, seeds=[1],
        repetitions=1,
    )
    records = run_benchmark(config)
    failed = [r for r in records if r.error]
    good = [r for r in records if not r.error]
    assert {r.n for r in failed} == {10}
    assert {r.n for r in good} == {200}
    assert len(failed) == len(config.strategies)
    for r in failed:
        assert r.tau is None and r.decision is None and not r.timed_out
        assert "extra_edges" in r.error
    for r in good:
        assert r.decision is True


def test_run_benchmark_accepts_strategy_names(monkeypatch):
    config = dict(n_values=[20], k_values=[3, 4, 5])
    by_name = run_benchmark(BenchConfig(**config, strategies=("p3",)))
    by_member = run_benchmark(BenchConfig(**config, strategies=(Strategy.CLASSIC_P3,)))
    assert all(r.strategy is Strategy.CLASSIC_P3 for r in by_name)

    def without_times(records):
        rows = [line.split(",") for line in write_report(records).splitlines()]
        return [row[:7] + row[8:] for row in rows]

    assert without_times(by_name) == without_times(by_member)
    (fit,) = estimate_branching_factor(by_name)
    assert fit.strategy is Strategy.CLASSIC_P3

    # an unknown name fails in validate(), before any instance is made
    def no_generation(*args):
        raise AssertionError("generated an instance")

    monkeypatch.setattr("vckit.bench.gen_planted", no_generation)
    bad = BenchConfig(**config, strategies=("p3", "nope"))
    with pytest.raises(ValueError, match="'nope'"):
        bad.validate()
    with pytest.raises(ValueError, match="'nope'"):
        run_benchmark(bad)


def test_config_validation():
    with pytest.raises(ValueError, match="repetitions"):
        BenchConfig(repetitions=0).validate()
    with pytest.raises(ValueError, match="k must be >= 1"):
        BenchConfig(k_values=[0]).validate()
    with pytest.raises(ValueError, match="non-empty"):
        BenchConfig(n_values=[]).validate()
    for seconds in (0.0, -1.0, float("inf"), float("nan")):
        message = f"time_limit must be finite and > 0, got {seconds}"
        with pytest.raises(ValueError, match=message):
            BenchConfig(time_limit=seconds).validate()
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        BenchConfig(seeds=[-3]).validate()
    with pytest.raises(ValueError, match="2k <= n"):
        BenchConfig(n_values=[10], k_values=[2, 6]).validate()
    for ratio in (-0.5, float("inf"), float("nan")):
        message = f"extra_edge_ratio must be finite and >= 0, got {ratio}"
        with pytest.raises(ValueError, match=message):
            BenchConfig(extra_edge_ratio=ratio).validate()
    BenchConfig().validate()


def test_config_rejects_repeated_values():
    # a repeated value would solve one cell twice and report the pair as
    # repetitions; a strategy counts as itself by member or by name
    for field, config in (
        ("n_values", BenchConfig(n_values=[40, 40])),
        ("k_values", BenchConfig(k_values=[2, 3, 2])),
        ("seeds", BenchConfig(seeds=[1, 1])),
        ("strategies", BenchConfig(strategies=("p3", Strategy.CLASSIC_P3))),
    ):
        with pytest.raises(ValueError, match=f"{field} must not repeat a value"):
            config.validate()


def test_config_rejects_no_strategies():
    with pytest.raises(ValueError, match="strategies must be non-empty"):
        BenchConfig(strategies=()).validate()


def test_sweep_of_timed_out_solves():
    # a limit spent before the first node: every solve times out, and the
    # sweep records it rather than raising
    config = BenchConfig(
        n_values=[40], k_values=[3], extra_edge_ratio=0.3, seeds=[1], time_limit=1e-9
    )
    records = run_benchmark(config)
    assert [r.strategy for r in records] == list(Strategy)
    for r in records:
        assert (r.n, r.k_input, r.tau, r.seed) == (40, 3, 3, 1)
        assert r.timed_out and r.error is None
        assert (r.decision, r.nodes_expanded, r.max_depth, r.time_ms) == (None,) * 4
    rows = write_report(records, "csv").splitlines()[1:]
    assert rows == [f"40,3,3,{s},,,,,1,true" for s in ("edge", "p3", "paper5")]
    table = write_report(records, "table").splitlines()
    assert table[1].split() == ["40", "3", "3"] + ["timeout"] * 3 + ["-"] * 3


def test_table_marks_generation_failures():
    # n=10, k=1 admits at most 8 extra edges; ratio 0.9 asks for 9
    records = run_benchmark(
        BenchConfig(n_values=[10], k_values=[1], extra_edge_ratio=0.9, seeds=[1])
    )
    table = write_report(records, "table").splitlines()
    assert len(table) == 2
    assert table[1].split() == ["10", "1", "-"] + ["failed"] * 3 + ["-"] * 3


def test_csv_header_and_layout():
    assert CSV_HEADER == (
        "n,k_input,tau,strategy,decision,nodes_expanded,max_depth,"
        "time_ms,seed,timed_out"
    )
    record = BenchRecord(
        n=40, k_input=3, tau=3, strategy=Strategy.CLASSIC_P3, decision=True,
        nodes_expanded=17, max_depth=4, time_ms=0.25, seed=9,
    )
    text = write_report([record], "csv")
    assert text == CSV_HEADER + "\n40,3,3,p3,true,17,4,0.250,9,false\n"


def test_csv_empty_input():
    assert write_report([], "csv") == CSV_HEADER + "\n"


def test_csv_rows_sorted():
    records = run_benchmark(
        BenchConfig(n_values=[44, 40], k_values=[3, 2], extra_edge_ratio=0.2,
                    seeds=[2, 1], repetitions=1)
    )
    lines = write_report(records, "csv").splitlines()[1:]
    keys = []
    for line in lines:
        parts = line.split(",")
        keys.append((int(parts[0]), int(parts[1]), parts[3], int(parts[8])))
    assert keys == sorted(keys)


def test_csv_timed_out_row_blanks():
    record = BenchRecord(
        n=1000, k_input=12, tau=12, strategy=Strategy.PAPER_FIVE, decision=None,
        nodes_expanded=None, max_depth=None, time_ms=None, seed=3, timed_out=True,
    )
    line = write_report([record], "csv").splitlines()[1]
    assert line == "1000,12,12,paper5,,,,,3,true"


def test_csv_generation_failure_row_blanks():
    record = BenchRecord(
        n=10, k_input=1, strategy=Strategy.PAPER_FIVE, seed=1, error="infeasible",
    )
    line = write_report([record], "csv").splitlines()[1]
    assert line == "10,1,,paper5,,,,,1,false"


def test_table_report_mentions_cells():
    records = run_benchmark(BenchConfig(**TINY))
    table = write_report(records, "table")
    assert "time_ms[paper5]" in table
    assert "nodes[edge]" in table
    data_row = table.splitlines()[1]
    assert data_row.split()[:3] == ["40", "3", "3"]


def test_write_report_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown report format"):
        write_report([], "xml")


def _fit_records(strategy, n, pairs):
    return [
        BenchRecord(
            n=n, k_input=k, tau=k, strategy=strategy, decision=True,
            nodes_expanded=nodes, max_depth=k, time_ms=1.0, seed=1,
        )
        for k, nodes in pairs
    ]


def test_branching_fit_recovers_exact_powers():
    records = _fit_records(
        Strategy.EDGE_BRANCH, 500, [(k, 3 * 2**k) for k in (6, 8, 10, 12)]
    )
    (fit,) = estimate_branching_factor(records)
    assert math.isclose(fit.base, 2.0, rel_tol=1e-9)
    assert math.isclose(fit.intercept, math.log(3), rel_tol=1e-9)
    assert fit.log_rmse < 1e-12
    assert fit.points == 4


def test_branching_fit_constant_nodes_gives_base_one():
    records = _fit_records(Strategy.CLASSIC_P3, 500, [(k, 64) for k in (4, 6, 8)])
    (fit,) = estimate_branching_factor(records)
    assert math.isclose(fit.base, 1.0, abs_tol=1e-12)


def test_branching_fit_groups_by_strategy_and_n():
    records = _fit_records(
        Strategy.EDGE_BRANCH, 100, [(k, 2**k) for k in (4, 6, 8)]
    ) + _fit_records(
        Strategy.PAPER_FIVE, 200, [(k, 3**k) for k in (4, 6, 8)]
    )
    fits = estimate_branching_factor(records)
    assert [(f.strategy, f.n) for f in fits] == [
        (Strategy.EDGE_BRANCH, 100),
        (Strategy.PAPER_FIVE, 200),
    ]
    assert math.isclose(fits[1].base, 3.0, rel_tol=1e-9)


def _timed_out_record(strategy, n, k):
    return BenchRecord(
        n=n, k_input=k, tau=k, strategy=strategy, decision=None,
        nodes_expanded=None, max_depth=None, time_ms=None, seed=1,
        timed_out=True,
    )


def test_branching_fit_needs_three_k_values():
    # two points always fit a line exactly, so a two-k group gets no fit
    short = _fit_records(Strategy.EDGE_BRANCH, 100, [(4, 16), (6, 64)])
    assert estimate_branching_factor(short) == []
    # a timed-out record does not make a third k
    short.append(_timed_out_record(Strategy.EDGE_BRANCH, 100, 8))
    assert estimate_branching_factor(short) == []
    # and a short group does not stop the others from being fitted
    full = _fit_records(Strategy.CLASSIC_P3, 100, [(k, 2**k) for k in (4, 6, 8)])
    assert [(f.strategy, f.n) for f in estimate_branching_factor(short + full)] == [
        (Strategy.CLASSIC_P3, 100)
    ]


def test_branching_fit_rejects_timed_out_groups():
    # timed-out and failed records are left out of the fit, not fatal
    records = _fit_records(Strategy.EDGE_BRANCH, 100, [(k, 2**k) for k in (4, 6, 8)])
    records.append(_timed_out_record(Strategy.EDGE_BRANCH, 100, 10))
    records.append(
        BenchRecord(
            n=100, k_input=12, tau=None, strategy=Strategy.EDGE_BRANCH,
            decision=None, nodes_expanded=None, max_depth=None, time_ms=None,
            seed=1, error="infeasible",
        )
    )
    (fit,) = estimate_branching_factor(records)
    assert fit.points == 3
    assert math.isclose(fit.base, 2.0, rel_tol=1e-9)

