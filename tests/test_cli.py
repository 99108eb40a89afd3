"""The command-line surface, driven in-process through cli.main."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vckit
from vckit import (
    CSV_HEADER,
    BenchConfig,
    DimacsFormatWarning,
    Strategy,
    gen_planted,
    parse_dimacs,
    run_benchmark,
    verify_cover,
    write_dimacs,
)
from vckit import cli, dimacs, solver
from vckit.cli import main
from vckit.dimacs import MAX_VERTICES

from graphutil import complete_graph, cycle_graph, path_graph, star_graph


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.col"
    path.write_text(write_dimacs(path_graph(3)))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(write_dimacs(complete_graph(3)))
    return str(path)


def test_decide_true(p3_file, capsys):
    assert main(["decide", p3_file, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "decision: true" in out
    assert "certificate: 1" in out
    assert "nodes_expanded:" in out
    assert "time_ms:" in out


def test_decide_false_exit_code(k3_file, capsys):
    assert main(["decide", k3_file, "--k", "1"]) == 1
    out = capsys.readouterr().out
    assert "decision: false" in out
    assert "certificate" not in out


def test_decide_json_round_trip(p3_file, capsys):
    assert main(["decide", p3_file, "--k", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] is True
    assert payload["certificate"] == [1]
    stats = payload["stats"]
    assert set(stats) == {"nodes_expanded", "max_depth", "triplet_scans", "elapsed_ms"}
    assert stats["nodes_expanded"] >= 1


def test_decide_json_false_has_null_certificate(k3_file, capsys):
    assert main(["decide", k3_file, "--k", "1", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] is False
    assert payload["certificate"] is None


@pytest.mark.parametrize("strategy", ["paper5", "p3", "edge"])
def test_decide_strategy_flag(p3_file, strategy, capsys):
    assert main(["decide", p3_file, "--k", "1", "--strategy", strategy]) == 0
    capsys.readouterr()


def test_decide_missing_file(capsys):
    assert main(["decide", "/nonexistent/g.col", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_decide_negative_budget(p3_file, capsys):
    assert main(["decide", p3_file, "--k", "-1"]) == 2
    assert "k must be >= 0" in capsys.readouterr().err


def test_decide_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    assert main(["decide", str(bad), "--k", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_decide_declared_vertex_count_above_limit(tmp_path, capsys):
    # a hostile header is an input error, found before anything is allocated
    huge = tmp_path / "huge.col"
    huge.write_text(f"p edge {MAX_VERTICES + 1} 0\n")
    assert main(["decide", str(huge), "--k", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: problem line declares {MAX_VERTICES + 1} vertices, "
        f"more than the {MAX_VERTICES} accepted\n"
    )


def test_decide_unknown_strategy_usage_error(p3_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["decide", p3_file, "--k", "1", "--strategy", "bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_solve_text(tmp_path, capsys):
    path = tmp_path / "c5.col"
    path.write_text(write_dimacs(cycle_graph(5)))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "size: 3" in out
    assert "cover:" in out


def test_solve_json(tmp_path, capsys):
    path = tmp_path / "star.col"
    path.write_text(write_dimacs(star_graph(5)))
    assert main(["solve", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 1
    assert payload["cover"] == [0]
    assert verify_cover(star_graph(5), payload["cover"])


def test_solve_edgeless(tmp_path, capsys):
    path = tmp_path / "none.col"
    path.write_text("p edge 6 0\n")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "size: 0" in out


@pytest.mark.parametrize("seconds", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "command", [["decide", "--k", "1"], ["solve"]], ids=["decide", "solve"]
)
def test_decide_and_solve_reject_bad_time_limit(p3_file, command, seconds, capsys):
    argv = [command[0], p3_file, *command[1:], f"--time-limit={seconds}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --time-limit must be finite and > 0, got {float(seconds)}\n"
    )


@pytest.mark.parametrize(
    "command", [["decide", "--k", "1"], ["solve"]], ids=["decide", "solve"]
)
def test_decide_and_solve_report_a_spent_time_limit(p3_file, command, capsys):
    # SolveTimeout is a TimeoutError, so main reports it like any OSError
    argv = [command[0], p3_file, *command[1:], "--time-limit", "1e-9"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: time limit exceeded after 1 nodes\n"


def test_solve_accepts_a_finite_time_limit(p3_file, capsys):
    assert main(["solve", p3_file, "--time-limit", "30"]) == 0
    assert "size: 1" in capsys.readouterr().out


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out_path = tmp_path / "inst.col"
    rc = main([
        "gen", "--n", "24", "--k", "4", "--extra-edge-ratio", "0.75",
        "--seed", "5", "--output", str(out_path),
    ])
    assert rc == 0
    text = out_path.read_text()
    assert "c planted instance: n=24 k=4 extra_edges=18 seed=5" in text
    assert "c planted cover (0-based): 0 1 2 3" in text
    g = parse_dimacs(text)
    assert g.vertex_count == 24
    assert g.edge_count == 22


def test_gen_stdout_and_solve_round_trip(tmp_path, capsys):
    assert main(["gen", "--n", "20", "--k", "3", "--extra-edge-ratio", "0.5"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.col"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0
    assert "size: 3" in capsys.readouterr().out


def test_gen_ratio_default(capsys):
    assert main(["gen", "--n", "30", "--k", "5"]) == 0
    g = parse_dimacs(capsys.readouterr().out)
    # default ratio 0.5 of n=30 -> 15 extra edges on top of the matching
    assert g.edge_count == 20


def test_gen_infeasible_parameters(capsys):
    assert main(["gen", "--n", "5", "--k", "3"]) == 2
    assert "2k <= n" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", ["inf", "-inf", "nan", "-0.5"])
def test_gen_rejects_non_finite_ratio(ratio, capsys):
    assert main(["gen", "--n", "10", "--k", "2", f"--extra-edge-ratio={ratio}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --extra-edge-ratio must be finite and >= 0, got {float(ratio)}\n"
    )


def test_gen_rejects_ratio_with_infinite_edge_count(capsys):
    # finite, but ratio * n overflows to inf, which round() cannot take
    rc = main(["gen", "--n", "1000", "--k", "2", "--extra-edge-ratio", "1e308"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --extra-edge-ratio 1e+308 times n=1000 is not a finite edge count\n"
    )


def test_verify_valid_cover(p3_file, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("c chosen by hand\n1\n")
    assert main(["verify", p3_file, str(cover)]) == 0
    assert "valid: true" in capsys.readouterr().out


def test_verify_invalid_cover(p3_file, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("0\n")
    assert main(["verify", p3_file, str(cover)]) == 1
    assert "valid: false" in capsys.readouterr().out


def test_verify_json(p3_file, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("1 1 2\n")
    assert main(["verify", p3_file, str(cover), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"valid": True, "cover_size": 2}


def test_verify_bad_vertex_id(p3_file, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("7\n")
    assert main(["verify", p3_file, str(cover)]) == 2
    assert "vertex id 7" in capsys.readouterr().err


def test_verify_non_integer_cover(p3_file, tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("1 x\n")
    assert main(["verify", p3_file, str(cover)]) == 2
    assert "non-integer" in capsys.readouterr().err


def test_verify_reads_the_cover_from_stdin(p3_file, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("# the center\n1\n"))
    assert main(["verify", p3_file, "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "cover_size": 1}
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    assert main(["verify", p3_file, "-"]) == 1
    assert capsys.readouterr().out == "valid: false\n"


def test_verify_rejects_graph_and_cover_both_from_stdin(monkeypatch, capsys):
    # the graph would read all of stdin and leave the cover empty
    stdin = write_dimacs(path_graph(3)) + "1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["verify", "-", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the graph and the cover cannot both be read from stdin\n"
    )


def test_bench_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = main([
        "bench", "--n", "40,50", "--k", "2,3", "--seed", "1",
        "--extra-edge-ratio", "0.25", "--repetitions", "1",
        "--output", str(csv_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "time_ms[paper5]" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 3


def test_bench_strategy_subset_and_fits(capsys):
    rc = main([
        "bench", "--n", "60", "--k", "2,3,4", "--seed", "1",
        "--extra-edge-ratio", "0.2", "--repetitions", "1",
        "--strategy", "edge",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "branching-factor fits" in out
    assert "strategy=edge n=60" in out
    assert "paper5" not in out


def test_bench_flags_parse_like_config_lines(monkeypatch, capsys):
    # each sweep flag's text sets its BenchConfig field: lists split on
    # commas and whitespace, and a time limit of none is no limit
    configs = []

    def recording(config):
        configs.append(config)
        return run_benchmark(config)

    monkeypatch.setattr("vckit.bench.run_benchmark", recording)
    assert main([
        "bench", "--n", "40", "--k", "2, 3", "--seed", "1",
        "--strategy", "p3 edge", "--repetitions", "2",
        "--extra-edge-ratio", "0.2", "--time-limit", "none",
    ]) == 0
    assert configs == [BenchConfig(
        n_values=[40], k_values=[2, 3], seeds=[1],
        strategies=(Strategy.CLASSIC_P3, Strategy.EDGE_BRANCH),
        repetitions=2, extra_edge_ratio=0.2, time_limit=None,
    )]
    capsys.readouterr()
    # a value its flag cannot take is a usage error, as for every option
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--repetitions", "two"])
    assert exit_info.value.code == 2
    assert "--repetitions" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--strategy", "p3 nope"])
    assert exit_info.value.code == 2
    assert "'nope' is not a valid Strategy" in capsys.readouterr().err


def test_bench_invalid_config(capsys):
    assert main(["bench", "--k", "0"]) == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_bench_bad_output_path_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    def no_generation(*args):
        raise AssertionError("generated an instance")

    monkeypatch.setattr("vckit.bench.gen_planted", no_generation)
    missing = tmp_path / "no_such_dir" / "sweep.csv"
    assert main(["bench", "--n", "40", "--k", "2", "--output", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(missing) in captured.err


def _no_generation(*args):
    raise AssertionError("generated an instance")


@pytest.mark.parametrize("n, seed", [(40, 2**64), (MAX_VERTICES + 1, 1)])
def test_bench_refuses_what_the_generator_refuses(n, seed, monkeypatch, capsys):
    with pytest.raises(ValueError) as refused:
        gen_planted(n, 2, 0, seed)
    monkeypatch.setattr("vckit.bench.gen_planted", _no_generation)
    assert main(["bench", "--n", str(n), "--k", "2", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


def test_bench_refuses_cells_with_too_many_extra_edges(tmp_path, monkeypatch, capsys):
    # ratio 2 asks for 8 extra edges at n=4 and 80 at n=40, past the 3
    # and 75 that k=2 leaves: gen refuses either cell, so bench does too
    for n in ("40", "4"):
        assert main(["gen", "--n", n, "--k", "2", "--extra-edge-ratio", "2"]) == 2
        refused = capsys.readouterr().err
    monkeypatch.setattr("vckit.bench.gen_planted", _no_generation)
    output = tmp_path / "x.csv"
    rc = main([
        "bench", "--n", "4,40", "--k", "2", "--extra-edge-ratio", "2",
        "--output", str(output),
    ])
    assert rc == 2
    assert not output.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == refused
    assert "cover-incident edges available for n=4, k=2" in refused


def test_bench_rejects_repeated_values(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("vckit.bench.gen_planted", _no_generation)
    output = tmp_path / "x.csv"
    rc = main([
        "bench", "--n", "40,40", "--k", "2", "--strategy", "p3,p3",
        "--output", str(output),
    ])
    assert rc == 2
    assert not output.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_values must not repeat a value, got [40, 40]\n"


@pytest.mark.parametrize("ratio", ["inf", "-inf", "nan"])
def test_bench_rejects_non_finite_ratio(ratio, capsys):
    rc = main(["bench", "--n", "40", "--k", "2", f"--extra-edge-ratio={ratio}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: extra_edge_ratio must be finite and >= 0, got {float(ratio)}\n"
    )


def test_bench_rejects_ratio_with_infinite_edge_count(capsys):
    # rejected by BenchConfig.validate at the largest n, before any cell runs
    rc = main([
        "bench", "--n", "40,1000", "--k", "2", "--extra-edge-ratio", "1e308",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: extra_edge_ratio 1e+308 times n=1000 is not a finite edge count\n"
    )


@pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
def test_bench_rejects_bad_time_limit(seconds, capsys):
    rc = main(["bench", "--n", "40", "--k", "2", f"--time-limit={seconds}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: time_limit must be finite and > 0, got {float(seconds)}\n"
    )


def test_graph_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_dimacs(path_graph(3))))
    assert main(["decide", "-", "--k", "1"]) == 0
    assert "decision: true" in capsys.readouterr().out


def test_decide_same_from_stdin_and_path(tmp_path, monkeypatch, capsys):
    # a file of several parse blocks, whose repeated e lines make the
    # declared count disagree with the distinct one
    g = gen_planted(4000, 8, 16000, 3).graph
    edge_lines = write_dimacs(g).splitlines()[1:]
    edge_lines += [f"e {v} {u}" for _, u, v in map(str.split, edge_lines[:50])]
    text = "p edge 4000 {}\n{}\n".format(len(edge_lines), "\n".join(edge_lines))
    assert len(text) > 2 * dimacs._BLOCK_CHARS
    path = tmp_path / "g.col"
    path.write_text(text)
    seen = []
    for graph, stdin in ((str(path), ""), ("-", text)):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        with pytest.warns(DimacsFormatWarning) as record:
            assert main(["decide", graph, "--k", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["stats"]["elapsed_ms"]
        seen.append((payload, [(w.category, str(w.message)) for w in record]))
    assert seen[0] == seen[1]
    payload, warned = seen[0]
    assert payload["decision"] is True
    assert warned == [
        (DimacsFormatWarning,
         f"problem line declares {len(edge_lines)} edges, "
         f"found {g.edge_count} distinct")
    ]


# -- one parser per process -------------------------------------------


def test_main_does_not_rebuild_the_parser(p3_file, monkeypatch, capsys):
    calls = []
    real = cli.build_parser

    def counting():
        calls.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        assert main(["decide", p3_file, "--k", "1"]) == 0
    assert main(["solve", p3_file, "--json"]) == 0
    assert len(calls) <= 1
    capsys.readouterr()


def test_json_flag_does_not_carry_over(p3_file, capsys):
    assert main(["decide", p3_file, "--k", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["decision"] is True
    assert main(["decide", p3_file, "--k", "1"]) == 0
    assert capsys.readouterr().out.startswith("decision: true\ncertificate: 1\n")


def test_strategy_flag_does_not_carry_over(p3_file, monkeypatch, capsys):
    seen = []
    real = solver.min_vertex_cover

    def recording(g, strategy, time_limit=None):
        seen.append(strategy)
        return real(g, strategy, time_limit=time_limit)

    monkeypatch.setattr(solver, "min_vertex_cover", recording)
    assert main(["solve", p3_file, "--strategy", "edge"]) == 0
    assert main(["solve", p3_file]) == 0
    assert seen == ["edge", "paper5"]
    capsys.readouterr()


def test_console_module_in_a_fresh_interpreter():
    # the parser built on first use, the stdin path and the __main__
    # block, end to end
    src = str(Path(vckit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "vckit.cli", "decide", "-", "--k", "1", "--json"],
        input=write_dimacs(path_graph(3)),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["decision"] is True
    assert payload["certificate"] == [1]
    assert verify_cover(path_graph(3), payload["certificate"])


# Run in a fresh interpreter with the graph file as its argument: the
# modules that importing vckit.cli adds, those that a later decide adds,
# those that a tiny bench after it adds, and the public names that
# dir(vckit) leaves out.
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import vckit.cli
on_import = set(sys.modules) - before
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = vckit.cli.main(["decide", sys.argv[1], "--k", "1"])
on_decide = set(sys.modules) - before
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    bench_code = vckit.cli.main(
        ["bench", "--n", "20", "--k", "2", "--seed", "1", "--strategy", "edge"]
    )
on_bench = set(sys.modules) - before
import vckit
print(json.dumps({
    "code": code,
    "bench_code": bench_code,
    "on_import": sorted(on_import),
    "on_decide": sorted(on_decide),
    "on_bench": sorted(on_bench),
    "undir": sorted(set(vckit.__all__) - set(dir(vckit))),
}))
"""


def test_import_loads_only_what_a_graph_needs(p3_file):
    # the CLI module loads the graph, DIMACS and generator layers; the
    # solver comes with the first decide, the harness only with bench,
    # and no command builds its records with dataclasses
    src = str(Path(vckit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, p3_file],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    on_import, on_decide = set(seen["on_import"]), set(seen["on_decide"])
    assert {"vckit.generate", "vckit.dimacs", "vckit.graph"} <= on_import
    assert on_import.isdisjoint(
        {"vckit.bench", "vckit.solver", "vckit.oracle", "dataclasses", "statistics"}
    ), sorted(on_import)
    assert seen["code"] == 0
    assert "vckit.solver" in on_decide
    assert on_decide.isdisjoint(
        {"vckit.bench", "statistics", "dataclasses", "inspect"}
    ), sorted(on_decide)
    assert seen["bench_code"] == 0
    assert "vckit.bench" in set(seen["on_bench"])
    assert set(seen["on_bench"]).isdisjoint({"dataclasses", "inspect"}), seen["on_bench"]
    assert seen["undir"] == []
