"""End-to-end and per-layer benchmark of the vckit CLI.

Run from the repository root:

    python3 perfbench/run.py --workload search_mix --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py.  The self-test of the output
checker runs with ``python3 -m pytest perfbench -q``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

How a run works:

1. Set-up runs SETUP_REPS times, each in a fresh interpreter: import
   vckit from ``src/``, generate the workload's instances from the seed
   and write them as DIMACS files.  ``setup_s`` is the median of their
   wall times; every repetition must write the same bytes.
2. A fresh process runs the operations as a closed loop with a single
   client and no worker threads.  Each operation is one in-process call
   to ``vckit.cli.main(argv)`` with stdout captured, i.e. a real
   ``vckit decide``/``solve``/``verify`` run.  The fixed operation list
   is run in whole passes, at least two and at least MIN_OPS operations,
   stopping before a pass that would end after ``--seconds``.  Outputs
   are checked between passes, outside the timed region; the search
   counters of every operation must repeat exactly in every pass.
3. With ``--trace 1`` the process interleaves untraced and traced passes.
   Traced passes record spans around the public callables of each vckit
   module (see spans.py); per-layer metrics come from those spans, and
   ``trace.overhead_ratio`` compares the two kinds of pass.

End-to-end metrics (untraced passes only):

* ``latency_ms_p50``/``latency_ms_p90``: percentiles of the time from
  calling ``main(argv)`` to its return, over every timed operation (the
  sample count is printed and is ``attempted`` in the result line).
* ``ops_per_s``: operations per second of wall time, median over passes.
* ``fail_ratio`` (printed, not a metric: it is 0 on a healthy run):
  ``failed`` over ``attempted``.  An operation fails on a wrong verdict,
  exit code, size or count, an invalid or oversized certificate, search
  counters that differ between passes, an exception or a time-limit
  error.
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the operations.

Per-layer times are per operation: a layer's total (or self) time in the
traced passes divided by the operations in them.

Inputs, results (with an environment stamp and every pass's latencies)
and span files are written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
MIN_OPS = 100
MIN_PASSES = 2
# A run must end within 180 s; leave room for set-up and the final checks.
DEADLINE_S = 170.0
FAILURES_SHOWN = 5
STRATEGIES = ("paper5", "p3", "edge")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "dimacs.parse_self_ms": "ms",
    "dimacs.parse_mb_s": "MB/s",
    "dimacs.write_ms": "ms",
    "generate.gen_ms": "ms",
    "graph.build_ms": "ms",
    "graph.retained_mb": "MB",
    "solver.init_ms": "ms",
    "solver.search_ms": "ms",
    **{f"solver.us_per_node.{s}": "us" for s in STRATEGIES},
    "solver.nodes_expanded": "count",
    "solver.triplet_scans": "count",
    "solver.max_depth": "count",
    "solver.huge_budget_extra_ms": "ms",
    "solver.probes_per_solve": "count",
    "solver.failed_probe_node_share": "ratio",
    "solver.matching_ms": "ms",
    "solver.probe_loop_self_ms": "ms",
    "oracle.verify_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"solver.fitted_base.{s}": "factor" for s in STRATEGIES},
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_vckit():
    """Import vckit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "vckit" / "__init__.py").is_file():
        raise BenchError(f"no vckit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vckit
    import vckit.cli

    origin = Path(vckit.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"vckit was imported from {origin}, not from {SRC}")
    return vckit


def env_stamp() -> dict:
    rev = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "git_dirty": dirty,
    }


# -- set-up (child process) ----------------------------------------------


def phase_setup(args) -> dict:
    start = time.perf_counter()
    import_vckit()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workloads.build(args.workload, args.seed, Path(args.inputs))
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "digest": workloads.digest(Path(args.inputs))}
    if tracer is not None:
        tracer.uninstall()
        for key, name in (("gen_ms", "generate.gen_planted"), ("write_ms", "dimacs.write")):
            out[key] = sum(s.ms for s in tracer.spans if s.name == name)
    return out


# -- the closed loop (child process) ---------------------------------------


def run_pass(cli, argvs: list[list[str]], tracer) -> tuple[float, list]:
    """One pass over the operation list; returns wall time and per-op
    (latency_s, exit code or exception text, stdout, stderr)."""
    results = []
    begin = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                code = repr(exc)
            t1 = time.perf_counter()
        results.append((t1 - t0, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - begin, results


def phase_ops(args) -> dict:
    vckit = import_vckit()
    inputs = Path(args.inputs)
    manifest = workloads.load(inputs)
    ops, graphs = manifest["ops"], manifest["graphs"]
    argvs = [workloads.argv_for(op, inputs) for op in ops]
    edges = {name: workloads.read_edges(inputs, name) for name in graphs}
    for name, graph in graphs.items():
        # The planted cover (relabeled where the ids were permuted) must
        # cover the generated edges, or tau is not known by construction.
        if check.uncovered_edge(edges[name], set(graph["cover"])) is not None:
            raise BenchError(f"the planted cover of {name} misses an edge")

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    passes = []  # (traced, wall_s, latencies)
    failures: list[str] = []
    failed = attempted = 0
    reference = None  # per-op counters of the first pass
    began = time.perf_counter()
    while True:
        # Traced runs order passes untraced, traced, traced, untraced, ...
        # so that warm-up and drift weigh on both kinds alike.
        traced = tracer is not None and len(passes) % 4 in (1, 2)
        gc.collect()
        if traced:
            tracer.install()
        try:
            wall, results = run_pass(vckit.cli, argvs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        counters = []
        for i, (op, (_, code, out, err)) in enumerate(zip(ops, results)):
            problem, found = check.check(op, graphs[op["graph"]], edges[op["graph"]], code, out)
            counters.append(found)
            if problem is None and reference is not None and found != reference[i]:
                problem = f"counters {found} differ from the first pass's {reference[i]}"
            if problem is not None:
                failed += 1
                if len(failures) < FAILURES_SHOWN:
                    detail = f" (stderr: {err.strip()[:120]})" if err.strip() else ""
                    failures.append(f"pass {len(passes)} op {i} ({op['kind']} on {op['graph']}): "
                                    f"{problem}{detail}")
        if reference is None:
            reference = counters
        attempted += len(ops)
        passes.append((traced, wall, [r[0] for r in results]))
        # Stop before a pass that would end past --seconds, once enough
        # operations and passes (traced runs: pairs of passes) are done.
        elapsed = time.perf_counter() - began
        ends_at = elapsed + elapsed / len(passes)
        enough = (attempted >= MIN_OPS and len(passes) >= MIN_PASSES
                  and (tracer is None or len(passes) % 2 == 0))
        if ends_at > args.budget or (enough and ends_at > args.seconds):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [p for p in passes if not p[0]]
    latencies = [x * 1000.0 for p in plain for x in p[2]]
    rate = statistics.median(len(ops) / p[1] for p in plain)
    totals = {
        "nodes_expanded": sum(c[0] for c in reference if c is not None),
        "max_depth": sum(c[1] for c in reference if c is not None),
        "triplet_scans": sum(c[2] for c in reference if c is not None),
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(passes),
        "latency_samples": len(latencies),
        "counters_per_pass": totals,
        "pass_latencies_ms": [[x * 1000.0 for x in p[2]] for p in plain],
        "end_to_end": {
            "latency_ms_p50": statistics.median(latencies),
            "latency_ms_p90": statistics.quantiles(latencies, n=100)[89],
            "ops_per_s": rate,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p[0]]
        if not traced_passes:
            raise BenchError("no traced pass fitted in the time budget")
        layers = layer_metrics(tracer, ops, len(ops) * len(traced_passes))
        layers["trace.overhead_ratio"] = (
            statistics.median(len(ops) / p[1] for p in traced_passes) / rate)
        layers.update({f"solver.{key}": float(v) for key, v in totals.items()})
        layers.update(fitted_bases(vckit, ops, graphs, reference))
        layers["graph.retained_mb"] = retained_mb(vckit, inputs, graphs)
        tracer.write(Path(args.spans), env_stamp())
        result["per_layer"] = layers
    return result


def layer_metrics(tracer, ops: list[dict], n_ops: int) -> dict:
    """Per-operation layer times and search ratios from the spans."""
    spans = tracer.spans
    self_ms = tracer.self_ms()
    total = defaultdict(float)
    own = defaultdict(float)
    for span, mine in zip(spans, self_ms):
        total[span.name] += span.ms
        own[span.name] += mine

    def per_op(table, name):
        return table[name] / n_ops

    # A span whose call raised has no attributes.
    parse_chars = sum(s.attrs["chars"] for s in spans if s.name == "dimacs.parse" and s.attrs)
    parse_s = own["dimacs.parse"] / 1000.0
    out = {
        "cli.self_ms": per_op(own, "cli.main"),
        "dimacs.parse_self_ms": per_op(own, "dimacs.parse"),
        "dimacs.parse_mb_s": parse_chars / 1e6 / parse_s if parse_s else 0.0,
        "graph.build_ms": per_op(total, "graph.build"),
        "solver.init_ms": per_op(total, "solver.init"),
        "solver.search_ms": per_op(own, "solver.decide"),
        "solver.matching_ms": per_op(total, "solver.matching"),
        "solver.probe_loop_self_ms": per_op(own, "solver.min_vertex_cover"),
        "oracle.verify_ms": per_op(total, "oracle.verify"),
    }

    search_ms = defaultdict(float)
    nodes = defaultdict(int)
    decide_ms = defaultdict(list)  # op kind -> decide span durations
    probes = probe_nodes = failed_probe_nodes = 0
    solves = sum(1 for s in spans if s.name == "solver.min_vertex_cover")
    for span, mine in zip(spans, self_ms):
        if span.name != "solver.decide" or not span.attrs:
            continue
        strategy = span.attrs["strategy"]
        search_ms[strategy] += mine
        nodes[strategy] += span.attrs["nodes"]
        decide_ms[ops[span.op]["kind"]].append(span.ms)
        if span.parent is not None and spans[span.parent].name == "solver.min_vertex_cover":
            probes += 1
            probe_nodes += span.attrs["nodes"]
            if not span.attrs["decision"]:
                failed_probe_nodes += span.attrs["nodes"]
    for strategy in STRATEGIES:
        out[f"solver.us_per_node.{strategy}"] = (
            search_ms[strategy] * 1000.0 / nodes[strategy] if nodes[strategy] else 0.0)
    huge, tau = decide_ms.get("decide_huge"), decide_ms.get("decide_tau")
    out["solver.huge_budget_extra_ms"] = (
        statistics.median(huge) - statistics.median(tau) if huge and tau else 0.0)
    out["solver.probes_per_solve"] = probes / solves if solves else 0.0
    out["solver.failed_probe_node_share"] = failed_probe_nodes / probe_nodes if probe_nodes else 0.0
    return out


def fitted_bases(vckit, ops, graphs, counters) -> dict:
    """Branching-factor fit of the yes-instance node counts (information
    only).  vckit fits each (strategy, n) group; the median over n is
    reported.  Workloads without three budgets per group report 0."""
    from vckit.bench import BenchRecord

    records = []
    for op, found in zip(ops, counters):
        expect = op["expect"]
        if op["args"][0] != "decide" or found is None:
            continue
        graph = graphs[op["graph"]]
        if expect["budget"] != graph["tau"]:
            continue
        records.append(BenchRecord(
            n=graph["n"], k_input=graph["tau"], tau=graph["tau"],
            strategy=vckit.Strategy(expect["strategy"]), decision=True,
            nodes_expanded=found[0], max_depth=found[1], time_ms=None, seed=0))
    bases = defaultdict(list)
    try:
        for fit in vckit.estimate_branching_factor(records):
            bases[fit.strategy.value].append(fit.base)
    except ValueError:  # a group with fewer than three distinct k
        bases.clear()
    return {f"solver.fitted_base.{s}": statistics.median(bases[s]) if bases[s] else 0.0
            for s in STRATEGIES}


def retained_mb(vckit, inputs: Path, graphs: dict) -> float:
    """Memory a parsed Graph keeps, for the workload's largest input."""
    import tracemalloc

    largest = max(graphs, key=lambda name: graphs[name]["bytes"])
    text = (inputs / f"{largest}.col").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        graph = vckit.parse_dimacs(text)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del graph
    return current / 2**20


# -- the parent -------------------------------------------------------------


def child(phase: str, args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    began = time.monotonic()
    if not (SRC / "vckit" / "__init__.py").is_file():
        raise BenchError(f"no vckit sources under {SRC}")
    # One inputs directory per workload, rewritten by every run, so a
    # series of seeds does not pile up inputs.
    out_dir = WORK / args.workload
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    setups = [child("setup", args, ["--inputs", str(inputs)], DEADLINE_S)
              for _ in range(SETUP_REPS)]
    problems = []
    if len({s["digest"] for s in setups}) != 1:
        problems.append("set-up wrote different inputs on repeated runs")

    spans_path = out_dir / f"spans-seed{args.seed}.json"
    budget = DEADLINE_S - (time.monotonic() - began)
    ops = child("ops", args, ["--inputs", str(inputs), "--spans", str(spans_path),
                              "--budget", str(max(budget - 30.0, 1.0))], budget)
    problems.extend(ops["failures"])
    if not args.trace and ops["latency_samples"] < MIN_OPS:
        problems.append(f"only {ops['latency_samples']} timed operations, need {MIN_OPS}")

    if args.trace:
        values = dict(ops["per_layer"])
        for key, name in (("gen_ms", "generate.gen_ms"), ("write_ms", "dimacs.write_ms")):
            values[name] = statistics.median(s[key] for s in setups)
        units = PER_LAYER_UNITS
    else:
        values = dict(ops["end_to_end"], setup_s=statistics.median(s["setup_s"] for s in setups))
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = ops["failed"] == 0 and not problems and all(
        math.isfinite(m["value"]) for m in metrics.values())

    stamp = env_stamp()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp, "passes": ops["passes"],
        "latency_samples": ops["latency_samples"],
        "counters_per_pass": ops["counters_per_pass"],
        "setup_runs_s": [s["setup_s"] for s in setups],
        "pass_latencies_ms": ops["pass_latencies_ms"],
        "problems": problems,
        "correct": correct, "attempted": ops["attempted"], "failed": ops["failed"],
        "metrics": metrics,
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{ops['passes']} passes, {ops['latency_samples']} timed samples")
    print(f"  env {json.dumps(stamp, sort_keys=True)}")
    print(f"  counters per pass {json.dumps(ops['counters_per_pass'], sort_keys=True)}")
    print(f"  {'fail_ratio':34s} {ops['failed'] / ops['attempted']:14.6g} ratio "
          f"({ops['failed']} of {ops['attempted']} operations failed)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for problem in problems:
        print(f"  FAILED {problem}")
    return {"correct": correct, "attempted": ops["attempted"], "failed": ops["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("run", "setup", "ops"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.phase == "setup":
            print(json.dumps(phase_setup(args)))
        elif args.phase == "ops":
            print(json.dumps(phase_ops(args)))
        else:
            print(json.dumps(run(args)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
