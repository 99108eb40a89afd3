"""Workload inputs: seeded instance generation and the operation lists.

Every workload is built from one benchmark seed.  Instance seeds and
relabeling permutations come from separate ``random.Random`` streams
keyed by (workload, seed, purpose), so the same seed always writes the
same DIMACS bytes and the same operation list.  The program under test
only ever sees the written files.

Set-up writes, per graph, the DIMACS file the CLI reads and a ``.edges``
file (the generated edge list as flat little-endian int32 pairs) that
the benchmark's own checker reads, so certificates are checked against
the edge list the benchmark generated rather than against the program's
parser or oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from array import array
from pathlib import Path

# Generous enough that no healthy operation comes near it; a timeout is
# an error exit and counts as a failed operation.
TIME_LIMIT_S = "60"

# The deep-stack budget on large_easy: far above tau, so the decide call
# takes the solver's big-stack thread path.
HUGE_BUDGET = 2000

MANIFEST = "manifest.json"


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}/{purpose}")


def _write_graph(work: Path, name: str, graph, edges, write_dimacs) -> dict:
    """Write the program's DIMACS file for `graph` and the checker's
    file of `edges`, the edge list the benchmark generated for it."""
    text = write_dimacs(graph)
    (work / f"{name}.col").write_text(text, encoding="utf-8")
    flat = array("i")
    for u, v in edges:
        flat.append(u)
        flat.append(v)
    if sys.byteorder != "little":
        flat.byteswap()
    (work / f"{name}.edges").write_bytes(flat.tobytes())
    return {"n": graph.vertex_count, "bytes": len(text)}


def _relabel(n: int, edges, cover, rng: random.Random):
    """Apply a uniformly random permutation of the vertex ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    mapped = [(perm[u], perm[v]) for u, v in edges]
    return mapped, sorted(perm[c] for c in cover)


def _decide(graph: str, budget: int, strategy: str, tau: int, kind: str) -> dict:
    return {
        "kind": kind,
        "graph": graph,
        "args": ["decide", "@graph", "--k", str(budget), "--strategy", strategy,
                 "--time-limit", TIME_LIMIT_S, "--json"],
        "expect": {"decision": budget >= tau, "budget": budget, "strategy": strategy},
    }


def _search_mix(seed: int, work: Path, vk) -> tuple[dict, list]:
    """Relabeled planted graphs, decided at tau (yes) and tau-1 (no).

    Three instances at each of five n from 500 to 1250 and each k in
    7..9 (270 operations).  Operation times cluster by (strategy, k, answer); with
    one n the clusters leave gaps, and a percentile that falls in a gap
    jumps between its neighbours from run to run.  Spreading n over a
    factor of 2.5 makes neighbouring clusters overlap, and keeping every
    k at every n lets the branching-factor fit group by (strategy, n).
    """
    gen_rng = _rng("search_mix", seed, "gen")
    perm_rng = _rng("search_mix", seed, "relabel")
    graphs, ops = {}, []
    for n in (500, 650, 800, 1000, 1250):
        for k in (7, 8, 9):
            for i in range(3):
                inst = vk.gen_planted(n, k, round(0.5 * n), gen_rng.randrange(2**32))
                edges, cover = _relabel(n, inst.graph.edges(), inst.planted_cover, perm_rng)
                name = f"sm_n{n}_k{k}_{i}"
                graphs[name] = _write_graph(work, name, vk.Graph(n, edges), edges,
                                            vk.write_dimacs)
                graphs[name].update(tau=k, cover=cover)
                for strategy in ("paper5", "p3", "edge"):
                    ops.append(_decide(name, k, strategy, k, f"decide_yes_{strategy}"))
                    ops.append(_decide(name, k - 1, strategy, k, f"decide_no_{strategy}"))
    return graphs, ops


def _large_easy(seed: int, work: Path, vk) -> tuple[dict, list]:
    """Big sparse id-ordered planted graphs: parse/build/init/verify-bound."""
    gen_rng = _rng("large_easy", seed, "gen")
    drop_rng = _rng("large_easy", seed, "drop")
    n, k = 20000, 20
    graphs, ops = {}, []
    for i in range(4):
        inst = vk.gen_planted(n, k, round(2.5 * n), gen_rng.randrange(2**32))
        cover = sorted(inst.planted_cover)
        name = f"le_{i}"
        graphs[name] = _write_graph(work, name, inst.graph, inst.graph.edges(),
                                    vk.write_dimacs)
        graphs[name].update(tau=k, cover=cover)
        short = list(cover)
        del short[drop_rng.randrange(len(short))]
        for label, ids in (("full", cover), ("short", short)):
            (work / f"{name}.{label}.cover").write_text(
                " ".join(map(str, ids)) + "\n", encoding="utf-8")
        ops.append(_decide(name, k, "p3", k, "decide_tau"))
        ops.append(_decide(name, HUGE_BUDGET, "p3", k, "decide_huge"))
        for label, ids, valid in (("full", cover, True), ("short", short, False)):
            ops.append({
                "kind": f"verify_{label}",
                "graph": name,
                "args": ["verify", "@graph", f"@{label}", "--json"],
                "expect": {"valid": valid, "cover_size": len(ids)},
            })
    return graphs, ops


def _solve_probes(seed: int, work: Path, vk) -> tuple[dict, list]:
    """Stock planted graphs whose matching bound starts below tau.

    n=1000 at k=6 and n=200 at k=8: the greedy matching bound starts one
    to three below tau on both, so every solve runs failing probes, and
    a paper5 solve costs about the same (20-30 ms) on either, so the
    paper5 solves form one cluster instead of a long tail of a few
    expensive instances.  144 instances (432 operations) per pass, two
    thirds of them at n=1000, so that neither percentile falls on the
    gap between two clusters of operation times.
    """
    gen_rng = _rng("solve_probes", seed, "gen")
    graphs, ops = {}, []
    for n, k, count in ((1000, 6, 96), (200, 8, 48)):
        for i in range(count):
            inst = vk.gen_planted(n, k, round(0.5 * n), gen_rng.randrange(2**32))
            name = f"sp_n{n}_k{k}_{i}"
            graphs[name] = _write_graph(work, name, inst.graph, inst.graph.edges(),
                                        vk.write_dimacs)
            graphs[name].update(tau=k, cover=sorted(inst.planted_cover))
            for strategy in ("paper5", "p3", "edge"):
                ops.append({
                    "kind": f"solve_{strategy}",
                    "graph": name,
                    "args": ["solve", "@graph", "--strategy", strategy,
                             "--time-limit", TIME_LIMIT_S, "--json"],
                    "expect": {"size": k, "strategy": strategy},
                })
    return graphs, ops


_GENERATORS = {
    "search_mix": _search_mix,
    "large_easy": _large_easy,
    "solve_probes": _solve_probes,
}
WORKLOADS = tuple(_GENERATORS)


def build(workload: str, seed: int, work: Path) -> None:
    """Generate every input of one workload into `work`, a directory
    that holds nothing else: the DIMACS, edge and cover files plus the
    manifest of operations."""
    import vckit

    work.mkdir(parents=True, exist_ok=True)
    for stale in work.iterdir():
        stale.unlink()
    graphs, ops = _GENERATORS[workload](seed, work, vckit)
    manifest = {"workload": workload, "seed": seed, "graphs": graphs, "ops": ops}
    (work / MANIFEST).write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")


def digest(work: Path) -> str:
    """Hash of every input file, to check that set-up is deterministic."""
    h = hashlib.sha256()
    for path in sorted(work.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load(work: Path) -> dict:
    return json.loads((work / MANIFEST).read_text(encoding="utf-8"))


def argv_for(op: dict, work: Path) -> list[str]:
    """Resolve an operation's ``@graph``/``@full``/``@short`` placeholders."""
    out = []
    for arg in op["args"]:
        if arg == "@graph":
            out.append(str(work / f"{op['graph']}.col"))
        elif arg.startswith("@"):
            out.append(str(work / f"{op['graph']}.{arg[1:]}.cover"))
        else:
            out.append(arg)
    return out


def read_edges(work: Path, name: str) -> array:
    flat = array("i")
    flat.frombytes((work / f"{name}.edges").read_bytes())
    if sys.byteorder != "little":
        flat.byteswap()
    return flat
