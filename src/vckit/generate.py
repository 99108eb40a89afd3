"""Deterministic random instance generators.

Both generators draw from ``random.Random(seed)`` (the Mersenne
Twister) using only ``randrange``, in a documented order, so any
(parameters, seed) pair reproduces the same graph on any platform or
interpreter version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import dimacs
from .graph import Graph, GraphError

_SEED_LIMIT = 2**64


@dataclass(frozen=True)
class PlantedInstance:
    """A generated graph whose minimum vertex cover size is known.

    planted_cover is an actual minimum cover of the graph, so
    tau(graph) == planted_k == len(planted_cover) by construction.
    """

    graph: Graph
    planted_k: int
    planted_cover: frozenset[int]
    seed: int


def _check_n_and_seed(n: int, seed: int) -> None:
    if not (0 <= seed < _SEED_LIMIT):
        raise GraphError(f"seed must be an unsigned 64-bit integer, got {seed}")
    # A graph the DIMACS parser would reject is refused before any sampling.
    if n > dimacs.MAX_VERTICES:
        raise GraphError(
            f"n={n} is more than the {dimacs.MAX_VERTICES} vertices accepted"
        )


def gen_planted(n: int, k: int, extra_edges: int, seed: int) -> PlantedInstance:
    """Generate a graph on n vertices with minimum vertex cover size exactly k.

    Construction, drawing from ``rng = random.Random(seed)``:

    1. The cover is C = {0..k-1}.  A perfect matching (i, k+i) for i in
       range(k) is planted, one edge per cover vertex.
    2. For each of the extra_edges additional edges, repeatedly draw
       ``c = rng.randrange(k)`` then ``o = rng.randrange(n)`` and accept
       unless o == c or the edge {c, o} already exists.

    The matching pins tau(G) >= k (its k edges are vertex-disjoint, each
    needing its own cover vertex) and every edge touches C, so C itself
    is a cover and tau(G) == k exactly.

    Raises GraphError when n exceeds dimacs.MAX_VERTICES, k < 1, 2k > n,
    extra_edges is negative, or extra_edges exceeds the number of distinct
    cover-incident edges available beyond the matching.
    """
    _check_n_and_seed(n, seed)
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if 2 * k > n:
        raise GraphError(f"planted matching needs 2k <= n, got k={k}, n={n}")
    if extra_edges < 0:
        raise GraphError(f"extra_edges must be >= 0, got {extra_edges}")
    # Edges with an endpoint in C: k(k-1)/2 inside C plus k(n-k) crossing,
    # minus the k matching edges already placed.
    available = k * (k - 1) // 2 + k * (n - k) - k
    if extra_edges > available:
        raise GraphError(
            f"extra_edges={extra_edges} exceeds the {available} distinct "
            f"cover-incident edges available for n={n}, k={k}"
        )

    rng = random.Random(seed)
    edge_set = {(i, k + i) for i in range(k)}
    for _ in range(extra_edges):
        while True:
            c = rng.randrange(k)
            o = rng.randrange(n)
            if o == c:
                continue
            edge = (c, o) if c < o else (o, c)
            if edge in edge_set:
                continue
            edge_set.add(edge)
            break

    graph = Graph(n, edge_set)
    return PlantedInstance(
        graph=graph,
        planted_k=k,
        planted_cover=frozenset(range(k)),
        seed=seed,
    )


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with n vertices and exactly m edges.

    Edges are rejection-sampled: draw ``u = rng.randrange(n)`` then
    ``v = rng.randrange(n)``, rejecting self-pairs and repeats.  When m
    is more than half the possible edges the complement is sampled with
    the same protocol instead, keeping the draw count small; the result
    is still a uniform m-subset of all edges.
    """
    _check_n_and_seed(n, seed)
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if m < 0:
        raise GraphError(f"m must be >= 0, got {m}")
    total = n * (n - 1) // 2
    if m > total:
        raise GraphError(f"m={m} exceeds the {total} possible edges on {n} vertices")

    rng = random.Random(seed)
    if m <= total // 2:
        edges = _sample_pairs(rng, n, m)
    else:
        excluded = _sample_pairs(rng, n, total - m)
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in excluded
        }
    return Graph(n, edges)


def _sample_pairs(rng: random.Random, n: int, count: int) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        pairs.add((u, v) if u < v else (v, u))
    return pairs
