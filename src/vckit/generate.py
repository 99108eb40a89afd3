"""Deterministic random instance generators.

Both generators draw from ``random.Random(seed)`` (the Mersenne
Twister) in a documented order, and only through one rule: a draw
below b takes ``r = rng.getrandbits(b.bit_length())`` until r < b.
That is the rule ``rng.randrange(b)`` follows on CPython (its
``_randbelow_with_getrandbits``), written out so that the draw costs one
C call, and it fixes the graph of any (parameters, seed) pair on any
platform.  The tests pin the SHA-256 of the written output of several
instances, which guards the rule, the draw order and the writer.
"""

from __future__ import annotations

import math
import random
from itertools import filterfalse
from typing import Callable, NamedTuple

from . import dimacs
from .graph import Graph, GraphError

_SEED_LIMIT = 2**64


class PlantedInstance(NamedTuple):
    """A generated graph whose minimum vertex cover size is known.

    planted_cover is an actual minimum cover of the graph, so
    tau(graph) == planted_k == len(planted_cover) by construction.
    """

    graph: Graph
    planted_k: int
    planted_cover: frozenset[int]
    seed: int


def _check_edge_ratio(ratio: float, n: int, name: str) -> int:
    """round(ratio * n), the extra edge count, for a ratio that is finite
    and >= 0 and whose product with n is finite."""
    if not 0 <= ratio < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {ratio}")
    if not math.isfinite(ratio * n):
        raise ValueError(f"{name} {ratio} times n={n} is not a finite edge count")
    return round(ratio * n)


def _check_n_and_seed(n: int, seed: int) -> None:
    if not (0 <= seed < _SEED_LIMIT):
        raise GraphError(f"seed must be an unsigned 64-bit integer, got {seed}")
    # A graph the DIMACS parser would reject is refused before any sampling.
    if n > dimacs.MAX_VERTICES:
        raise GraphError(
            f"n={n} is more than the {dimacs.MAX_VERTICES} vertices accepted"
        )


def _check_planted(n: int, k: int, seed: int) -> None:
    """The checks of gen_planted that do not depend on its extra edges."""
    _check_n_and_seed(n, seed)
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if 2 * k > n:
        raise GraphError(f"planted matching needs 2k <= n, got k={k}, n={n}")


def gen_planted(n: int, k: int, extra_edges: int, seed: int) -> PlantedInstance:
    """Generate a graph on n vertices with minimum vertex cover size exactly k.

    Construction, drawing from ``rng = random.Random(seed)``:

    1. The cover is C = {0..k-1}.  A perfect matching (i, k+i) for i in
       range(k) is planted, one edge per cover vertex.
    2. For each of the extra_edges additional edges, repeatedly draw c
       below k then o below n, each by the module's rule (the draws of
       ``rng.randrange(k)`` and ``rng.randrange(n)``), and accept
       unless o == c or the edge {c, o} already exists.

    The matching pins tau(G) >= k (its k edges are vertex-disjoint, each
    needing its own cover vertex) and every edge touches C, so C itself
    is a cover and tau(G) == k exactly.

    Raises GraphError when n exceeds dimacs.MAX_VERTICES, k < 1, 2k > n,
    extra_edges is negative, or extra_edges exceeds the number of distinct
    cover-incident edges available beyond the matching.
    """
    _check_planted(n, k, seed)
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

    matching = [(i, k + i) for i in range(k)]
    adj = _draw_edges(random.Random(seed).getrandbits, n, k, matching, k + extra_edges)
    return PlantedInstance(
        graph=Graph._from_neighbor_lists(adj, True),
        planted_k=k,
        planted_cover=frozenset(range(k)),
        seed=seed,
    )


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with n vertices and exactly m edges.

    Edges are rejection-sampled: draw u below n then v below n, each by
    the module's rule (the draws of ``rng.randrange(n)``), rejecting
    self-pairs and repeats.  When m is more than half the possible edges
    the complement is sampled with the same protocol instead, keeping
    the draw count small; the result is still a uniform m-subset of all
    edges.
    """
    _check_n_and_seed(n, seed)
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if m < 0:
        raise GraphError(f"m must be >= 0, got {m}")
    total = n * (n - 1) // 2
    if m > total:
        raise GraphError(f"m={m} exceeds the {total} possible edges on {n} vertices")

    getrandbits = random.Random(seed).getrandbits
    if m <= total // 2:
        adj = _draw_edges(getrandbits, n, n, [], m)
    else:
        # A vertex's neighbors are the other vertices it was not paired
        # with, listed in ascending order.
        excluded = _draw_edges(getrandbits, n, n, [], total - m)
        everyone = range(n)
        adj = [
            list(filterfalse({u, *a}.__contains__, everyone))
            for u, a in enumerate(excluded)
        ]
    return Graph._from_neighbor_lists(adj, True)


def _draw_edges(
    getrandbits: Callable[[int], int],
    n: int,
    low: int,
    given: list[tuple[int, int]],
    count: int,
) -> list[list[int]]:
    """The ascending neighbor lists of count distinct edges on n vertices.

    They are the given edges (u, v), u < v, then edges drawn in turn, u
    below low then v below n, each by the module's rule, rejecting a
    draw with u == v or an edge already taken.  Each edge goes into both
    endpoints' lists as it is taken, and into a set as the key
    min * n + max.
    """
    low_bits = low.bit_length()
    n_bits = n.bit_length()
    adj: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in given:
        adj[u].append(v)
        adj[v].append(u)
        seen.add(u * n + v)
    while len(seen) < count:
        u = getrandbits(low_bits)
        while u >= low:
            u = getrandbits(low_bits)
        v = getrandbits(n_bits)
        while v >= n:
            v = getrandbits(n_bits)
        if u < v:
            key = u * n + v
        elif v < u:
            key = v * n + u
        else:
            continue
        if key not in seen:
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
    for a in adj:
        if len(a) > 1:
            a.sort()
    return adj
