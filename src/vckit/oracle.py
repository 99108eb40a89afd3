"""Ground truth by exhaustion, for testing the real solver against.

Deliberately dumb: subsets are enumerated in increasing cardinality and
checked with bitmasks over the edge list.  Nothing here shares code
with the branching search, so agreement between the two is meaningful.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .graph import Graph

# Enumeration by cardinality is fine into the low thirties for small
# covers; past that it stops being a usable test fixture.
BRUTE_FORCE_VERTEX_LIMIT = 30


def verify_cover(g: Graph, cover: Iterable[int]) -> bool:
    """True iff every edge of g has at least one endpoint in cover.

    Raises ValueError on a vertex id outside the graph, before counting
    anything.  The empty set is a valid cover of an edgeless graph.
    Costs O(|C| + sum(deg C)) for the set C of cover's vertices, not
    O(n + m): in a simple graph the edges with an endpoint in C number
    sum(deg C) - |E(C)|, and 2|E(C)| is the sum of |N(c) & C| over C, so
    C covers g iff that count is m.
    """
    n = g.vertex_count
    members = set(cover)
    if members:
        low, high = min(members), max(members)
        if low < 0 or high >= n:
            bad = low if low < 0 else high
            raise ValueError(f"vertex id {bad} not in graph with {n} vertices")
    around = list(map(g.sorted_adjacency.__getitem__, members))
    inside = sum(map(len, map(members.intersection, around))) // 2
    return sum(map(len, around)) - inside == g.edge_count


def brute_force_tau(g: Graph) -> int:
    """Exact minimum vertex cover size by exhaustive enumeration.

    Tries every vertex subset in increasing cardinality and returns the
    first size that covers all edges.  Refuses graphs larger than
    BRUTE_FORCE_VERTEX_LIMIT vertices.
    """
    n = g.vertex_count
    if n > BRUTE_FORCE_VERTEX_LIMIT:
        raise ValueError(
            f"brute_force_tau is limited to {BRUTE_FORCE_VERTEX_LIMIT} "
            f"vertices, got {n}"
        )
    edge_list = list(g.edges())
    if not edge_list:
        return 0
    full = (1 << len(edge_list)) - 1
    covered_by = [0] * n
    for idx, (u, v) in enumerate(edge_list):
        bit = 1 << idx
        covered_by[u] |= bit
        covered_by[v] |= bit
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            acc = 0
            for v in subset:
                acc |= covered_by[v]
            if acc == full:
                return size
    raise AssertionError("unreachable: the full vertex set covers everything")
