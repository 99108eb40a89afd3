"""Immutable undirected simple graphs on vertex ids 0..n-1.

Adjacency is kept once, as a tuple of neighbor ids in ascending order
per vertex: iteration is deterministic, and membership is a binary
search.  Every way in checks its input: the public constructor checks
each edge, and the package's DIMACS parser checks each edge line before
it hands its neighbor lists over.  So a Graph in hand is always a
simple graph (no self-loops, no duplicates, symmetric adjacency).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import eq
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Raised when a construction would violate the simple-graph rules."""


class Graph:
    """Undirected simple graph, immutable once built.

    Parameters
    ----------
    vertex_count : number of vertices; ids are 0..vertex_count-1.
    edges : iterable of (u, v) pairs.  Duplicates and reversed copies
        collapse to a single undirected edge; self-loops and ids outside
        the vertex range raise GraphError naming the offending pair.

    Construction is one pass over the edges that appends each endpoint
    to the other's neighbor list, then a sort of each list, which is
    frozen into its tuple and freed at once: O(n + m log m) time, with
    a set only for a list that holds a repeated neighbor.
    """

    __slots__ = ("_n", "_m", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise GraphError(f"vertex_count must be >= 0, got {vertex_count}")
        n = vertex_count
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}"
                )
            if u == v:
                raise GraphError(f"edge ({u}, {v}) is a self-loop")
            adj[u].append(v)
            adj[v].append(u)
        self._seal(adj)

    @classmethod
    def _from_neighbor_lists(cls, adj: list[list[int]]) -> Graph:
        """The Graph on vertices 0..len(adj)-1 whose neighbor lists are adj.

        For the package's own parser, which has already checked what
        ``__init__`` checks: every id in range, no self-loop, and each
        edge entered in both endpoints' lists.  Consumes adj.
        """
        g = cls.__new__(cls)
        g._seal(adj)
        return g

    def _seal(self, adj: list[list[int]]) -> None:
        """Sort and dedup each neighbor list and freeze it, in place, into
        its tuple, so each list is freed once its tuple is built."""
        for v, a in enumerate(adj):
            if len(a) > 1:
                a.sort()
                # A repeated or reversed edge shows as two equal neighbors.
                if any(map(eq, a, a[1:])):
                    a = sorted(set(a))
            adj[v] = tuple(a)
        self._n = len(adj)
        self._adj = tuple(adj)
        self._m = sum(map(len, self._adj)) // 2

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of distinct undirected edges."""
        return self._m

    @property
    def sorted_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbor tuples in ascending order, indexed by id."""
        return self._adj

    def vertices(self) -> range:
        return range(self._n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._n):
            return False
        a = self._adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self._n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def validate(self) -> None:
        """Re-check the structural invariants; raises AssertionError.

        Construction already guarantees these, so this is only useful as
        a test hook after exercising code that touches internals.
        """
        assert len(self._adj) == self._n
        for v, a in enumerate(self._adj):
            assert all(x < y for x, y in zip(a, a[1:])), (
                f"neighbors of {v} not strictly ascending"
            )
            for w in a:
                assert w != v, f"self-loop at {v}"
                assert 0 <= w < self._n, f"neighbor {w} of {v} out of range"
                assert self.has_edge(w, v), f"asymmetric edge ({v}, {w})"
        assert sum(len(a) for a in self._adj) == 2 * self._m
