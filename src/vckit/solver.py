"""Bounded-search-tree decision procedure for vertex cover.

The solver answers tau(G) <= k by branching on a frontier: a center v
followed by its first `need` unselected neighbors in ascending order,
(v, n1, ..., n_need).  paper5 and p3 need two, so their frontier is a
path u-v-w of two uncovered edges, stored as (v, u, w); edge needs one,
so its frontier is one uncovered edge (a, b).  The solver tries a fixed
list of ways to cover the frontier and searches each with the budget
reduced by the number of vertices added.  Search stops at the first
success; every branch restores the selected set on the way out.  One
loop over an explicit stack walks the tree for every strategy and
budget, with O(n + k) extra state and no recursion.  Selecting and
deselecting a vertex is O(1); a node pays for its frontier scan, which
reads the neighbors of each candidate it visits only until it has found
the unselected ones it needs, and a node with no frontier left pays one
O(n + m) pass to count the uncovered edges.

The frontier is deterministic: its center is the first vertex in
ascending id order with at least `need` unselected neighbors, so for
edge it is the lexicographically smallest uncovered edge.  It is
internal to the search; the public entry points are BranchSolver.decide
and the decide_vc and min_vertex_cover wrappers, which report a
decision, a certificate and search counters.

Three interchangeable strategies answer the same predicate and differ
only in their rule, and so in search-tree shape:

* paper5 - five branches per path u-v-w: {u,v}, {u,w}, {v,w}, {v},
  {u,v,w}, in that order.  The default.
* p3 - the classic two-way path rule: {v}, else {u,w}.
* edge - two-way branching on one uncovered edge {a,b}: {a}, else {b}.

Base cases: a branch that costs more than the budget fails; it is
counted as a failed node one level deeper but never entered, so the
selection never exceeds the budget.  No uncovered edges succeeds.  For
paper5 and p3, which need a path of two edges to branch on, a position
where only pairwise-disjoint uncovered edges remain is decided
directly: it succeeds iff the budget covers their count, taking one
endpoint each.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import NamedTuple, Optional

from .graph import Graph
from .oracle import verify_cover


class Strategy(str, Enum):
    """Branching rule applied at each frontier found during the search."""

    PAPER_FIVE = "paper5"
    CLASSIC_P3 = "p3"
    EDGE_BRANCH = "edge"


class SolveTimeout(Exception):
    """Raised when a decide() call exceeds its time limit."""


@dataclass
class SolveStats:
    """Search-effort counters for one decide() call (or a merged run)."""

    nodes_expanded: int = 0
    max_depth: int = 0
    triplet_scans: int = 0
    elapsed_ms: float = 0.0

    def merge(self, other: "SolveStats") -> None:
        """Fold another run into this one: counts add, depth maxes."""
        self.nodes_expanded += other.nodes_expanded
        self.max_depth = max(self.max_depth, other.max_depth)
        self.triplet_scans += other.triplet_scans
        self.elapsed_ms += other.elapsed_ms


@dataclass
class SolveResult:
    """Outcome of a decide() call.

    certificate is a verified-size cover witnessing a true decision
    (at most the top-level budget; None on false).
    """

    decision: bool
    certificate: Optional[frozenset[int]]
    stats: SolveStats


# Check the deadline at the first entered node at or past each multiple
# of this many nodes.  A threshold, not a mask on the count: skipped
# over-budget children advance the count without entering a node.
_TIME_CHECK_INTERVAL = 256

# Each strategy's rule as (need, branches).  Its frontier is a center v
# followed by v's first `need` unselected neighbors in ascending order,
# so a path u-v-w is (v, u, w) and an edge {a, b} is (a, b).  The
# branches are tried in order; each lists the positions in the frontier
# of the vertices it selects.  A vertex can be a center only if its
# degree is at least need.
_RULES = {
    Strategy.PAPER_FIVE: (2, ((0, 1), (1, 2), (0, 2), (0,), (0, 1, 2))),
    Strategy.CLASSIC_P3: (2, ((0,), (1, 2))),
    Strategy.EDGE_BRANCH: (1, ((0,), (1,))),
}


def _deadline(time_limit: float | None) -> float | None:
    """The perf_counter() reading at which time_limit seconds from now
    run out, or None for no limit."""
    if time_limit is None:
        return None
    if math.isnan(time_limit):
        raise ValueError("time_limit is NaN; pass None for no limit")
    return time.perf_counter() + time_limit


class BranchSolver:
    """A reusable decision session over a fixed graph and strategy.

    decide() is its one operation.  The session is the selection the
    search works on: per-vertex flags, a trail in selection order, and
    one byte per vertex marking the unselected scan candidates, the
    vertices whose degree lets them be a center at all.  Selecting or
    deselecting a vertex touches only those three structures, so it is
    O(1) whatever the vertex's degree.  Every way out of decide() leaves
    the selection empty, so one session serves any number of budgets;
    the scan pointer, the counters and the certificate belong to one
    search and live in it.
    """

    def __init__(self, graph: Graph, strategy: Strategy | str = Strategy.PAPER_FIVE):
        self.graph = graph
        self.strategy = Strategy(strategy)
        need, self._branches = _RULES[self.strategy]
        self._need = need
        self._adj = graph.sorted_adjacency
        self._candidates = bytes(len(a) >= need for a in self._adj)
        self._flags = bytearray(graph.vertex_count)
        self._trail: list[int] = []
        self._reset()

    def _reset(self) -> None:
        """Empty the selection and mark every candidate live again.

        Unlike rewinding the trail, this is correct from any state,
        including one left by an interrupt halfway through a selection
        or a deselection.
        """
        self._flags[:] = bytes(len(self._flags))
        self._trail.clear()
        self._live = bytearray(self._candidates)

    def decide(self, k: int, time_limit: float | None = None) -> SolveResult:
        """Decide tau(graph) <= k.

        A true decision carries a cover of at most k vertices as its
        certificate.  time_limit is in seconds; exceeding it raises
        SolveTimeout, and a NaN limit raises ValueError.  The selection
        is empty on entry and on every way out: a finished search has
        unwound each branch, and an abort (timeout, KeyboardInterrupt)
        rebuilds the session, which stays usable.  The search keeps its
        own stack, so any budget runs on the caller's thread without
        touching the recursion limit.
        """
        if k < 0:
            raise ValueError(f"budget k must be >= 0, got {k}")
        deadline = _deadline(time_limit)
        start = time.perf_counter()
        try:
            certificate, nodes, max_depth, scans = self._search(k, deadline)
        except BaseException:
            # An abort (timeout, interrupt) leaves the search mid-branch,
            # possibly mid-update; rebuild the session from the graph.
            self._reset()
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0

        stats = SolveStats(
            nodes_expanded=nodes,
            max_depth=max_depth,
            triplet_scans=scans,
            elapsed_ms=elapsed_ms,
        )
        return SolveResult(
            decision=certificate is not None,
            certificate=certificate,
            stats=stats,
        )

    def _isolated_ends(self) -> list[int]:
        """The smaller endpoint of each uncovered edge, in one O(n + m)
        pass.

        Meant for a position with no center left, where every unselected
        vertex has at most one unselected neighbor: then the uncovered
        edges are pairwise disjoint and each is reported once.
        """
        flags = self._flags
        ends = []
        for v, neighbors in enumerate(self._adj):
            if not flags[v]:
                for w in neighbors:
                    if not flags[w]:
                        if v < w:
                            ends.append(v)
                        break
        return ends

    def _search(
        self, k: int, deadline: float | None
    ) -> tuple[Optional[frozenset[int]], int, int, int]:
        """Depth-first search of the branch tree for budget k; returns
        (certificate or None, nodes_expanded, max_depth, scans).

        Each frame of the explicit stack is [frontier, branch_index,
        budget, entry_ptr] for one expanded node; the trail holds the
        vertices of the branch in flight at every level.  A child whose
        branch costs more than the budget is counted as a failed node at
        depth + 1 but never entered, so nothing is selected beyond the
        budget, while nodes_expanded and max_depth still describe the
        whole tree the branching rule visits.  A node with no frontier
        left decides itself: its remaining uncovered edges are disjoint,
        and it succeeds iff the budget covers one endpoint of each.

        Every entered node scans once.  The scan finds the next live
        candidate with bytearray.find, which runs in C, and reads its
        neighbors' flags only until it has the `need` unselected ones
        the frontier takes.  The pointer invariant: every unselected
        vertex below ptr fails the scan (it has fewer than `need`
        unselected neighbors).  Selecting vertices only removes
        unselected neighbors, so the invariant survives deeper in the
        search; each frame restores the pointer it entered with, and a
        scan that finds nothing leaves the pointer alone.
        """
        need = self._need
        branches = self._branches
        n_branches = len(branches)
        adj = self._adj
        flags = self._flags
        live = self._live
        find = live.find
        candidates = self._candidates
        trail = self._trail
        stack: list[list] = []
        ptr = 0
        nodes = 0
        scans = 0
        next_check = _TIME_CHECK_INTERVAL
        max_depth = 0
        certificate = None
        while True:
            # Expand a node at depth len(stack) with budget k >= 0.
            nodes += 1
            scans += 1
            if len(stack) > max_depth:
                max_depth = len(stack)
            if deadline is not None and nodes >= next_check:
                next_check += _TIME_CHECK_INTERVAL
                if time.perf_counter() > deadline:
                    raise SolveTimeout(f"time limit exceeded after {nodes} nodes")
            p = find(1, ptr)
            while p >= 0:
                frontier = [p]
                for w in adj[p]:
                    if not flags[w]:
                        frontier.append(w)
                        if len(frontier) > need:
                            break
                else:
                    p = find(1, p + 1)
                    continue
                break
            if p >= 0:
                stack.append([frontier, -1, k, ptr])
                ptr = p
                found = False
            else:
                ends = self._isolated_ends()
                found = len(ends) <= k
                if found:
                    certificate = frozenset(trail + ends)
            # Pass the outcome up until a frame has a branch left that its
            # budget affords.  A branch over budget would fail at once: it
            # counts as a node at depth len(stack) but is never entered.
            while stack:
                frame = stack[-1]
                frontier, b, budget, entry_ptr = frame
                if b >= 0:
                    for _ in branches[b]:
                        v = trail.pop()
                        flags[v] = 0
                        live[v] = candidates[v]
                if not found:
                    b += 1
                    while b < n_branches and len(branches[b]) > budget:
                        nodes += 1
                        b += 1
                    if b < n_branches:
                        branch = branches[b]
                        frame[1] = b
                        for i in branch:
                            v = frontier[i]
                            flags[v] = 1
                            live[v] = 0
                            trail.append(v)
                        k = budget - len(branch)
                        break
                    # Some child at this depth was entered or counted.
                    if len(stack) > max_depth:
                        max_depth = len(stack)
                ptr = entry_ptr
                stack.pop()
            else:
                return certificate, nodes, max_depth, scans


def decide_vc(
    g: Graph,
    k: int,
    strategy: Strategy | str = Strategy.PAPER_FIVE,
    time_limit: float | None = None,
) -> SolveResult:
    """One-shot tau(g) <= k decision; see BranchSolver.decide."""
    return BranchSolver(g, strategy).decide(k, time_limit=time_limit)


def lp_lower_bound(g: Graph) -> int:
    """ceil(nu(B) / 2), a lower bound on tau(g) from the LP relaxation.

    B is the bipartite double cover of g: left vertex u is joined to
    right vertex v for every arc (u, v).  Half a maximum matching of B
    is the optimum of the vertex-cover LP (Nemhauser & Trotter 1975),
    which is never above tau(g) and never below the size of a matching
    of g, whose every edge gives B two disjoint arcs.

    The matching of B starts from a greedy matching of g taken in both
    directions, over the vertices in ascending degree order (ties by
    id).  That seed leaves no free right neighbor to a free left
    vertex, so Hopcroft-Karp phases (Hopcroft & Karp 1973) grow it to
    maximum from the left vertices it left free.  A phase layers the
    alternating paths by BFS, then augments along vertex-disjoint
    shortest paths by DFS on an explicit stack, and resets only the
    entries it touched.
    """
    adj = g.sorted_adjacency
    n = len(adj)
    degree = list(map(len, adj))
    mate_l = [-1] * n  # right partner of each left vertex
    mate_r = [-1] * n  # left partner of each right vertex
    size = 0
    free: list[int] = []
    for u in sorted(compress(range(n), degree), key=degree.__getitem__):
        if mate_l[u] < 0:
            for v in adj[u]:
                if mate_l[v] < 0:
                    mate_l[u] = mate_r[u] = v
                    mate_l[v] = mate_r[v] = u
                    size += 2
                    break
            else:
                # Every neighbor is taken, so u stays free in g.
                free.append(u)
    dist = [-1] * n  # BFS layer of a left vertex; -1 unreached, -2 dead end
    ptr = [0] * n  # where the DFS resumes in a left vertex's neighbors
    while free:
        queue = list(free)
        for u in free:
            dist[u] = 0
        # The layer whose vertices reach a free right vertex: the last
        # layer of every shortest augmenting path.
        top = n
        for u in queue:
            d = dist[u]
            if d > top:
                break
            for v in adj[u]:
                w = mate_r[v]
                if w < 0:
                    top = d
                elif dist[w] < 0:
                    dist[w] = d + 1
                    queue.append(w)
        if top == n:
            break
        for root in free:
            path = [root]
            while path:
                u = path[-1]
                nbrs = adj[u]
                depth = dist[u] + 1
                for i in range(ptr[u], len(nbrs)):
                    w = mate_r[nbrs[i]]
                    if w < 0 or (dist[w] == depth and depth <= top):
                        ptr[u] = i + 1
                        break
                else:
                    dist[u] = -2
                    path.pop()
                    continue
                if w >= 0:
                    path.append(w)
                    continue
                # nbrs[i] is free: flip the path's arcs in and out of
                # the matching, from its free end back to the root.
                v = nbrs[i]
                for x in reversed(path):
                    mate_r[v] = x
                    mate_l[x], v = v, mate_l[x]
                size += 1
                break
        for u in queue:
            dist[u] = -1
            ptr[u] = 0
        free = [u for u in free if mate_l[u] < 0]
    return (size + 1) // 2


class MinCoverResult(NamedTuple):
    size: int
    cover: frozenset[int]
    stats: SolveStats


def min_vertex_cover(
    g: Graph,
    strategy: Strategy | str = Strategy.PAPER_FIVE,
    time_limit: float | None = None,
) -> MinCoverResult:
    """Exact minimum vertex cover via upward decision probes.

    Starts at the LP lower bound (lp_lower_bound) and asks a
    BranchSolver for each k until the first success, which is exactly
    tau(g); the returned cover is re-verified edge by edge.  Stats are
    merged across probes.  On a planted graph the bound is already
    tau, so the first probe is the last.  time_limit (seconds) spans
    the whole computation, bound included; NaN raises ValueError.
    """
    deadline = _deadline(time_limit)
    solver = BranchSolver(g, strategy)
    total = SolveStats()
    k = lp_lower_bound(g)
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise SolveTimeout("time limit exceeded between decision probes")
        result = solver.decide(k, time_limit=remaining)
        total.merge(result.stats)
        if result.decision:
            cover = result.certificate
            if cover is None or len(cover) != k or not verify_cover(g, cover):
                raise AssertionError("internal error: bad certificate at tau")
            return MinCoverResult(size=k, cover=cover, stats=total)
        k += 1
