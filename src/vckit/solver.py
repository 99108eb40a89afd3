"""Bounded-search-tree decision procedure for vertex cover.

The solver answers tau(G) <= k by branching on a frontier: a path
u-v-w (two edges {u,v}, {v,w} among vertices not yet selected) or, for
the edge strategy, one uncovered edge.  It tries a fixed list of ways
to cover the frontier and searches each with the budget reduced by the
number of vertices added.  Search stops at the first success; every
branch restores the selected set on the way out.  One loop over an
explicit stack walks the tree for every strategy and budget, with
O(n + k) extra state and no recursion.

Three interchangeable strategies answer the same predicate and differ
only in their list of branches, and so in search-tree shape:

* paper5 - five branches per path: {u,v}, {u,w}, {v,w}, {v}, {u,v,w},
  in that order.  The default.
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

import time
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

from .graph import Graph
from .oracle import verify_cover


class Strategy(str, Enum):
    """Branching rule applied at each frontier found during the search."""

    PAPER_FIVE = "paper5"
    CLASSIC_P3 = "p3"
    EDGE_BRANCH = "edge"


class SolveTimeout(Exception):
    """Raised when a decide() call exceeds its time limit."""


class Triplet(NamedTuple):
    """A path u-v-w: edges {u,v} and {v,w} with all three unselected."""

    u: int
    v: int
    w: int


class IsolatedEdgesOnly(NamedTuple):
    """Only pairwise-disjoint uncovered edges remain; there are `count`."""

    count: int


class NoUncoveredEdges(NamedTuple):
    """Every edge has a selected endpoint: the selection is a cover."""


FrontierFinding = Union[Triplet, IsolatedEdgesOnly, NoUncoveredEdges]


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


def find_frontier(g: Graph, selected) -> FrontierFinding:
    """Locate the next branching spot, deterministically.

    Scans ids ascending for the first unselected center v with at least
    two unselected neighbors, and returns Triplet(u, v, w) where u < w
    are the two smallest such neighbors.  When no center exists, every
    uncovered edge is vertex-disjoint from the rest; the count of those
    is returned, or NoUncoveredEdges when there are none.

    This is the reference scan; BranchSolver reproduces it with
    incremental counts instead of rescanning.
    """
    endpoints = 0  # unselected vertices with exactly one unselected neighbor
    for v in range(g.vertex_count):
        if v in selected:
            continue
        first = -1
        for w in g.neighbors(v):
            if w not in selected:
                if first < 0:
                    first = w
                else:
                    return Triplet(first, v, w)
        if first >= 0:
            endpoints += 1
    if endpoints:
        # With no center anywhere, uncovered edges pair up their
        # endpoints one-to-one, so the count is exactly half.
        return IsolatedEdgesOnly(endpoints // 2)
    return NoUncoveredEdges()


# Check the deadline every this many nodes; a power of two so the test
# is a mask.
_TIME_CHECK_MASK = 255

# The ways each strategy covers a frontier, tried in order: each branch
# lists the positions in the frontier of the vertices it selects.  The
# frontier is a path (u, v, w) for paper5 and p3, an edge (a, b) for edge.
_BRANCHES = {
    Strategy.PAPER_FIVE: ((0, 1), (0, 2), (1, 2), (1,), (0, 1, 2)),
    Strategy.CLASSIC_P3: ((1,), (0, 2)),
    Strategy.EDGE_BRANCH: ((0,), (1,)),
}


class BranchSolver:
    """One search session over a fixed graph and strategy.

    The session owns the selection (per-vertex flags plus a trail in
    selection order) and incremental state keyed to it: per-vertex
    counts of unselected neighbors and tallies of how many unselected
    vertices have exactly one (or two or more) of them.  Those tallies
    decide terminal positions in O(1), and a monotone scan pointer
    (saved and restored around every branch) keeps locating the next
    frontier cheap.  select() and deselect() are the only ways to change
    the selection, so the counts always agree with it; `selected` is a
    read-only copy.  decide() restores everything before returning, so
    one session can be reused across budgets.
    """

    def __init__(self, graph: Graph, strategy: Strategy | str = Strategy.PAPER_FIVE):
        self.graph = graph
        self.strategy = Strategy(strategy)
        self._flags = bytearray(graph.vertex_count)
        self._trail: list[int] = []
        self._adj = graph.sorted_adjacency
        self._reset()
        self._scans = 0
        self._certificate: frozenset[int] | None = None

    def _reset(self) -> None:
        """Empty the selection and recompute the counts from the graph.

        Unlike rewinding the trail, this is correct from any state,
        including one left by an interrupt halfway through _select or
        _deselect.
        """
        self._flags[:] = bytes(len(self._flags))
        self._trail.clear()
        self._udeg = [len(a) for a in self._adj]
        self._cnt1 = sum(1 for d in self._udeg if d == 1)
        self._cnt2 = sum(1 for d in self._udeg if d >= 2)
        self._ptr = 0

    # -- public session surface -------------------------------------

    @property
    def selected(self) -> tuple[int, ...]:
        """The selected vertices in selection order."""
        return tuple(self._trail)

    def select(self, v: int) -> None:
        """Add v to the selection, updating the incremental counts."""
        if not (0 <= v < self.graph.vertex_count):
            raise ValueError(f"vertex id {v} out of range")
        if self._flags[v]:
            raise ValueError(f"vertex {v} is already selected")
        self._select(v)

    def deselect(self) -> int:
        """Undo the most recent selection; returns the vertex."""
        if not self._trail:
            raise ValueError("deselect on an empty selection")
        v = self._trail[-1]
        self._deselect()
        self._ptr = 0  # deselection can revive centers below the pointer
        return v

    def frontier(self) -> FrontierFinding:
        """find_frontier for the current selection, via the fast counts."""
        saved = self._ptr
        self._ptr = 0
        try:
            t = self._next_triplet()
        finally:
            self._ptr = saved
        if t is not None:
            return Triplet(*t)
        if self._cnt1:
            return IsolatedEdgesOnly(self._cnt1 >> 1)
        return NoUncoveredEdges()

    def decide(self, k: int, time_limit: float | None = None) -> SolveResult:
        """Decide tau(graph) <= k.

        Requires an empty selection (a session mid-inspection should
        be unwound first) and leaves it empty again.  time_limit is in
        seconds; exceeding it raises SolveTimeout.  Any abort (timeout,
        KeyboardInterrupt) leaves the session empty and usable.  The
        search keeps its own stack, so any budget runs on the caller's
        thread without touching the recursion limit.
        """
        if k < 0:
            raise ValueError(f"budget k must be >= 0, got {k}")
        if self._trail:
            raise RuntimeError("decide() requires an empty selection")
        self._scans = 0
        self._certificate = None
        self._ptr = 0
        deadline = None if time_limit is None else time.perf_counter() + time_limit
        start = time.perf_counter()
        try:
            found, nodes, max_depth = self._search(k, deadline)
        except BaseException:
            # An abort (timeout, interrupt) leaves the search mid-branch,
            # possibly mid-update; rebuild the session from the graph.
            self._reset()
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0

        stats = SolveStats(
            nodes_expanded=nodes,
            max_depth=max_depth,
            triplet_scans=self._scans,
            elapsed_ms=elapsed_ms,
        )
        return SolveResult(
            decision=found,
            certificate=self._certificate if found else None,
            stats=stats,
        )

    # -- incremental bookkeeping --------------------------------------
    #
    # _udeg[v] counts unselected neighbors of v; _cnt1/_cnt2 count
    # unselected vertices whose _udeg is exactly 1 / at least 2.
    # _select and _deselect are exact inverses under the stack
    # discipline, which is what makes backtracking restore the counts.

    def _select(self, v: int) -> None:
        udeg = self._udeg
        flags = self._flags
        d = udeg[v]
        if d:
            if d == 1:
                self._cnt1 -= 1
            else:
                self._cnt2 -= 1
        flags[v] = 1
        self._trail.append(v)
        c1 = self._cnt1
        c2 = self._cnt2
        for w in self._adj[v]:
            dw = udeg[w]
            udeg[w] = dw - 1
            if not flags[w]:
                if dw == 2:
                    c1 += 1
                    c2 -= 1
                elif dw == 1:
                    c1 -= 1
        self._cnt1 = c1
        self._cnt2 = c2

    def _deselect(self) -> None:
        v = self._trail.pop()
        udeg = self._udeg
        flags = self._flags
        c1 = self._cnt1
        c2 = self._cnt2
        for w in self._adj[v]:
            dw = udeg[w]
            udeg[w] = dw + 1
            if not flags[w]:
                if dw == 1:
                    c1 -= 1
                    c2 += 1
                elif dw == 0:
                    c1 += 1
        flags[v] = 0
        d = udeg[v]
        if d:
            if d == 1:
                c1 += 1
            else:
                c2 += 1
        self._cnt1 = c1
        self._cnt2 = c2

    # -- frontier scans ------------------------------------------------
    #
    # The pointer invariant: every unselected vertex below _ptr fails
    # the scan predicate (fewer than two unselected neighbors for the
    # triplet scan, none for the edge scan).  Selecting vertices only
    # lowers neighbor counts, so the invariant survives deeper in the
    # search; each branch frame restores the pointer it entered with.

    def _next_triplet(self):
        """The Triplet of find_frontier as a plain tuple, or None."""
        self._scans += 1
        if not self._cnt2:
            return None
        flags = self._flags
        udeg = self._udeg
        p = self._ptr
        while flags[p] or udeg[p] < 2:
            p += 1
        self._ptr = p
        first = -1
        for w in self._adj[p]:
            if not flags[w]:
                if first < 0:
                    first = w
                else:
                    return (first, p, w)
        raise AssertionError("neighbor counts out of sync with flags")

    def _next_uncovered_edge(self):
        """Lowest-endpoint uncovered edge as (a, b), or None."""
        self._scans += 1
        if not (self._cnt1 or self._cnt2):
            return None
        flags = self._flags
        udeg = self._udeg
        p = self._ptr
        while flags[p] or not udeg[p]:
            p += 1
        self._ptr = p
        for w in self._adj[p]:
            if not flags[w]:
                return (p, w)
        raise AssertionError("neighbor counts out of sync with flags")

    def _capture_certificate(self, isolated: int) -> None:
        """Freeze the accepting leaf's cover: the trail plus the smaller
        endpoint of each remaining isolated edge."""
        cover = list(self._trail)
        if isolated:
            udeg = self._udeg
            flags = self._flags
            for v in range(self.graph.vertex_count):
                if not flags[v] and udeg[v] == 1:
                    for w in self._adj[v]:
                        if not flags[w]:
                            if v < w:
                                cover.append(v)
                            break
        self._certificate = frozenset(cover)

    # -- the search ------------------------------------------------------

    def _search(self, k: int, deadline: float | None) -> tuple[bool, int, int]:
        """Depth-first search of the branch tree for budget k; returns
        (found, nodes_expanded, max_depth).

        Each frame of the explicit stack is [frontier, branch_index,
        budget, entry_ptr] for one expanded node; the trail holds the
        vertices of the branch in flight at every level.  A child whose
        branch costs more than the budget is counted as a failed node at
        depth + 1 but never entered, so nothing is selected beyond the
        budget, while nodes_expanded and max_depth still describe the
        whole tree the branching rule visits.
        """
        branches = _BRANCHES[self.strategy]
        n_branches = len(branches)
        scan = (
            self._next_uncovered_edge
            if self.strategy is Strategy.EDGE_BRANCH
            else self._next_triplet
        )
        select = self._select
        deselect = self._deselect
        stack: list[list] = []
        nodes = 0
        max_depth = 0
        while True:
            # Expand a node at depth len(stack) with budget k >= 0.
            nodes += 1
            if len(stack) > max_depth:
                max_depth = len(stack)
            if deadline is not None and not nodes & _TIME_CHECK_MASK:
                if time.perf_counter() > deadline:
                    raise SolveTimeout(f"time limit exceeded after {nodes} nodes")
            entry_ptr = self._ptr
            frontier = scan()
            if frontier is not None:
                stack.append([frontier, -1, k, entry_ptr])
                found = False
            else:
                # A scan that finds nothing leaves the pointer alone.
                isolated = self._cnt1 >> 1
                found = isolated <= k
                if found:
                    self._capture_certificate(isolated)
            # Pass the outcome up until a frame has a branch left that its
            # budget affords.  A branch over budget would fail at once: it
            # counts as a node at depth len(stack) but is never entered.
            while stack:
                frame = stack[-1]
                frontier, b, budget, entry_ptr = frame
                if b >= 0:
                    for _ in branches[b]:
                        deselect()
                if not found:
                    b += 1
                    while b < n_branches and len(branches[b]) > budget:
                        nodes += 1
                        b += 1
                    if b < n_branches:
                        branch = branches[b]
                        frame[1] = b
                        for i in branch:
                            select(frontier[i])
                        k = budget - len(branch)
                        break
                    # Some child at this depth was entered or counted.
                    if len(stack) > max_depth:
                        max_depth = len(stack)
                self._ptr = entry_ptr
                stack.pop()
            else:
                return found, nodes, max_depth


def decide_vc(
    g: Graph,
    k: int,
    strategy: Strategy | str = Strategy.PAPER_FIVE,
    time_limit: float | None = None,
) -> SolveResult:
    """One-shot tau(g) <= k decision; see BranchSolver.decide."""
    return BranchSolver(g, strategy).decide(k, time_limit=time_limit)


def greedy_maximal_matching(g: Graph) -> list[tuple[int, int]]:
    """A maximal matching, grown greedily over edges in ascending order.

    Its size is a lower bound on tau(g): the edges are vertex-disjoint,
    so each needs its own cover vertex.
    """
    matched = bytearray(g.vertex_count)
    matching: list[tuple[int, int]] = []
    for u, v in g.edges():
        if not matched[u] and not matched[v]:
            matched[u] = 1
            matched[v] = 1
            matching.append((u, v))
    return matching


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

    Starts at the greedy matching lower bound and asks decide_vc for
    each k until the first success, which is exactly tau(g); the
    returned cover is re-verified edge by edge.  Stats are merged
    across probes.  time_limit (seconds) spans the whole computation.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    solver = BranchSolver(g, strategy)
    total = SolveStats()
    k = len(greedy_maximal_matching(g))
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
