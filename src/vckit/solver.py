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
budget, with O(n + k) extra state and no recursion.  The selection is
one byte per vertex plus a trail of the selected vertices, so selecting
and deselecting a vertex is O(1); a node pays for its frontier scan,
which reads the neighbors of each candidate it visits only until it has
found the unselected ones it needs.  A node with no frontier left counts
its uncovered edges from the degrees of the selected vertices, in
O(k + their degree sum), and only a search that succeeds there with
edges left pays one O(n + m) pass, to find their endpoints.  A scan
that has skipped a window of candidates without finding a center takes
that count early: when it is 0, no edge is left to branch on, and the
node is the success leaf without reading the rest of the candidates.

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


class SolveTimeout(TimeoutError):
    """Raised when a decide() call exceeds its time limit."""


class SolveStats(NamedTuple):
    """Search-effort counters for one decide() call.

    nodes_expanded counts every child the branching rule makes, including
    over-budget children that are counted but never entered.
    triplet_scans counts the entered nodes, each of which scans once for
    its frontier: nodes_expanded minus the skipped over-budget children.
    """

    nodes_expanded: int = 0
    max_depth: int = 0
    triplet_scans: int = 0
    elapsed_ms: float = 0.0


class SolveResult(NamedTuple):
    """Outcome of a decide() call.

    certificate is a verified-size cover witnessing a true decision
    (at most the top-level budget; None on false).
    """

    decision: bool
    certificate: Optional[frozenset[int]]
    stats: SolveStats


# Check the deadline at the first node the search enters, then at the
# first node it enters once this many more nodes have been counted.  A
# threshold, not a mask on the count: skipped over-budget children
# advance the count without entering a node.
_TIME_CHECK_INTERVAL = 256

# How many candidates a node's frontier scan skips before it counts the
# uncovered edges, to end at once a scan that has no edge left to find
# (see BranchSolver._search).  The count costs O(k + the selection's
# degree sum), about as much as reading a few dozen candidates, and is
# reused if the node is a leaf.
_SCAN_WINDOW = 128

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


def _plans(branches: tuple[tuple[int, ...], ...]) -> tuple:
    """Each slack's plan for a rule's branches, indexed by slack from 0
    to the largest branch size: the branches of at most that many
    vertices in order, each as (skipped, branch) with the number of
    over-budget branches just before it, then (skipped, None) for those
    after the last.  None where no branch fits."""
    plans = []
    for slack in range(max(map(len, branches)) + 1):
        plan, skipped = [], 0
        for branch in branches:
            if len(branch) > slack:
                skipped += 1
            else:
                plan.append((skipped, branch))
                skipped = 0
        plan.append((skipped, None))
        plans.append(tuple(plan) if len(plan) > 1 else None)
    return tuple(plans)


_PLANS = {strategy: _plans(branches) for strategy, (_, branches) in _RULES.items()}


def _check_time_limit(seconds: Optional[float], name: str) -> Optional[float]:
    """seconds, checked: None for no limit, else finite and > 0."""
    if seconds is not None and not 0 < seconds < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {seconds}")
    return seconds


def _deadline(time_limit: float | None) -> float | None:
    """The perf_counter() reading at which time_limit seconds from now
    run out, or None for no limit."""
    if _check_time_limit(time_limit, "time_limit") is None:
        return None
    return time.perf_counter() + time_limit


class BranchSolver:
    """A reusable decision session over a fixed graph and strategy.

    decide() is its one operation.  The session is the selection the
    search works on: one byte per vertex and the trail of selected
    vertices in selection order.  A selected vertex's byte is 0; an
    unselected one holds 1 if its degree lets it be a center (a scan
    candidate) and 2 otherwise.  Selecting or deselecting a vertex
    writes one byte and the trail, so it is O(1) whatever its degree.
    Every way out of decide() leaves the selection empty, so one session
    serves any number of budgets; the stack, the counters and the
    certificate belong to one search and live in it.
    """

    def __init__(self, graph: Graph, strategy: Strategy | str = Strategy.PAPER_FIVE):
        self.graph = graph
        self.strategy = Strategy(strategy)
        need = _RULES[self.strategy][0]
        self._adj = graph.sorted_adjacency
        # Each vertex's byte while it is unselected.
        self._unselected = bytes(1 if len(a) >= need else 2 for a in self._adj)
        self._state = bytearray(self._unselected)
        self._trail: list[int] = []

    def _reset(self) -> None:
        """Empty the selection.

        Unlike rewinding the trail, this is correct from any state,
        including one left by an interrupt halfway through a selection
        or a deselection.
        """
        self._state[:] = self._unselected
        self._trail.clear()

    def decide(self, k: int, time_limit: float | None = None) -> SolveResult:
        """Decide tau(graph) <= k.

        A true decision carries a cover of at most k vertices as its
        certificate.  time_limit is in seconds, finite and > 0, or None
        for no limit; any other value raises ValueError.  The search
        reads the clock at the first node it enters, then each time it
        enters a node once 256 more nodes have been counted, and raises
        SolveTimeout at the first reading past the limit.  So a spent
        limit raises before any branching, however small the tree.  The
        selection is empty on entry and on every way out: a finished
        search has unwound each branch, and an abort (timeout,
        KeyboardInterrupt) resets the session, which stays usable.  The
        search keeps its own stack, so any budget runs on the caller's
        thread without touching the recursion limit.
        """
        return self._decide(k, _deadline(time_limit))

    def _decide(self, k: int, deadline: float | None) -> SolveResult:
        """decide() against a perf_counter() deadline, None for none."""
        if k < 0:
            raise ValueError(f"budget k must be >= 0, got {k}")
        start = time.perf_counter()
        try:
            certificate, nodes, max_depth, scans = self._search(k, deadline)
        except BaseException:
            # An abort (timeout, interrupt) leaves the search mid-branch,
            # possibly mid-update; reset the session from scratch.
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

    def _uncovered(self) -> int:
        """The number of uncovered edges, as m minus the edges with an
        endpoint in the selection S, which number sum(deg S) - |E(S)|,
        where 2|E(S)| sums |N(s) & S| over S: a graph is simple.  It
        costs O(k + sum(deg S))."""
        trail = self._trail
        selected = set(trail)
        around = list(map(self._adj.__getitem__, trail))
        return (
            self.graph.edge_count
            - sum(map(len, around))
            + sum(map(len, map(selected.intersection, around))) // 2
        )

    def _isolated_ends(self) -> list[int]:
        """The smaller endpoint of each uncovered edge, in one O(n + m)
        pass.

        Meant for a position with no center left, where every unselected
        vertex has at most one unselected neighbor: then the uncovered
        edges are pairwise disjoint and each is reported once.
        """
        state = self._state
        ends = []
        for v, neighbors in enumerate(self._adj):
            if state[v]:
                for w in neighbors:
                    if state[w]:
                        if v < w:
                            ends.append(v)
                        break
        return ends

    def _search(
        self, k: int, deadline: float | None
    ) -> tuple[Optional[frozenset[int]], int, int, int]:
        """Depth-first search of the branch tree for budget k; returns
        (certificate or None, nodes_expanded, max_depth, scans).

        The trail holds the selection, the vertices of the branch in
        flight at every level.  Each frame of the explicit stack is
        (frontier, mark, steps) for one expanded node: mark is the
        trail's length when the node was entered, so unwinding the frame
        pops the trail back to it, and steps iterates the node's plan.
        The plan for slack s = k - mark (capped at the largest branch)
        lists, in order, the branches of at most s vertices, each as
        (skipped, branch) with the number of over-budget branches just
        before it, and ends with (skipped, None) for those after the
        last.  A branch over budget is counted as a failed node at
        depth + 1 but never entered, so nothing is selected beyond the
        budget, while nodes_expanded and max_depth still describe the
        whole tree the branching rule visits.  A node whose plan has no
        branch that fits, as at slack 0, counts all its children and
        fails without pushing a frame.

        A node with no frontier left decides itself: its remaining
        uncovered edges are disjoint, and it succeeds iff the selection
        plus one endpoint of each fits in k.  It counts them from the
        degrees of the selection S (see _uncovered), in O(k + sum(deg S)).
        Only a leaf that succeeds with uncovered edges left pays the
        O(n + m) pass that finds their endpoints for the certificate;
        under edge, any unselected vertex with an unselected neighbor is
        a center, so a leaf there has none left.

        Every entered node scans once.  The scan finds the next
        candidate (state byte 1) with bytearray.find, which runs in C,
        and reads its neighbors' bytes only until it has the `need`
        unselected ones the frontier takes, allocating nothing until a
        center qualifies.  It starts at the parent's center, or at 0 at
        the root, by this invariant: every unselected vertex below the
        parent's center fails the scan (it has fewer than `need`
        unselected neighbors).  The parent's own scan found it so, and
        selecting vertices only removes unselected neighbors, so it
        still holds anywhere below the parent.

        A scan that has skipped _SCAN_WINDOW candidates without finding
        a center counts the uncovered edges there, as the leaf does.  At
        0 no vertex has an unselected neighbor, so none is a center, and
        the node is the leaf the rest of the scan would reach, which
        succeeds with the trail as its certificate: after a search's
        last selection, it skips reading every remaining candidate's
        neighbors.  Otherwise the scan goes on to the end, and a node
        that turns out to be a leaf reuses the count.  Either way the
        node, its frontier and the tree are those of the unbounded scan.
        The window is one of skipped candidates, not of ids, so the
        count is taken only after work that outweighs it, also where
        candidates lie far apart, and a scan that finds its center at
        once pays one assignment for it.
        """
        # A path frontier is (v, u, w), with u unset (-1) until the scan
        # meets v's first unselected neighbor; an edge frontier is
        # (v, w), and its scan starts with u already "set".
        need, branches = _RULES[self.strategy]
        path = need > 1
        unset = -1 if path else 0
        plans = _PLANS[self.strategy]
        cap = len(plans) - 1
        n_branches = len(branches)
        adj = self._adj
        state = self._state
        find = state.find
        window = _SCAN_WINDOW
        uncovered = self._uncovered
        unselected = self._unselected
        trail = self._trail
        select = trail.append
        deselect = trail.pop
        stack: list[tuple] = []
        nodes = 0
        scans = 0
        next_check = 1
        max_depth = 0
        certificate = None
        depth = size = start = 0
        while True:
            # Enter a node at depth `depth` whose selection, the trail,
            # has size <= k vertices.
            nodes += 1
            scans += 1
            if deadline is not None and nodes >= next_check:
                next_check = nodes + _TIME_CHECK_INTERVAL
                if time.perf_counter() > deadline:
                    raise SolveTimeout(f"time limit exceeded after {nodes} nodes")
            budget = window
            p = find(1, start)
            while p >= 0:
                u = unset
                for w in adj[p]:
                    if state[w]:
                        if u >= 0:
                            break
                        u = w
                else:
                    p = find(1, p + 1)
                    budget -= 1
                    if not budget:
                        # A window of candidates and no center: with no
                        # edge left uncovered there is none anywhere, so
                        # this is the leaf the rest of the scan would reach.
                        left = uncovered()
                        if not left:
                            p = -1
                    continue
                break
            found = False
            if p < 0:
                if budget > 0:
                    # The scan ended inside its window, without a count.
                    left = uncovered()
                if size + left <= k:
                    found = True
                    if left:
                        certificate = frozenset(trail + self._isolated_ends())
                    else:
                        certificate = frozenset(trail)
            else:
                slack = k - size
                plan = plans[slack if slack < cap else cap]
                if plan is None:
                    # Every child is over budget: counted, never entered.
                    nodes += n_branches
                else:
                    stack.append(((p, u, w) if path else (p, w), size, iter(plan)))
                if depth >= max_depth:
                    max_depth = depth + 1
            # Pass the outcome up until a frame has a branch left that fits
            # the budget, and enter it.
            while stack:
                frontier, mark, steps = stack[-1]
                while size > mark:
                    size -= 1
                    v = deselect()
                    state[v] = unselected[v]
                if not found:
                    skipped, branch = next(steps)
                    nodes += skipped
                    if branch is not None:
                        for i in branch:
                            v = frontier[i]
                            state[v] = 0
                            select(v)
                        size += len(branch)
                        start = frontier[0]
                        depth = len(stack)
                        break
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

    The matching of B starts from a greedy matching M of g taken in
    both directions, over the vertices in ascending degree order (ties
    by id), each vertex matched to its first free neighbor.  When the
    ends M's edges were taken toward cover g (checked with verify_cover,
    in O(|M| + their degree sum)), a matching and a cover of one size
    prove |M| = LP = tau, and the bound is |M| with no further work: so
    it is on planted graphs, whose low-degree vertices are matched
    toward the hubs.  Otherwise the seed leaves no free right neighbor
    to a free left vertex, so Hopcroft-Karp phases (Hopcroft & Karp
    1973) grow it to maximum from the left vertices it left free.  A
    phase layers the alternating paths by BFS, then augments along
    vertex-disjoint shortest paths by DFS on an explicit stack, and
    resets only the entries it touched.
    """
    adj = g.sorted_adjacency
    n = len(adj)
    degree = list(map(len, adj))
    mate_l = [-1] * n  # right partner of each left vertex
    mate_r = [-1] * n  # left partner of each right vertex
    size = 0
    free: list[int] = []
    ends: list[int] = []  # the end each seed edge was taken toward
    for u in sorted(compress(range(n), degree), key=degree.__getitem__):
        if mate_l[u] < 0:
            for v in adj[u]:
                if mate_l[v] < 0:
                    mate_l[u] = mate_r[u] = v
                    mate_l[v] = mate_r[v] = u
                    size += 2
                    ends.append(v)
                    break
            else:
                # Every neighbor is taken, so u stays free in g.
                free.append(u)
    if verify_cover(g, ends):
        # A matching and a cover of one size: tau = LP = |M|.
        return len(ends)
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
    tau(g); the returned cover is re-verified with verify_cover.  The
    stats add up the probes' counts and elapsed_ms and keep the deepest
    max_depth.  On a planted graph the bound is already tau, so the
    first probe is the last.  time_limit (seconds) spans the whole
    computation, bound included, and takes the values decide takes.
    """
    deadline = _deadline(time_limit)
    solver = BranchSolver(g, strategy)
    probes: list[SolveStats] = []
    k = lp_lower_bound(g)
    while True:
        result = solver._decide(k, deadline)
        probes.append(result.stats)
        if result.decision:
            cover = result.certificate
            if cover is None or len(cover) != k or not verify_cover(g, cover):
                raise AssertionError("internal error: bad certificate at tau")
            nodes, depths, scans, elapsed = zip(*probes)
            stats = SolveStats(sum(nodes), max(depths), sum(scans), sum(elapsed))
            return MinCoverResult(size=k, cover=cover, stats=stats)
        k += 1
