"""The branching solver: all three strategies, witnesses, backtracking
purity, and agreement with the exhaustive oracle and with a reference
recursion over the same frontier scan."""

from __future__ import annotations

import os
import random
import re
import signal
import sys
import threading
import time

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckit import (
    BranchSolver,
    Graph,
    SolveTimeout,
    Strategy,
    brute_force_tau,
    decide_vc,
    gen_gnm,
    gen_planted,
    lp_lower_bound,
    min_vertex_cover,
    verify_cover,
)
from vckit import solver as solver_module

from graphutil import (
    complete_graph,
    cycle_graph,
    disjoint_paths_graph,
    matching_graph,
    path_graph,
    petersen_graph,
    session_snapshot,
    star_graph,
)

ALL_STRATEGIES = tuple(Strategy)


# -- decide: worked examples ------------------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_decide_path3_budget1(strategy):
    result = decide_vc(path_graph(3), 1, strategy)
    assert result.decision is True
    assert result.certificate == frozenset({1})
    assert verify_cover(path_graph(3), result.certificate)


def test_decide_path3_node_counts_pinned():
    # regression anchors; the trees are tiny enough to trace by hand.
    # paper5: root, three pair-branches over budget, counted but never
    # selected, then {v} succeeds
    assert decide_vc(path_graph(3), 1, Strategy.PAPER_FIVE).stats.nodes_expanded == 5
    # p3: root, then {v} succeeds immediately
    assert decide_vc(path_graph(3), 1, Strategy.CLASSIC_P3).stats.nodes_expanded == 2
    # edge: root, {0} leads to k=0 with an edge left and two branches
    # over budget, counted but never selected, then {1} covers everything
    assert decide_vc(path_graph(3), 1, Strategy.EDGE_BRANCH).stats.nodes_expanded == 5


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_decide_triangle(strategy):
    k3 = complete_graph(3)
    assert decide_vc(k3, 1, strategy).decision is False
    result = decide_vc(k3, 2, strategy)
    assert result.decision is True
    assert len(result.certificate) == 2


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_decide_edgeless_budget0(strategy):
    result = decide_vc(Graph(5), 0, strategy)
    assert result.decision is True
    assert result.certificate == frozenset()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_decide_single_edge_budget0(strategy):
    result = decide_vc(path_graph(2), 0, strategy)
    assert result.decision is False
    assert result.certificate is None


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_decide_two_isolated_edges(strategy):
    result = decide_vc(matching_graph(2), 2, strategy)
    assert result.decision is True
    if strategy is not Strategy.EDGE_BRANCH:
        # the terminal rule takes the smaller endpoint of each edge
        assert result.certificate == frozenset({0, 2})
    assert verify_cover(matching_graph(2), result.certificate)
    assert decide_vc(matching_graph(2), 1, strategy).decision is False


@pytest.mark.parametrize("strategy", (Strategy.PAPER_FIVE, Strategy.CLASSIC_P3))
def test_decide_isolated_edges_below_the_last_center(strategy):
    # isolated edges {0,1} and {2,3} lie below the star centered at 6 and
    # {8,9} above it; once 6 is selected no center is left, the scan
    # pointer sits past the low edges, and the terminal rule must still
    # count and cover all three
    g = Graph(10, [(0, 1), (2, 3), (4, 6), (5, 6), (6, 7), (8, 9)])
    tau = brute_force_tau(g)
    assert tau == 4
    result = decide_vc(g, tau, strategy)
    assert result.decision is True
    # the star's center plus the smaller endpoint of each isolated edge
    assert result.certificate == frozenset({0, 2, 6, 8})
    assert verify_cover(g, result.certificate)
    below = decide_vc(g, tau - 1, strategy)
    assert below.decision is False
    assert below.certificate is None


def test_decide_rejects_negative_budget():
    with pytest.raises(ValueError, match="k must be >= 0"):
        decide_vc(path_graph(3), -1)


def test_nan_time_limit_is_rejected():
    # NaN compares false against every deadline, so it would mean no limit
    solver = BranchSolver(path_graph(3))
    with pytest.raises(ValueError, match="NaN"):
        solver.decide(1, time_limit=float("nan"))
    assert solver.decide(1).decision is True
    with pytest.raises(ValueError, match="NaN"):
        min_vertex_cover(path_graph(3), time_limit=float("nan"))


def test_decide_accepts_strategy_strings():
    assert decide_vc(path_graph(3), 1, "p3").decision is True
    assert decide_vc(path_graph(3), 1, "edge").decision is True
    with pytest.raises(ValueError):
        decide_vc(path_graph(3), 1, "unknown")


# -- decide: properties against the oracle -----------------------------


def test_decide_matches_oracle_on_random_graphs():
    rng = random.Random(60902)
    for trial in range(40):
        n = rng.randrange(1, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        tau = brute_force_tau(g)
        for strategy in ALL_STRATEGIES:
            solver = BranchSolver(g, strategy)
            before = session_snapshot(solver)
            for k in range(n + 1):
                result = solver.decide(k)
                assert result.decision == (tau <= k), (
                    f"{strategy} disagrees with oracle: n={n} m={m} "
                    f"k={k} tau={tau}"
                )
                if result.decision:
                    assert verify_cover(g, result.certificate)
                    assert len(result.certificate) <= k
                else:
                    assert result.certificate is None
                assert result.stats.max_depth <= k + 1
                assert result.stats.nodes_expanded >= 1
                assert result.stats.max_depth <= result.stats.nodes_expanded
                assert session_snapshot(solver) == before


def _outcome(result):
    stats = result.stats
    return (
        result.decision,
        result.certificate,
        stats.nodes_expanded,
        stats.max_depth,
        stats.triplet_scans,
    )


def test_decide_deterministic_across_sessions():
    g = gen_gnm(14, 45, seed=8)
    for strategy in ALL_STRATEGIES:
        a = BranchSolver(g, strategy).decide(4)
        b = BranchSolver(g, strategy).decide(4)
        assert _outcome(a) == _outcome(b)
    # A reused session answers like a fresh one after a false decide and
    # after a timeout.
    k = 6
    for seed in (1, 2, 3):
        g = _relabeled_planted(seed)
        for strategy in ALL_STRATEGIES:
            session = BranchSolver(g, strategy)
            below = session.decide(k - 1)
            with pytest.raises(SolveTimeout):
                session.decide(k, time_limit=0.0)
            at = session.decide(k)
            assert _outcome(below) == _outcome(BranchSolver(g, strategy).decide(k - 1))
            assert _outcome(at) == _outcome(BranchSolver(g, strategy).decide(k))


def test_decide_monotone_in_budget():
    rng = random.Random(1123)
    for trial in range(15):
        g = gen_gnm(10, rng.randrange(0, 46), seed=rng.randrange(2**32))
        for strategy in ALL_STRATEGIES:
            previous = False
            for k in range(11):
                decision = decide_vc(g, k, strategy).decision
                assert not (previous and not decision), "true at k, false at k+1"
                previous = decision


# Recorded from the recursive search that the one loop replaced; any
# change to branch order, frontier choice or node counting moves them.
# Key: (seed, strategy, k), with k at tau = 6 and tau - 1, ->
# (decision, certificate, nodes_expanded, max_depth, triplet_scans).
_GOLDEN_TREES = {
    (1, "paper5", 6): (True, (19, 23, 33, 79, 131, 146), 313, 6, 65),
    (1, "paper5", 5): (False, None, 421, 6, 84),
    (1, "p3", 6): (True, (19, 23, 33, 79, 131, 146), 51, 7, 27),
    (1, "p3", 5): (False, None, 41, 6, 20),
    (1, "edge", 6): (True, (19, 23, 33, 79, 131, 146), 253, 7, 127),
    (1, "edge", 5): (False, None, 127, 6, 63),
    (2, "paper5", 6): (True, (35, 51, 55, 94, 170, 177), 233, 6, 49),
    (2, "paper5", 5): (False, None, 421, 6, 84),
    (2, "p3", 6): (True, (35, 51, 55, 94, 170, 177), 61, 7, 32),
    (2, "p3", 5): (False, None, 41, 6, 20),
    (2, "edge", 6): (True, (35, 51, 55, 94, 170, 177), 253, 7, 127),
    (2, "edge", 5): (False, None, 127, 6, 63),
    (3, "paper5", 6): (True, (14, 47, 62, 69, 137, 158), 233, 6, 49),
    (3, "paper5", 5): (False, None, 421, 6, 84),
    (3, "p3", 6): (True, (14, 47, 62, 69, 137, 158), 61, 7, 32),
    (3, "p3", 5): (False, None, 41, 6, 20),
    (3, "edge", 6): (True, (14, 47, 62, 69, 137, 158), 253, 7, 127),
    (3, "edge", 5): (False, None, 127, 6, 63),
}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_search_trees_pinned_on_relabeled_planted_instances(seed):
    # relabeling moves the planted cover off ids 0..k-1, so the frontier
    # scan meets it in a scattered order and the trees branch for real
    inst = gen_planted(200, 6, 100, seed)
    perm = list(range(200))
    random.Random(seed).shuffle(perm)
    g = Graph(200, [(perm[u], perm[v]) for u, v in inst.graph.edges()])
    for strategy in ALL_STRATEGIES:
        for k in (6, 5):
            r = decide_vc(g, k, strategy)
            certificate = None if r.certificate is None else tuple(sorted(r.certificate))
            observed = (
                r.decision,
                certificate,
                r.stats.nodes_expanded,
                r.stats.max_depth,
                r.stats.triplet_scans,
            )
            assert observed == _GOLDEN_TREES[(seed, strategy.value, k)], (strategy, k)


def _relabeled_planted(seed):
    """The n=200, k=6 planted graph of the golden trees, relabeled."""
    inst = gen_planted(200, 6, 100, seed)
    perm = list(range(200))
    random.Random(seed).shuffle(perm)
    return Graph(200, [(perm[u], perm[v]) for u, v in inst.graph.edges()])


class _LongestTrail(list):
    """A trail that records the longest it has been."""

    longest = 0

    def append(self, v):
        super().append(v)
        if len(self) > self.longest:
            self.longest = len(self)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_selection_never_exceeds_budget(seed):
    # branches over budget are counted as nodes but never selected; every
    # selected vertex goes onto the trail, so the trail's longest length
    # is the largest selection the search ever makes
    g = _relabeled_planted(seed)
    for strategy in ALL_STRATEGIES:
        for k in (6, 5):
            solver = BranchSolver(g, strategy)
            solver._trail = _LongestTrail()
            solver.decide(k)
            assert 0 < solver._trail.longest <= k, (strategy, k)


# The branches of each strategy, restated apart from the solver's table:
# positions in the frontier of the vertices that each branch selects.
_REFERENCE_BRANCHES = {
    "paper5": ((0, 1), (0, 2), (1, 2), (1,), (0, 1, 2)),
    "p3": ((1,), (0, 2)),
    "edge": ((0,), (1,)),
}


def _frontier_by_definition(g: Graph, selected: set[int]):
    """Direct restatement of the path scan: the first unselected center
    in id order with its two smallest unselected neighbors as (u, v, w),
    else the number of uncovered edges, which are then disjoint."""
    for v in range(g.vertex_count):
        if v in selected:
            continue
        free = [w for w in g.neighbors(v) if w not in selected]
        if len(free) >= 2:
            return (free[0], v, free[1])
    return sum(1 for u, v in g.edges() if u not in selected and v not in selected)


def _reference_search(g, k, strategy):
    """Plain recursion over the whole branch tree, entering every child
    even over budget; returns (decision, certificate, nodes_expanded,
    max_depth, triplet_scans), with a scan at each node whose budget is
    >= 0.  The certificate of a true decision is the selection at the
    first accepting leaf plus the smaller endpoint of each uncovered
    edge left there; it is None on false."""
    selected = set()
    counts = [0, 0, 0]
    certificate = None

    def scan():
        if strategy != "edge":
            return _frontier_by_definition(g, selected)
        for a in range(g.vertex_count):
            if a not in selected:
                for b in g.neighbors(a):
                    if b not in selected:
                        return (a, b)
        return 0

    def expand(budget, depth):
        nonlocal certificate
        counts[0] += 1
        counts[1] = max(counts[1], depth)
        if budget < 0:
            return False
        counts[2] += 1
        frontier = scan()
        if isinstance(frontier, int):
            if frontier > budget:
                return False
            certificate = frozenset(selected).union(
                u for u, v in g.edges() if u not in selected and v not in selected
            )
            return True
        for branch in _REFERENCE_BRANCHES[strategy]:
            chosen = {frontier[i] for i in branch}
            selected.update(chosen)
            found = expand(budget - len(branch), depth + 1)
            selected.difference_update(chosen)
            if found:
                return True
        return False

    found = expand(k, 0)
    return (found, certificate, *counts)


@st.composite
def _small_graphs(draw, max_vertices=12):
    """Up to max_vertices vertices; any set of pairs, so mostly dense
    graphs."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, kept in zip(pairs, keep) if kept])


@settings(max_examples=200, deadline=None)
@given(_small_graphs())
def test_node_counts_match_reference_recursion(g):
    for strategy in ALL_STRATEGIES:
        for k in range(g.vertex_count + 1):
            r = decide_vc(g, k, strategy)
            observed = (
                r.decision,
                r.certificate,
                r.stats.nodes_expanded,
                r.stats.max_depth,
                r.stats.triplet_scans,
            )
            assert observed == _reference_search(g, k, strategy.value), (strategy, k)


def test_only_a_successful_leaf_with_edges_left_finds_their_ends(monkeypatch):
    # A leaf counts its uncovered edges from the selection's degrees; the
    # O(n + m) endpoint pass runs only at a leaf that succeeds with edges
    # left, so never at a failing leaf or one with no edge left, and at
    # most once a search.  Trees and certificates stay the same.
    calls = []
    isolated_ends = BranchSolver._isolated_ends

    def spy(self):
        calls.append(isolated_ends(self))
        return calls[-1]

    monkeypatch.setattr(BranchSolver, "_isolated_ends", spy)

    def observe(g, k, strategy):
        calls.clear()
        r = decide_vc(g, k, strategy)
        assert len(calls) <= 1, (strategy, k)
        if calls:
            assert r.decision and calls[0], (strategy, k)
            assert r.certificate.issuperset(calls[0])
        return r

    for seed in (1, 2, 3):
        g = _relabeled_planted(seed)
        for strategy in ALL_STRATEGIES:
            for k in (6, 5):
                r = observe(g, k, strategy)
                certificate = None if r.certificate is None else tuple(sorted(r.certificate))
                observed = (
                    r.decision,
                    certificate,
                    r.stats.nodes_expanded,
                    r.stats.max_depth,
                    r.stats.triplet_scans,
                )
                assert observed == _GOLDEN_TREES[(seed, strategy.value, k)], (seed, k)
    for seed in range(6):
        g = gen_gnm(12, 18, seed)
        for strategy in ALL_STRATEGIES:
            for k in range(9):
                r = observe(g, k, strategy)
                observed = (
                    r.decision,
                    r.certificate,
                    r.stats.nodes_expanded,
                    r.stats.max_depth,
                    r.stats.triplet_scans,
                )
                assert observed == _reference_search(g, k, strategy.value), (seed, k)
    # A path rule's successful leaf on disjoint edges finds their ends.
    for strategy in (Strategy.PAPER_FIVE, Strategy.CLASSIC_P3):
        r = observe(matching_graph(3), 3, strategy)
        assert calls == [[0, 2, 4]]
        assert r.certificate == frozenset({0, 2, 4})


def _window_outcomes(graphs):
    """Each decide's decision, certificate and counters, for every
    strategy and every budget up to n, on each graph."""
    return [
        (r.decision, r.certificate, r.stats.nodes_expanded, r.stats.max_depth,
         r.stats.triplet_scans)
        for g in graphs
        for strategy in ALL_STRATEGIES
        for k in range(g.vertex_count + 1)
        for r in [decide_vc(g, k, strategy)]
    ]


# Four triangles on hub 0 and a path 10-11-12: once p3 selects 0, the
# eight candidates 1..8 have one unselected neighbor each, and the one
# center, 11, lies past a window of 1, 2 or 7 of them while edges remain.
_CENTER_PAST_THE_WINDOW = Graph(
    13, [(0, i) for i in range(1, 9)] + [(i, i + 1) for i in range(1, 9, 2)]
    + [(10, 11), (11, 12)])


def test_scan_window_changes_no_tree(monkeypatch):
    # a scan that skips a window of candidates counts the uncovered
    # edges early: at 0 its node is the success leaf, otherwise it
    # resumes; at any window the trees are those of the default
    counts = []
    uncovered = BranchSolver._uncovered

    def spy(self):
        counts.append(uncovered(self))
        return counts[-1]

    monkeypatch.setattr(BranchSolver, "_uncovered", spy)
    atlas = [Graph(g.number_of_nodes(), list(g.edges()))
             for g in networkx.graph_atlas_g()[1::9]]
    graphs = atlas + [_CENTER_PAST_THE_WINDOW]
    expected = _window_outcomes(graphs)
    counts.clear()
    decide_vc(_CENTER_PAST_THE_WINDOW, 6, Strategy.CLASSIC_P3)
    assert counts == [4]  # the leaf's own count: the four triangle edges
    for window in (1, 2, 7):
        monkeypatch.setattr(solver_module, "_SCAN_WINDOW", window)
        assert _window_outcomes(graphs) == expected, window
        counts.clear()
        decide_vc(_CENTER_PAST_THE_WINDOW, 6, Strategy.CLASSIC_P3)
        assert counts == [6, 4], window  # resumed below the root


@settings(max_examples=40, deadline=None)
@given(_small_graphs(9))
def test_scan_window_changes_no_tree_on_random_graphs(g):
    expected = _window_outcomes([g])
    for window in (1, 2, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_module, "_SCAN_WINDOW", window)
            assert _window_outcomes([g]) == expected, window


def test_strategies_agree_on_planted_instances():
    for seed in range(5):
        inst = gen_planted(60, 5, 30, seed=seed)
        for k in (4, 5, 6):
            decisions = {
                s: decide_vc(inst.graph, k, s).decision for s in ALL_STRATEGIES
            }
            assert len(set(decisions.values())) == 1, decisions
            assert decisions[Strategy.PAPER_FIVE] == (k >= 5)


def test_certificate_size_can_be_below_budget():
    # the first accepted branch on a star takes the center plus one leaf,
    # well under the offered budget
    result = decide_vc(star_graph(6), 4)
    assert result.decision is True
    assert result.certificate == frozenset({0, 1})
    assert len(result.certificate) < 4
    assert verify_cover(star_graph(6), result.certificate)


# -- timeout ----------------------------------------------------------


def test_timeout_raises_and_restores_session():
    # a budget just below tau forces the search to exhaust a large tree
    g = gen_gnm(20, 95, seed=4)
    tau = brute_force_tau(g)
    solver = BranchSolver(g)
    before = session_snapshot(solver)
    with pytest.raises(SolveTimeout):
        solver.decide(tau - 1, time_limit=1e-7)
    assert session_snapshot(solver) == before
    # the session stays usable afterwards
    assert solver.decide(tau).decision is True


def test_spent_time_limit_raises_on_a_small_tree():
    # p3 decides this graph at k=6 in 51 nodes, far fewer than the check
    # interval; the deadline is still read at the first node
    g = _relabeled_planted(1)
    solver = BranchSolver(g, Strategy.CLASSIC_P3)
    assert solver.decide(6).stats.nodes_expanded == 51
    before = session_snapshot(solver)
    with pytest.raises(SolveTimeout, match=r"after 1 nodes$"):
        solver.decide(6, time_limit=0.0)
    assert session_snapshot(solver) == before


class _TickingClock:
    """A stand-in for the time module whose perf_counter advances one
    second per read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


# Trees of 512+ nodes, decided false: (graph, k).  Their searches skip
# over-budget children, so the node count steps over most multiples of
# 256; a deadline check must still land after the first one.
_LARGE_TREES = {
    "planted_n1000": (lambda: gen_planted(1000, 9, 500, 7).graph, 8),
    "planted_n200": (lambda: gen_planted(200, 7, 100, 1).graph, 6),
    "gnm_n18": (lambda: gen_gnm(18, 54, seed=5), 11),
}


@pytest.mark.parametrize(
    "strategy, tree",
    [
        ("paper5", "planted_n1000"),
        ("edge", "planted_n1000"),
        ("paper5", "planted_n200"),
        ("p3", "gnm_n18"),
        ("edge", "gnm_n18"),
    ],
)
def test_zero_time_limit_times_out_large_trees(strategy, tree, monkeypatch):
    build, k = _LARGE_TREES[tree]
    solver = BranchSolver(build(), strategy)
    before = session_snapshot(solver)
    full = solver.decide(k)
    assert full.decision is False
    assert full.stats.nodes_expanded >= 512
    with pytest.raises(SolveTimeout, match=r"after 1 nodes$"):
        solver.decide(k, time_limit=0.0)
    assert session_snapshot(solver) == before
    # decide reads the clock for the deadline and for its start time, and
    # the search then reads it once per check: a limit of 2.5 ticks runs
    # out after the first check and before the second
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "time", _TickingClock())
        with pytest.raises(SolveTimeout) as info:
            solver.decide(k, time_limit=2.5)
    # the second check comes at the first entered node once 256 more
    # nodes have been counted
    match = re.fullmatch(r"time limit exceeded after (\d+) nodes", str(info.value))
    assert 257 <= int(match[1]) < 512
    assert session_snapshot(solver) == before
    again = solver.decide(k)
    assert (again.decision, again.stats.nodes_expanded) == (
        False,
        full.stats.nodes_expanded,
    )


def _interrupt_at_line(n: int):
    """A trace function raising KeyboardInterrupt at the n-th line event
    inside vckit/solver.py, the way an asynchronous Ctrl-C can land
    between any two statements."""
    remaining = n

    def local(frame, event, arg):
        nonlocal remaining
        if event == "line":
            remaining -= 1
            if remaining == 0:
                raise KeyboardInterrupt
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == solver_module.__file__ else None

    return on_call


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_interrupt_at_any_line_restores_session(strategy):
    # a triangle with a pendant edge (tau 2): deciding k=1 walks the whole
    # tree, so the sweep hits every line of the search and of the scans,
    # including halfway through selecting or deselecting a branch
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    solver = BranchSolver(g, strategy)
    before = session_snapshot(solver)
    previous = sys.gettrace()
    n = 0
    while True:
        n += 1
        sys.settrace(_interrupt_at_line(n))
        try:
            solver.decide(1)
        except KeyboardInterrupt:
            pass
        else:
            break
        finally:
            sys.settrace(previous)
        assert session_snapshot(solver) == before, f"interrupt at line event {n}"
        assert solver.decide(2).decision is True
        assert solver.decide(1).decision is False
    assert n > 100


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_real_sigint_during_deep_search_restores_session():
    # 300 disjoint triangles (tau 600): at k=599 the p3 tree is far too
    # large to finish, so the signal lands mid-search; time_limit is only
    # a backstop should it never arrive
    g = Graph(900, [
        e for t in range(0, 900, 3) for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))
    ])
    solver = BranchSolver(g, Strategy.CLASSIC_P3)
    before = session_snapshot(solver)
    old_handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    try:
        timer.start()
        with pytest.raises(KeyboardInterrupt):
            solver.decide(599, time_limit=30.0)
    finally:
        timer.cancel()
        timer.join(5.0)
        signal.signal(signal.SIGINT, old_handler)
    assert not timer.is_alive()
    assert session_snapshot(solver) == before
    # nothing keeps writing to the session after decide() has returned
    time.sleep(0.2)
    assert session_snapshot(solver) == before


def test_no_timeout_when_limit_is_generous():
    result = decide_vc(path_graph(6), 3, time_limit=60.0)
    assert result.decision is True


# -- deep searches ----------------------------------------------------


def test_deep_search_small_components():
    # 2000 disjoint three-vertex paths; the accepting branch descends one
    # component per level, far beyond the default interpreter limit
    g = disjoint_paths_graph(2000)
    result = decide_vc(g, 4000)
    assert result.decision is True
    assert result.stats.max_depth >= 2000
    assert len(result.certificate) <= 4000
    assert verify_cover(g, result.certificate)


def test_deep_search_budget_10000():
    recursion_limit = sys.getrecursionlimit()
    stack_size = threading.stack_size()
    g = disjoint_paths_graph(5000)
    result = decide_vc(g, 10000)
    assert result.decision is True
    assert result.stats.max_depth >= 5000
    assert verify_cover(g, result.certificate)
    # a deep search changes no process-wide state and leaves no thread
    assert sys.getrecursionlimit() == recursion_limit
    assert threading.stack_size() == stack_size
    assert not any(t.name == "vc-deep-search" for t in threading.enumerate())


# -- the LP lower bound -----------------------------------------------


def test_lp_bound_examples():
    assert lp_lower_bound(Graph(4)) == 0
    assert lp_lower_bound(path_graph(3)) == 1
    assert lp_lower_bound(matching_graph(2)) == 2
    assert lp_lower_bound(star_graph(4)) == 1
    # all-halves is optimal on K4 (LP 2) and on C5 (LP 2.5)
    assert lp_lower_bound(complete_graph(4)) == 2
    assert lp_lower_bound(cycle_graph(5)) == 3
    assert lp_lower_bound(petersen_graph()) == 5


def _spy_on_the_seed_cover_check(monkeypatch) -> list:
    """Record what each check of the greedy seed's ends returns."""
    checks = []
    verify = solver_module.verify_cover

    def spy(g, cover):
        checks.append(verify(g, cover))
        return checks[-1]

    monkeypatch.setattr(solver_module, "verify_cover", spy)
    return checks


def test_lp_bound_on_a_long_odd_cycle(monkeypatch):
    # The seed leaves one vertex of C_5001 free, and the one augmenting
    # path of the double cover left to find runs the whole way round it.
    # The seed's ends do not cover the cycle, so the phases run, as on C5.
    checks = _spy_on_the_seed_cover_check(monkeypatch)
    assert lp_lower_bound(cycle_graph(5001)) == 2501
    assert lp_lower_bound(cycle_graph(5)) == 3
    assert checks == [False, False]


def test_lp_bound_is_the_planted_k_from_the_seed_alone(monkeypatch):
    # At the solve_probes shapes the ends the greedy seed was taken
    # toward already cover the graph: a matching and a cover of one
    # size, so the bound is the planted k without a Hopcroft-Karp phase.
    checks = _spy_on_the_seed_cover_check(monkeypatch)
    rng = random.Random(19)
    shapes = [(1000, 6)] * 4 + [(200, 8)] * 4
    for n, k in shapes:
        inst = gen_planted(n, k, round(0.5 * n), rng.randrange(2**32))
        assert lp_lower_bound(inst.graph) == k, (n, k)
    assert checks == [True] * len(shapes)


def _half_integral_lp(g: Graph) -> int:
    """Twice the LP optimum, by trying every assignment in {0, 1/2, 1}^n
    that covers each edge.

    An assignment is a zero set Z and a half set H, bitmasks, with the
    rest at one.  It covers every edge iff no neighbor of Z lies in
    Z or H, so for each Z the feasible H are the subsets of the
    vertices outside Z and its neighborhood.
    """
    n = g.vertex_count
    everyone = (1 << n) - 1
    reach = [0] * (1 << n)  # reach[Z]: the neighbors of Z, as a bitmask
    for z in range(1, 1 << n):
        low = (z & -z).bit_length() - 1
        reach[z] = reach[z & (z - 1)]
        for w in g.neighbors(low):
            reach[z] |= 1 << w
    best = 2 * n
    for z in range(1 << n):
        if reach[z] & z:
            continue
        free = everyone & ~z & ~reach[z]
        h = free
        while True:
            best = min(best, 2 * (n - z.bit_count()) - h.bit_count())
            if h == 0:
                break
            h = (h - 1) & free
    return best


def test_lp_bound_is_the_half_integral_lp_on_the_atlas():
    graphs = [g for g in networkx.graph_atlas_g() if g.number_of_nodes() <= 7]
    assert len(graphs) == 1253
    for nx_graph in graphs:
        g = Graph(nx_graph.number_of_nodes(), list(nx_graph.edges()))
        doubled = _half_integral_lp(g)
        assert lp_lower_bound(g) == (doubled + 1) // 2, nx_graph.name


def _double_cover_matching_size(g: Graph) -> int:
    cover = networkx.Graph()
    left = [("L", u) for u in range(g.vertex_count)]
    cover.add_nodes_from(left)
    cover.add_nodes_from(("R", v) for v in range(g.vertex_count))
    cover.add_edges_from(
        (("L", u), ("R", v)) for u in range(g.vertex_count) for v in g.neighbors(u)
    )
    matching = networkx.bipartite.hopcroft_karp_matching(cover, top_nodes=left)
    return len(matching) // 2  # the dict holds each matched pair twice


@st.composite
def _sparse_graphs(draw, max_vertices):
    """Up to max_vertices vertices and at most 3n edges."""
    n = draw(st.integers(1, max_vertices))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=100, deadline=None)
@given(_sparse_graphs(30))
def test_lp_bound_matches_networkx_on_the_double_cover(g):
    assert lp_lower_bound(g) == (_double_cover_matching_size(g) + 1) // 2


def _maximal_matching_size(g: Graph) -> int:
    matched = set()
    for u, v in g.edges():
        if u not in matched and v not in matched:
            matched.update((u, v))
    return len(matched) // 2


@settings(max_examples=100, deadline=None)
@given(st.one_of(_small_graphs(), _sparse_graphs(12)))
def test_lp_bound_lies_between_a_maximal_matching_and_tau(g):
    bound = lp_lower_bound(g)
    assert _maximal_matching_size(g) <= bound <= brute_force_tau(g)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_small_graphs(9), _sparse_graphs(9)))
def test_lp_bound_is_the_half_integral_lp_on_small_graphs(g):
    # Whichever way it ends, from the seed or after the phases.
    assert lp_lower_bound(g) == (_half_integral_lp(g) + 1) // 2


# -- min_vertex_cover -------------------------------------------------


def test_min_cover_named_graphs():
    size, cover, _ = min_vertex_cover(star_graph(4))
    assert (size, cover) == (1, frozenset({0}))
    assert min_vertex_cover(cycle_graph(5)).size == 3
    assert min_vertex_cover(petersen_graph()).size == 6
    empty_result = min_vertex_cover(Graph(7))
    assert (empty_result.size, empty_result.cover) == (0, frozenset())


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_min_cover_matches_oracle(strategy):
    rng = random.Random(4096 + ALL_STRATEGIES.index(strategy))
    for trial in range(15):
        n = rng.randrange(1, 12)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        size, cover, stats = min_vertex_cover(g, strategy)
        assert size == brute_force_tau(g)
        assert len(cover) == size
        assert verify_cover(g, cover)
        assert stats.nodes_expanded >= 1
        assert stats.max_depth <= size + 1


def test_min_cover_merges_stats_across_probes():
    # K4 probes k=2 (its LP bound) then k=3; both trees count
    g = complete_graph(4)
    assert lp_lower_bound(g) == 2
    total = min_vertex_cover(g).stats
    first = decide_vc(g, 2).stats
    second = decide_vc(g, 3).stats
    assert total.nodes_expanded == first.nodes_expanded + second.nodes_expanded
    assert total.max_depth == max(first.max_depth, second.max_depth)
    assert total.triplet_scans == first.triplet_scans + second.triplet_scans


def test_results_are_immutable_named_tuples():
    result = decide_vc(path_graph(3), 1)
    decision, certificate, stats = result
    assert (decision, certificate) == (True, frozenset({1}))
    assert list(stats._asdict()) == [
        "nodes_expanded", "max_depth", "triplet_scans", "elapsed_ms"
    ]
    with pytest.raises(AttributeError):
        stats.nodes_expanded = 0
    assert stats._replace(elapsed_ms=0.0).nodes_expanded == stats.nodes_expanded
    assert issubclass(SolveTimeout, TimeoutError) and issubclass(SolveTimeout, OSError)


def _probe_graphs():
    yield "C5", cycle_graph(5), 3
    rng = random.Random(5)
    for n, k in ((1000, 6), (1000, 6), (200, 8), (200, 8)):
        inst = gen_planted(n, k, round(0.5 * n), rng.randrange(2**32))
        yield f"planted n={n} k={k}", inst.graph, k


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_min_cover_is_one_probe_at_tau(strategy):
    # The LP bound is already tau here, so solving costs exactly the
    # search that decides at tau and no failing probe below it.
    for name, g, tau in _probe_graphs():
        total = min_vertex_cover(g, strategy).stats
        single = decide_vc(g, tau, strategy).stats
        observed = (total.nodes_expanded, total.max_depth, total.triplet_scans)
        expected = (single.nodes_expanded, single.max_depth, single.triplet_scans)
        assert observed == expected, name


def test_min_cover_respects_time_limit():
    g = gen_gnm(24, 150, seed=12)
    with pytest.raises(SolveTimeout):
        min_vertex_cover(g, time_limit=1e-7)
