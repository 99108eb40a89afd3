"""The exhaustive oracle itself, cross-checked by a second exhaustion."""

from __future__ import annotations

import random

import pytest

from vckit import Graph, brute_force_tau, gen_gnm, verify_cover

from graphutil import complete_graph, cycle_graph, path_graph, petersen_graph


def test_verify_cover_basics():
    k3 = complete_graph(3)
    assert verify_cover(k3, {0, 1})
    assert not verify_cover(k3, {0})
    assert verify_cover(k3, {0, 1, 2})
    assert verify_cover(Graph(4), set())
    assert not verify_cover(path_graph(2), set())
    p3 = path_graph(3)
    assert not verify_cover(p3, set())
    assert verify_cover(p3, {1})
    assert not verify_cover(p3, {0})  # {1,2} still uncovered


def test_verify_cover_rejects_bad_ids():
    g = path_graph(3)
    with pytest.raises(ValueError, match="vertex id 3"):
        verify_cover(g, {1, 3})
    with pytest.raises(ValueError, match="vertex id -1"):
        verify_cover(g, {-1})


def test_verify_cover_accepts_any_iterable():
    g = path_graph(4)
    assert verify_cover(g, [1, 2])
    assert verify_cover(g, (1, 2, 2))


def test_tau_of_named_graphs():
    assert brute_force_tau(Graph(1)) == 0
    assert brute_force_tau(Graph(6)) == 0
    assert brute_force_tau(path_graph(2)) == 1
    assert brute_force_tau(path_graph(3)) == 1
    assert brute_force_tau(complete_graph(3)) == 2
    assert brute_force_tau(complete_graph(6)) == 5
    assert brute_force_tau(cycle_graph(5)) == 3
    assert brute_force_tau(petersen_graph()) == 6


def test_tau_vertex_limit():
    with pytest.raises(ValueError, match="limited to 30"):
        brute_force_tau(Graph(31))
    assert brute_force_tau(Graph(30)) == 0


def _tau_by_full_bitmask(g: Graph) -> int:
    """Independent second exhaustion: try all 2^n subsets."""
    n = g.vertex_count
    edges = list(g.edges())
    best = n
    for mask in range(1 << n):
        members = {v for v in range(n) if mask >> v & 1}
        if len(members) >= best:
            continue
        if all(u in members or v in members for u, v in edges):
            best = len(members)
    return best


def test_tau_agrees_with_full_subset_scan():
    rng = random.Random(31337)
    for trial in range(30):
        n = rng.randrange(1, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        assert brute_force_tau(g) == _tau_by_full_bitmask(g)


def test_tau_monotone_under_edge_deletion():
    rng = random.Random(555)
    for trial in range(25):
        n = rng.randrange(2, 12)
        m = rng.randrange(1, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        edges = list(g.edges())
        if not edges:
            continue
        drop = rng.choice(edges)
        smaller = Graph(n, [e for e in edges if e != drop])
        assert brute_force_tau(smaller) <= brute_force_tau(g)
