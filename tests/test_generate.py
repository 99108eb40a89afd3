"""Planted-cover and G(n,m) generators: structure, determinism, errors."""

from __future__ import annotations

import random

import pytest

from vckit import GraphError, brute_force_tau, gen_gnm, gen_planted
from vckit import dimacs, generate

from graphutil import check_graph


def test_planted_zero_extra_is_a_matching():
    inst = gen_planted(6, 2, 0, seed=11)
    assert list(inst.graph.edges()) == [(0, 2), (1, 3)]
    assert inst.planted_k == 2
    assert inst.planted_cover == frozenset({0, 1})
    assert inst.seed == 11


def test_planted_structure_invariants():
    rng = random.Random(4242)
    for trial in range(40):
        k = rng.randrange(1, 8)
        n = rng.randrange(2 * k, 2 * k + 30)
        available = k * (k - 1) // 2 + k * (n - k) - k
        extra = rng.randrange(0, min(available, 3 * n) + 1)
        inst = gen_planted(n, k, extra, seed=rng.randrange(2**32))
        g = inst.graph
        check_graph(g)
        cover = inst.planted_cover
        assert cover == frozenset(range(k))
        assert g.edge_count == k + extra
        # the matching is present
        for i in range(k):
            assert g.has_edge(i, k + i)
        # every edge touches the cover, so the cover is a vertex cover
        for u, v in g.edges():
            assert u in cover or v in cover


def test_planted_tau_matches_planted_k():
    # exhaustive enumeration confirms the construction pins tau exactly
    rng = random.Random(99)
    for trial in range(20):
        k = rng.randrange(1, 5)
        n = rng.randrange(2 * k, 17)
        available = k * (k - 1) // 2 + k * (n - k) - k
        extra = rng.randrange(0, available + 1)
        inst = gen_planted(n, k, extra, seed=rng.randrange(2**32))
        assert brute_force_tau(inst.graph) == k


def test_planted_deterministic():
    a = gen_planted(40, 6, 25, seed=123)
    b = gen_planted(40, 6, 25, seed=123)
    assert a.graph == b.graph
    assert gen_planted(40, 6, 25, seed=124).graph != a.graph


def test_planted_extra_edges_saturated():
    # n=6, k=2: available = 1 + 8 - 2 = 7 extra edges; ask for all of them
    inst = gen_planted(6, 2, 7, seed=0)
    assert inst.graph.edge_count == 9
    assert brute_force_tau(inst.graph) == 2


def test_planted_parameter_errors():
    with pytest.raises(GraphError, match="2k <= n"):
        gen_planted(5, 3, 0, seed=1)
    with pytest.raises(GraphError, match="k must be >= 1"):
        gen_planted(5, 0, 0, seed=1)
    with pytest.raises(GraphError, match="extra_edges"):
        gen_planted(6, 2, -1, seed=1)
    with pytest.raises(GraphError, match="exceeds the 7"):
        gen_planted(6, 2, 8, seed=1)
    with pytest.raises(GraphError, match="seed"):
        gen_planted(6, 2, 0, seed=-1)
    with pytest.raises(GraphError, match="seed"):
        gen_planted(6, 2, 0, seed=2**64)


def test_gnm_exact_edge_count_and_validity():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(1, 30)
        total = n * (n - 1) // 2
        m = rng.randrange(0, total + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        check_graph(g)
        assert g.vertex_count == n
        assert g.edge_count == m


def test_gnm_complete_graph_any_seed():
    for seed in (0, 1, 17, 2**40):
        g = gen_gnm(4, 6, seed)
        assert g.edge_count == 6
        assert all(g.degree(v) == 3 for v in g.vertices())


def test_gnm_deterministic():
    assert gen_gnm(25, 60, seed=9) == gen_gnm(25, 60, seed=9)
    assert gen_gnm(25, 60, seed=9) != gen_gnm(25, 60, seed=10)


def test_gnm_parameter_errors():
    with pytest.raises(GraphError, match="exceeds"):
        gen_gnm(4, 7, seed=1)
    with pytest.raises(GraphError, match="m must be >= 0"):
        gen_gnm(4, -1, seed=1)
    with pytest.raises(GraphError, match="n must be >= 0"):
        gen_gnm(-2, 0, seed=1)


def test_generators_refuse_more_vertices_than_the_parser_accepts(monkeypatch):
    monkeypatch.setattr(dimacs, "MAX_VERTICES", 50)
    assert gen_planted(50, 2, 10, seed=1).graph.vertex_count == 50
    assert gen_gnm(50, 10, seed=1).vertex_count == 50
    # refused before any sampling: the generators' random module is gone
    monkeypatch.setattr(generate, "random", None)
    with pytest.raises(GraphError, match="n=51 is more than the 50"):
        gen_planted(51, 2, 10, seed=1)
    with pytest.raises(GraphError, match="n=51 is more than the 50"):
        gen_gnm(51, 10, seed=1)


def test_gnm_empty_cases():
    assert gen_gnm(0, 0, seed=3).vertex_count == 0
    assert gen_gnm(5, 0, seed=3).edge_count == 0
