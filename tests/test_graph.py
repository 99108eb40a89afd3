"""Graph construction, validation, and the edge iterator."""

from __future__ import annotations

import random

import pytest

from vckit import Graph, GraphError, gen_gnm

from graphutil import check_graph, complete_graph, path_graph


def test_path_construction():
    g = Graph(3, [(1, 2), (1, 0)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.neighbors(1) == (0, 2)
    assert len(g.neighbors(0)) == 1
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_duplicate_and_reversed_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert list(g.edges()) == [(0, 1)]


def test_self_loop_rejected():
    with pytest.raises(GraphError, match=r"\(2, 2\)"):
        Graph(5, [(0, 1), (2, 2)])


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphError, match=r"\(1, 5\)"):
        Graph(3, [(1, 5)])
    with pytest.raises(GraphError, match=r"\(-1, 0\)"):
        Graph(3, [(-1, 0)])


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphError):
        Graph(-1)


def test_empty_graph():
    g = Graph(0)
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert list(g.edges()) == []


def test_edgeless_graph():
    g = Graph(4)
    assert g.edge_count == 0
    assert all(len(g.neighbors(v)) == 0 for v in range(g.vertex_count))


def test_has_edge():
    g = path_graph(4)
    assert g.has_edge(1, 2)
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(-1, 0)
    assert not g.has_edge(4, 3)  # u out of range
    # v beside, below, above and outside the sorted neighbors of u
    star = Graph(6, [(2, 1), (2, 3), (2, 4)])
    assert [star.has_edge(2, v) for v in range(-1, 7)] == [
        False, False, True, False, True, True, False, False,
    ]
    assert not star.has_edge(0, -1)


def test_equality():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (1, 0)])
    c = Graph(3, [(0, 1)])
    assert a == b
    assert a != c
    assert a != Graph(4, [(0, 1), (1, 2)])


def test_edges_sorted_ascending():
    g = Graph(5, [(3, 4), (0, 2), (1, 2), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_complete_graph_counts():
    g = complete_graph(6)
    assert g.edge_count == 15
    assert all(len(g.neighbors(v)) == 5 for v in range(g.vertex_count))


def test_random_graphs_satisfy_invariants():
    rng = random.Random(1810)
    for trial in range(60):
        n = rng.randrange(1, 40)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        check_graph(g)
        assert g.edge_count == m
        # edge iterator agrees with the adjacency tuples
        listed = list(g.edges())
        assert len(listed) == m
        assert len(set(listed)) == m
        for u, v in listed:
            assert u < v
            assert v in g.neighbors(u)
            assert u in g.neighbors(v)
        assert sum(len(g.neighbors(v)) for v in range(g.vertex_count)) == 2 * m
        # has_edge's binary search agrees with a plain membership test
        for u in range(g.vertex_count):
            nbrs = g.neighbors(u)
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            for v in range(g.vertex_count):
                assert g.has_edge(u, v) == g.has_edge(v, u) == (v in nbrs)
