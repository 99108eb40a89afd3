"""Planted-cover and G(n,m) generators: structure, determinism, errors."""

from __future__ import annotations

import hashlib
import random

import pytest

from vckit import Graph, GraphError, brute_force_tau, gen_gnm, gen_planted
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
        assert all(len(g.neighbors(v)) == 3 for v in range(g.vertex_count))


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


# SHA-256 of write_dimacs(graph, ["cover <ids>"]) for planted instances,
# and of write_dimacs(graph) for G(n, m) graphs.  A change to the draw
# order, the rejection rule or the writer changes these bytes.
_PLANTED_DIGESTS = {
    # the solve_probes shapes
    (1000, 6, 500, 1): "60dc2cc863c1af923752ef8fef2764191788b12c6076ea3f5f3b984d00ff9022",
    (1000, 6, 500, 2): "9146cc1a9add7e6a7528e3fa67705f1b2240bdd40cc77fc79d10ff5050fb3aea",
    (200, 8, 100, 3): "638bbfe7761be2dcd405d003236652204170c4c03b5c23c3d4fa9423f6ae3338",
    # the large_easy shape
    (20000, 20, 50000, 1): "615dfcffd5623e1541c9def74b97052e3e1652b6213d1b467661899b75710df8",
    # the golden-tree shape
    (200, 6, 100, 1): "c4847bcc9d3cb5eb8cf3fa671745453408f3cbc2c34fe5c522122509bc7ad45f",
    # saturated extra edges, then k = 1 saturated and not
    (6, 2, 7, 0): "ed12f71d1aa7665a0d38eae77f522c2750fe6126b0a59cd9927b69b257629b78",
    (10, 1, 8, 5): "f47d45516ad98ac507265cb3f0a7b367386205185306fd3f2151ab32b90edd53",
    (50, 1, 20, 9): "2f6ef4ea7f348afe504cd7606bb891f68aa7d30a0eb18cb6ade6e264d280bb8a",
}
_GNM_DIGESTS = {
    (100, 300, 4): "1087d8dcf10fceb112c0886b9feb3d46837e4f62f607831b48542d0070a4d05c",
    # m above half of the 435 pairs: the complement is sampled
    (30, 400, 5): "31d7c1ed18f7d939751d7486d900d874ecb1116708b3828794d9f1a7e074d550",
    (0, 0, 6): "b18efc2666c663cba2fb1c2b37a5a0c8c18a8489374194e7415afccd6fe2d355",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("params", sorted(_PLANTED_DIGESTS))
def test_planted_output_pinned(params):
    inst = gen_planted(*params)
    cover = " ".join(map(str, sorted(inst.planted_cover)))
    text = dimacs.write_dimacs(inst.graph, [f"cover {cover}"])
    assert _sha256(text) == _PLANTED_DIGESTS[params]


@pytest.mark.parametrize("params", sorted(_GNM_DIGESTS))
def test_gnm_output_pinned(params):
    assert _sha256(dimacs.write_dimacs(gen_gnm(*params))) == _GNM_DIGESTS[params]


# The generators' sampling written plainly with randrange: the reference
# that the generators must equal draw for draw.
def _reference_planted_edges(n, k, extra_edges, seed):
    rng = random.Random(seed)
    edge_set = {(i, k + i) for i in range(k)}
    for _ in range(extra_edges):
        while True:
            c = rng.randrange(k)
            o = rng.randrange(n)
            if o == c:
                continue
            edge = (c, o) if c < o else (o, c)
            if edge in edge_set:
                continue
            edge_set.add(edge)
            break
    return edge_set


def _reference_gnm_edges(n, m, seed):
    def sample_pairs(count):
        pairs = set()
        while len(pairs) < count:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            pairs.add((u, v) if u < v else (v, u))
        return pairs

    rng = random.Random(seed)
    total = n * (n - 1) // 2
    if m <= total // 2:
        return sample_pairs(m)
    excluded = sample_pairs(total - m)
    return {(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in excluded}


def test_draw_rule_is_randrange():
    # the generators' draw below b is randrange(b) on this interpreter
    for b in (1, 2, 3, 20, 2**15, 20000, dimacs.MAX_VERTICES):
        for seed in range(3):
            rng = random.Random(seed)
            getrandbits = random.Random(seed).getrandbits
            for _ in range(50):
                r = getrandbits(b.bit_length())
                while r >= b:
                    r = getrandbits(b.bit_length())
                assert r == rng.randrange(b), (b, seed)


def test_generators_equal_the_randrange_reference():
    rng = random.Random(2024)
    for trial in range(100):
        k = rng.choice((1, 1, 2, 3, rng.randrange(1, 12)))
        n = 2 * k if trial % 4 == 0 else rng.randrange(2 * k, 2 * k + 60)
        available = k * (k - 1) // 2 + k * (n - k) - k
        extra = available if trial % 5 == 0 else rng.randrange(0, available + 1)
        seed = rng.randrange(2**64)
        expected = _reference_planted_edges(n, k, extra, seed)
        assert gen_planted(n, k, extra, seed).graph == Graph(n, expected)
    for trial in range(100):
        n = rng.randrange(0, 40)
        total = n * (n - 1) // 2
        # odd trials take the sampled path (m <= total // 2), even ones
        # mostly the complement
        half = total // 2
        m = rng.randrange(0, half + 1) if trial % 2 else rng.randrange(half, total + 1)
        seed = rng.randrange(2**64)
        assert gen_gnm(n, m, seed) == Graph(n, _reference_gnm_edges(n, m, seed))
