"""DIMACS parsing, canonical writing, and the round-trip guarantee."""

from __future__ import annotations

import random

import pytest

from vckit import (
    DimacsError,
    DimacsFormatWarning,
    Graph,
    gen_gnm,
    parse_dimacs,
    read_dimacs_file,
    write_dimacs,
    write_dimacs_file,
)


def test_parse_basic():
    g = parse_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.vertex_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_bytes_input():
    g = parse_dimacs(b"p edge 2 1\ne 1 2\n")
    assert g.edge_count == 1


def test_parse_collapses_duplicates_with_warning():
    text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n"
    with pytest.warns(DimacsFormatWarning, match="declares 3 edges, found 2"):
        g = parse_dimacs(text)
    assert g.edge_count == 2


def test_parse_ignores_blank_lines_and_whitespace():
    g = parse_dimacs("\n  p edge 2 1  \n\n   e 1 2\n\n")
    assert g.edge_count == 1


def test_edge_before_problem_line():
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("e 1 2\np edge 2 1\n")


def test_missing_problem_line():
    with pytest.raises(DimacsError, match="missing problem line"):
        parse_dimacs("c nothing here\n")


def test_duplicate_problem_line():
    with pytest.raises(DimacsError, match="line 2: duplicate"):
        parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n")


def test_malformed_problem_line():
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("p edge 2\n")
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("p col 2 1\n")
    with pytest.raises(DimacsError, match="non-integer"):
        parse_dimacs("p edge two 1\n")


def test_vertex_id_out_of_range():
    with pytest.raises(DimacsError, match=r"line 2: vertex id outside 1\.\.3"):
        parse_dimacs("p edge 3 1\ne 1 4\n")
    with pytest.raises(DimacsError, match="line 2"):
        parse_dimacs("p edge 3 1\ne 0 1\n")


def test_self_loop_rejected():
    with pytest.raises(DimacsError, match=r"line 2: self-loop"):
        parse_dimacs("p edge 3 1\ne 2 2\n")


def test_unrecognized_line_type():
    with pytest.raises(DimacsError, match="line 2: unrecognized"):
        parse_dimacs("p edge 2 1\nx 1 2\n")


def test_malformed_edge_line():
    with pytest.raises(DimacsError, match="line 2"):
        parse_dimacs("p edge 2 1\ne 1\n")
    with pytest.raises(DimacsError, match="non-integer"):
        parse_dimacs("p edge 2 1\ne 1 b\n")


def test_write_canonical():
    g = Graph(3, [(1, 2), (0, 1)])
    assert write_dimacs(g) == "p edge 3 2\ne 1 2\ne 2 3\n"


def test_write_edgeless():
    assert write_dimacs(Graph(2)) == "p edge 2 0\n"


def test_write_with_comments_round_trips():
    g = Graph(4, [(0, 3), (1, 2)])
    text = write_dimacs(g, comments=("made for a test", "two lines\nof comment"))
    assert text.startswith("c made for a test\n")
    assert "c of comment\n" in text
    assert parse_dimacs(text) == g


def test_file_round_trip(tmp_path):
    g = gen_gnm(9, 14, seed=5)
    path = tmp_path / "g.col"
    write_dimacs_file(g, path)
    assert read_dimacs_file(path) == g


def test_round_trip_random_graphs():
    rng = random.Random(271828)
    for trial in range(50):
        n = rng.randrange(1, 51)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        assert parse_dimacs(write_dimacs(g)) == g


def test_parse_any_line_order_equals_graph_of_distinct_edges():
    # Graph, not the parser, dedups and orders: shuffled, reversed and
    # repeated e lines give the same Graph and the distinct count.
    rng = random.Random(4242)
    for trial in range(30):
        n = rng.randrange(2, 30)
        m = rng.randrange(1, n * (n - 1) // 2 + 1)
        distinct = list(gen_gnm(n, m, seed=rng.randrange(2**32)).edges())
        lines = distinct + [(v, u) for u, v in distinct]
        lines += rng.sample(distinct, rng.randrange(1, m + 1))
        rng.shuffle(lines)
        text = f"p edge {n} {len(lines)}\n" + "".join(
            f"e {u + 1} {v + 1}\n" for u, v in lines
        )
        with pytest.warns(
            DimacsFormatWarning, match=f"declares {len(lines)} edges, found {m} distinct"
        ):
            g = parse_dimacs(text)
        assert g == Graph(n, distinct)
        assert g.edge_count == m
