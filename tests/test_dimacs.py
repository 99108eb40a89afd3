"""DIMACS parsing, canonical writing, and the round-trip guarantee."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from vckit import (
    DimacsError,
    DimacsFormatWarning,
    Graph,
    gen_gnm,
    gen_planted,
    parse_dimacs,
    read_dimacs_file,
    write_dimacs,
    write_dimacs_file,
)
from vckit import dimacs
from vckit.dimacs import MAX_VERTICES


def test_parse_basic():
    g = parse_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.vertex_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_bytes_input():
    g = parse_dimacs(b"p edge 2 1\ne 1 2\n")
    assert g.edge_count == 1


def test_parse_collapses_duplicates_with_warning():
    text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n"
    with pytest.warns(DimacsFormatWarning) as record:
        g = parse_dimacs(text)
    assert [str(w.message) for w in record] == [
        "problem line declares 3 edges, found 2 distinct"
    ]
    assert record[0].filename == __file__  # reported at the caller
    assert g.edge_count == 2


def test_parse_ignores_blank_lines_and_whitespace():
    g = parse_dimacs("\n  p edge 2 1  \n\n   e 1 2\n\n")
    assert g.edge_count == 1


def _error(text: str) -> tuple[str, int | None]:
    """The full message and line number of the DimacsError text raises."""
    with pytest.raises(DimacsError) as info:
        parse_dimacs(text)
    return str(info.value), info.value.line


def test_edge_before_problem_line():
    assert _error("e 1 2\np edge 2 1\n") == (
        "line 1: edge line before problem line", 1
    )


def test_missing_problem_line():
    assert _error("c nothing here\n") == ("missing problem line", None)


def test_duplicate_problem_line():
    assert _error("p edge 2 1\np edge 2 1\ne 1 2\n") == (
        "line 2: duplicate problem line", 2
    )


def test_malformed_problem_line():
    shape = "line 1: problem line must be 'p edge <n> <m>'"
    assert _error("p edge 2\n") == (shape, 1)
    assert _error("p col 2 1\n") == (shape, 1)
    assert _error("p edge two 1\n") == (
        "line 1: non-integer field in problem line: 'p edge two 1'", 1
    )
    assert _error("p edge 2 -1\n") == ("line 1: negative count in problem line", 1)


def test_declared_vertex_count_above_limit():
    # rejected at the problem line, before a Graph of that size is built
    n = MAX_VERTICES + 1
    assert _error(f"c header\np edge {n} 0\n") == (
        f"line 2: problem line declares {n} vertices, "
        f"more than the {MAX_VERTICES} accepted",
        2,
    )


def test_vertex_id_out_of_range():
    assert _error("p edge 3 1\ne 1 4\n") == (
        "line 2: vertex id outside 1..3 in edge (1, 4)", 2
    )
    assert _error("p edge 3 1\ne 0 1\n") == (
        "line 2: vertex id outside 1..3 in edge (0, 1)", 2
    )


def test_self_loop_rejected():
    assert _error("p edge 3 1\ne 2 2\n") == ("line 2: self-loop edge (2, 2)", 2)
    # after valid edges, with comments, blank lines and odd whitespace
    assert _error("c hdr\n\np edge 3 2\n  e 1 2 \t\ne 3 3\n") == (
        "line 5: self-loop edge (3, 3)", 5
    )


def test_unrecognized_line_type():
    assert _error("p edge 2 1\nx 1 2\n") == (
        "line 2: unrecognized line type 'x'", 2
    )


def test_malformed_edge_line():
    assert _error("p edge 2 1\ne 1\n") == (
        "line 2: edge line must be 'e <u> <v>'", 2
    )
    assert _error("p edge 2 1\ne 1 b\n") == (
        "line 2: non-integer vertex id in edge line: 'e 1 b'", 2
    )


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


def test_parse_any_line_order_equals_graph_of_distinct_edges(monkeypatch):
    # Graph, not the parser, dedups and orders: shuffled, reversed and
    # repeated e lines give the same Graph and the distinct count, with
    # any whitespace around and inside the e lines, c and blank lines
    # between them, and \n or \r\n line endings; at the real block size
    # and at one small enough to split every text into many blocks.
    pads = ("", " ", "\t", " \t ")
    seps = (" ", "\t", "  ", " \t")
    fillers = ("c between edges", "  c\tindented", "c", "", "   ", "\t")
    for block in (dimacs._BLOCK_CHARS, 7):
        monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
        rng = random.Random(4242)
        for trial in range(30):
            n = rng.randrange(2, 30)
            m = rng.randrange(1, n * (n - 1) // 2 + 1)
            distinct = list(gen_gnm(n, m, seed=rng.randrange(2**32)).edges())
            lines = distinct + [(v, u) for u, v in distinct]
            lines += rng.sample(distinct, rng.randrange(1, m + 1))
            rng.shuffle(lines)
            layout = [f"p edge {n} {len(lines)}"]
            for u, v in lines:
                if rng.random() < 0.2:
                    layout.append(rng.choice(fillers))
                sep = rng.choice(seps)
                layout.append(
                    f"{rng.choice(pads)}e{sep}{u + 1}{sep}{v + 1}{rng.choice(pads)}"
                )
            eol = rng.choice(("\n", "\r\n"))
            text = eol.join(layout) + eol
            with pytest.warns(
                DimacsFormatWarning,
                match=f"declares {len(lines)} edges, found {m} distinct",
            ):
                g = parse_dimacs(text)
            assert g == Graph(n, distinct)
            assert g.edge_count == m


@pytest.mark.parametrize("block", [1, 3, 7])
def test_block_lines_equal_splitlines(monkeypatch, block):
    # a block ends just after a \n, so no line, not even \r\n, is cut
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
    rng = random.Random(block)
    pieces = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
              "\n\n", "e 1 2", "c x", "p", "  ")
    texts = ["", "\n", "\r\n\r\n", "\r only\rendings\r", "unterminated", "a\nb"]
    for _ in range(300):
        texts.append("".join(rng.choice(pieces) for _ in range(rng.randrange(40))))
    for text in texts:
        assert list(dimacs._lines(text)) == text.splitlines(), repr(text)


def test_error_line_number_in_a_later_block(monkeypatch):
    # at 7 characters a block: lines 1-2, then 3-4, then 5-6
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", 7)
    text = "c a\rc b\nc c\r\np edge 3 1\ne 1 2\re 2 2\ne 1 3\n"
    assert _error(text) == ("line 6: self-loop edge (2, 2)", 6)


def _graph_bytes(g: Graph) -> int:
    """The sizes of the objects a Graph holds: its tuples and their ints.

    Counted from the objects, not as tracemalloc's current size after a
    parse, which misses every tuple CPython hands out from its free
    lists without a fresh allocation.
    """
    adj = g.sorted_adjacency
    held = {id(a): a for a in adj}
    held.update((id(v), v) for a in adj for v in a)
    return sys.getsizeof(adj) + sum(map(sys.getsizeof, held.values()))


def test_parse_peak_within_twice_the_graph():
    # edge lines go straight into neighbor lists, one block of lines at
    # a time: no list of all lines or of all edges is ever alive
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    text = write_dimacs(gen_planted(8000, 20, 20000, 7).graph)
    tracemalloc.start()
    try:
        g = parse_dimacs(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _graph_bytes(g), (peak, _graph_bytes(g))
