"""DIMACS parsing, canonical writing, and the round-trip guarantee."""

from __future__ import annotations

import io
import random
import sys
import tracemalloc
import warnings

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


@pytest.mark.parametrize("block", [dimacs._BLOCK_CHARS, 7])
def test_in_order_block_with_an_id_out_of_range(monkeypatch, block):
    # A block in order checks only its ends, its first u and its largest
    # v; either one out of range sends the block line by line, which
    # names the line.
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
    assert _error("p edge 4 3\ne 0 1\ne 1 2\ne 2 3\n") == (
        "line 2: vertex id outside 1..4 in edge (0, 1)", 2
    )
    assert _error("p edge 4 3\ne 1 2\ne 2 5\ne 3 4\n") == (
        "line 3: vertex id outside 1..4 in edge (2, 5)", 3
    )
    assert _error("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 3 5\n") == (
        "line 5: vertex id outside 1..4 in edge (3, 5)", 5
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
    path.write_text(write_dimacs(g))
    assert read_dimacs_file(path) == g


def test_round_trip_random_graphs():
    rng = random.Random(271828)
    for trial in range(50):
        n = rng.randrange(1, 51)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gen_gnm(n, m, seed=rng.randrange(2**32))
        assert parse_dimacs(write_dimacs(g)) == g


def _reference_edges(g):
    """Every adjacency entry read in turn, keeping those with v > u."""
    return [(u, v) for u in range(g.vertex_count) for v in g.neighbors(u) if v > u]


def _reference_write(g, comments=()):
    lines = []
    for comment in comments:
        for part in str(comment).splitlines() or [""]:
            lines.append(f"c {part}".rstrip())
    lines.append(f"p edge {g.vertex_count} {g.edge_count}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in _reference_edges(g))
    return "\n".join(lines) + "\n"


def test_edges_and_write_equal_the_per_entry_loops():
    inst = gen_planted(300, 6, 150, seed=8)
    perm = list(range(300))
    random.Random(8).shuffle(perm)
    relabeled = Graph(300, [(perm[u], perm[v]) for u, v in inst.graph.edges()])
    graphs = [
        (Graph(0), ()),
        (Graph(1), ()),
        # isolated vertices at both ends and in the middle
        (Graph(9, [(1, 4), (4, 7), (2, 4)]), ()),
        # star centers: the last vertex's neighbors are all lower, the
        # first's all higher
        (Graph(6, [(5, i) for i in range(5)]), ()),
        (Graph(6, [(0, i) for i in range(1, 6)]), ()),
        (Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]), ()),
        (relabeled, ("relabeled planted", "n=300 k=6\nseed 8")),
    ]
    for g, comments in graphs:
        assert list(g.edges()) == _reference_edges(g)
        text = write_dimacs(g, comments)
        assert text == _reference_write(g, comments)
        assert parse_dimacs(text) == g


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


def test_header_alone_allocates_no_vertex_ids():
    # the table of vertex ids grows with the ids edge lines name, not at
    # the problem line, so a header alone costs an empty list per vertex
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    n = 50_000
    tracemalloc.start()
    try:
        g = parse_dimacs(f"p edge {n} 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count == n
    assert peak <= 70 * n, peak / n


def test_read_file_never_holds_the_text(tmp_path):
    # read a block at a time, a file peaks below the parse of its whole
    # text by about the size of that text, less the stream's own buffers
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    path = tmp_path / "g.col"
    path.write_text(write_dimacs(gen_planted(8000, 20, 20000, 7).graph))
    size = path.stat().st_size
    peaks = []
    for read in (read_dimacs_file, lambda p: parse_dimacs(p.read_text())):
        tracemalloc.start()
        try:
            read(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] >= 0.75 * size, (peaks, size)


@pytest.mark.parametrize("shape", ["ordered", "shuffled", "comments"])
def test_one_int_object_per_vertex(shape):
    # every neighbor entry of a vertex is the same int object, from the
    # bulk path (ordered or not) and from the per-line rule alike
    n = 1000
    text = write_dimacs(gen_gnm(n, 4 * n, seed=9))
    head, body = text.split("\n", 1)
    lines = body.splitlines()
    if shape != "ordered":
        random.Random(9).shuffle(lines)
    if shape == "comments":
        lines[::50] = [f"c {line}" for line in lines[::50]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DimacsFormatWarning)
        g = parse_dimacs(head + "\n" + "\n".join(lines) + "\n")
    entries = [v for a in g.sorted_adjacency for v in a]
    assert len(entries) > 2 * n
    assert len({id(v) for v in entries}) <= n


def _reference_parse(text: str) -> Graph:
    """The plain per-line parse: every line of text.splitlines() in turn.

    No blocks, no bulk path and no ordered case: each edge line is
    checked on its own, and the Graph comes from the public constructor
    over all the edges.  parse_dimacs must agree with it on every text.
    """
    n = None
    declared_m = 0
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if n is None:
                raise DimacsError("edge line before problem line", lineno)
            if len(fields) != 3:
                raise DimacsError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(
                    f"non-integer vertex id in edge line: {raw.strip()!r}", lineno
                ) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise DimacsError(f"vertex id outside 1..{n} in edge ({u}, {v})", lineno)
            if u == v:
                raise DimacsError(f"self-loop edge ({u}, {v})", lineno)
            edges.append((u - 1, v - 1))
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if n is not None:
                raise DimacsError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError("problem line must be 'p edge <n> <m>'", lineno)
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(
                    f"non-integer field in problem line: {raw.strip()!r}", lineno
                ) from None
            if n < 0 or declared_m < 0:
                raise DimacsError("negative count in problem line", lineno)
            if n > MAX_VERTICES:
                raise DimacsError(
                    f"problem line declares {n} vertices, more than the "
                    f"{MAX_VERTICES} accepted",
                    lineno,
                )
        else:
            raise DimacsError(f"unrecognized line type {tag!r}", lineno)
    if n is None:
        raise DimacsError("missing problem line")
    g = Graph(n, edges)
    if declared_m != g.edge_count:
        warnings.warn(
            f"problem line declares {declared_m} edges, found {g.edge_count} distinct",
            DimacsFormatWarning,
        )
    return g


def _outcome(parse, text: str):
    """What parse makes of text: its Graph, or its DimacsError's message
    and line; and the category, text and reported file of each warning
    it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except DimacsError as exc:
            result = (str(exc), exc.line)
    return result, [(w.category, str(w.message), w.filename) for w in caught]


# The line breaks of str.splitlines() besides \n and \r\n.
_OTHER_BREAKS = (
    "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)


def _respell(rng: random.Random, vertex_id: int) -> str:
    """vertex_id as int() also reads it: +1, 01 or 1_0."""
    text = str(vertex_id)
    forms = [f"+{text}", f"0{text}"]
    if len(text) > 1:
        forms.append(f"{text[0]}_{text[1:]}")
    return rng.choice(forms)


def _differential_text(rng: random.Random, n: int, m: int) -> str:
    """A DIMACS text for gen_gnm(n, m) whose edge lines are in order,
    shuffled, or shuffled with repeats and reversals, then, each with
    some chance, dressed in comments, blank lines, odd whitespace, odd
    line breaks, odd spellings of ids and malformed lines."""
    distinct = list(gen_gnm(n, m, seed=rng.randrange(2**32)).edges())
    pairs = [(u + 1, v + 1) for u, v in distinct]
    shape = rng.choice(("ordered", "shuffled", "repeats"))
    if shape == "repeats" and pairs:
        pairs += [(v, u) for u, v in rng.sample(pairs, rng.randrange(len(pairs) + 1))]
        pairs += rng.choices(pairs, k=rng.randrange(3))
    if shape != "ordered":
        rng.shuffle(pairs)
    lines = [f"e {u} {v}" for u, v in pairs]

    def some(chance):
        return lines and rng.random() < chance

    if some(0.3):
        for _ in range(rng.randrange(1, 4)):
            filler = rng.choice(("c x", "", "  ", "\tc"))
            lines.insert(rng.randrange(len(lines) + 1), filler)
    if some(0.3):
        i = rng.randrange(len(lines))
        pad = rng.choice((" ", "\t", " \t"))
        line = lines[i]
        lines[i] = rng.choice((pad + line, line + pad, line.replace(" ", pad)))
    if some(0.2):
        i = rng.randrange(len(lines))
        lines[i] += rng.choice(_OTHER_BREAKS) + rng.choice(("", "c odd", lines[i]))
    if some(0.2):
        i = rng.randrange(len(lines))
        # e 1\x0b2 has three fields, but is two lines to splitlines()
        head, _, tail = lines[i].rpartition(" ")
        lines[i] = f"{head}{rng.choice(_OTHER_BREAKS)}{tail}"
    if some(0.2):
        i = rng.randrange(len(lines))
        fields = lines[i].split()
        if len(fields) == 3 and fields[0] == "e":
            j = rng.randrange(1, 3)
            fields[j] = _respell(rng, int(fields[j]))
            lines[i] = " ".join(fields)
    if some(0.3):
        i = rng.randrange(len(lines))
        u = rng.randrange(1, n + 1)
        lines[i] = rng.choice((
            f"e {u} {n + 1}", f"e 0 {u}", f"e -{u} {u}", f"e {u} {u}",
            f"e {u} x", f"e {u} 1.5", f"e 0x1 {u}", f"e {u} 1e3",
            f"e {u}", f"e {u} {u} {u}", f"e{u} {u} 1", f"ex {u} 1", "x 1 2",
            f"p edge {n} {m}",
        ))
    if some(0.1) and len(lines) > 1:
        # three fields on every line and every third field e, but the
        # first line has four fields and the second one has two
        i = rng.randrange(len(lines) - 1)
        lines[i] += " e"
        lines[i + 1] = " ".join(lines[i + 1].split()[1:])
    declared = rng.choice((m, len(pairs)))
    header = rng.choice(([], ["c header"], ["c a", ""]))
    eol = rng.choice(("\n", "\n", "\r\n"))
    text = eol.join(header + [f"p edge {n} {declared}"] + lines)
    return text if rng.random() < 0.2 else text + eol


def test_parse_equals_per_line_reference(monkeypatch):
    # the same Graph, warnings, and error message and line as the plain
    # per-line parse, at the real block size and at small ones
    rng = random.Random(1414)
    texts = []
    for _ in range(100):
        n = rng.randrange(2, 40)
        texts.append(_differential_text(rng, n, rng.randrange(n * (n - 1) // 2 + 1)))
    for _ in range(4):
        # past one real block of edge lines
        texts.append(_differential_text(rng, 400, 3000))
    texts += ["p edge 3 1\re 1 2\n", "p edge 2 1\ne 1 2"]
    texts += ["p edge 4 2\ne 1 2 e\n3 4\n", "p edge 4 2\ne1 2 3\ne 3 4\n",
              "p edge 4 2\nex 1 2\ne 3 4\n"]
    texts += [f"p edge 3 1\ne 1{brk}2\ne 2 3\n" for brk in _OTHER_BREAKS]
    for block in (dimacs._BLOCK_CHARS, 64, 7):
        monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
        for text in texts:
            assert _outcome(parse_dimacs, text) == _outcome(_reference_parse, text), (
                block, text)


@pytest.mark.parametrize("block", [20, 64, 200])
@pytest.mark.parametrize("kind", ["repeat", "reverse"])
def test_order_check_spans_block_boundaries(monkeypatch, block, kind):
    # ordered text but for one line, just after a block boundary, that
    # repeats or reverses the line before it: a block that starts there
    # is in order on its own, but not after the block before it
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
    g = gen_gnm(60, 300, seed=block)
    m = g.edge_count
    text = f"p edge 60 {m + 1}\n" + write_dimacs(g).split("\n", 1)[1]
    cut = text.rfind("\n", 0, block) + 1
    assert cut > text.index("\n") + 1  # an edge line ends the first block
    _, u, v = text[text.rindex("\n", 0, cut - 1) + 1:cut].split()
    extra = f"e {u} {v}\n" if kind == "repeat" else f"e {v} {u}\n"
    text = text[:cut] + extra + text[cut:]
    pieces = (text[i:i + block] for i in range(0, len(text), block))
    assert any(b.startswith(extra) for b in dimacs._stream_blocks(pieces))
    with pytest.warns(
        DimacsFormatWarning, match=f"declares {m + 1} edges, found {m} distinct"
    ):
        assert parse_dimacs(text) == g


def test_only_ordered_input_skips_the_sort(monkeypatch):
    # the sort-free seal is taken for lines as write_dimacs writes them,
    # in any number of blocks, and for nothing else
    seen = []
    seal = Graph._from_neighbor_lists.__func__

    def spy(cls, adj, ordered):
        seen.append(ordered)
        return seal(cls, adj, ordered)

    monkeypatch.setattr(Graph, "_from_neighbor_lists", classmethod(spy))
    monkeypatch.setattr(dimacs, "_BLOCK_CHARS", 64)
    g = gen_gnm(60, 300, seed=3)
    text = write_dimacs(g)
    head, body = text.split("\n", 1)
    lines = body.splitlines()
    texts = {
        True: [text, "c header\n" + text, text.replace("\n", "\r\n")],
        False: [
            head + "\n" + "\n".join(lines[1:] + lines[:1]) + "\n",
            head + "\n" + "\n".join(lines[:100] + lines[99:]) + "\n",
            head + "\n" + "\n".join(f"e {v} {u}" for _, u, v in map(str.split, lines)),
            head + "\n" + "\n".join(lines[:100] + ["c mid"] + lines[100:]) + "\n",
        ],
    }
    for ordered, cases in texts.items():
        for case in cases:
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DimacsFormatWarning)
                assert parse_dimacs(case) == g
            assert seen == [ordered], case


def test_read_file_equals_parse_of_its_text(monkeypatch, tmp_path):
    # the same Graph, warnings (and the file they name), and error
    # message and line from a path or an open stream, read a few
    # characters at a time, as from parse_dimacs on the whole text
    rng = random.Random(1732)
    texts = []
    for _ in range(20):
        n = rng.randrange(2, 40)
        texts.append(_differential_text(rng, n, rng.randrange(n * (n - 1) // 2 + 1)))
    g = gen_gnm(40, 120, seed=4)
    written = write_dimacs(g)
    texts += [
        "c a comment longer than a block\n" * 3 + written,  # problem line later
        written.rstrip("\n"),  # no final newline
        written.replace("\n", "\x0b"),  # no \n at all, past many reads
        "p edge 3 1",
        written.replace("\n", "\r\n"),
        "c x\r\n" + written.replace("\n", "\r\n")[:-2],
        "c x\rp edge 3 2\re 1 2\ne 2 2\n",
        "c no problem line\n",
        "",
    ]
    path = tmp_path / "g.col"
    for block in (64, 7):
        monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
        for text in texts:
            path.write_text(text, encoding="utf-8", newline="")
            expected = _outcome(parse_dimacs, text)
            assert _outcome(read_dimacs_file, path) == expected, (block, text)
            assert _outcome(read_dimacs_file, io.StringIO(text)) == expected, (
                block, text)


def _encoded_texts() -> list[bytes]:
    """UTF-8 texts with characters of one to four bytes, undecodable and
    cut characters, and no final newline."""
    written = write_dimacs(gen_gnm(12, 20, seed=6), comments=("é € 😀",))
    return [
        b"p edge 2 1\ne 1 2\n",
        written.encode(),
        written.replace("\n", "\r\n").encode(),
        "c ü\xa0ß\np edge 3 1\ne 1 2\ne 2 2\n".encode(),
        b"c \xff\xc3\np edge 2 1\ne 1 2\n",  # undecodable bytes
        b"p edge 2 1\ne 1 \xe2\x82\n",  # a cut character on an edge line
        "p edge 2 1\ne 1 2\nc 😀".encode(),  # no final newline
        b"",
    ]


def test_read_binary_stream_equals_parse_of_its_bytes(monkeypatch):
    # a stream opened in binary mode is decoded as parse_dimacs decodes
    # bytes, even when a character's bytes straddle two reads
    for block in (1, 2, 3, 5, 64, dimacs._BLOCK_CHARS):
        monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
        for data in _encoded_texts():
            assert _outcome(read_dimacs_file, io.BytesIO(data)) == _outcome(
                parse_dimacs, data), (block, data)


def test_parse_of_bytes_equals_parse_of_their_whole_decode(monkeypatch):
    # bytes are decoded a slice at a time, and a character whose bytes
    # two slices split comes out as bytes.decode makes it
    for block in (1, 2, 3, 5, 64, dimacs._BLOCK_CHARS):
        monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
        for data in _encoded_texts():
            assert _outcome(parse_dimacs, data) == _outcome(
                parse_dimacs, data.decode("utf-8", "replace")), (block, data)


@pytest.mark.parametrize(
    "reads", [[None], ["p edge 2 1\n", None], [b"p edge 2 1\n", None]]
)
def test_stream_read_of_neither_text_nor_bytes_fails(reads):
    # a read that returns None, as a non-blocking stream's can, is not
    # taken for the end of the text
    class Stream:
        chunks = iter(reads)

        def read(self, size):
            return next(self.chunks)

    with pytest.raises(TypeError):
        read_dimacs_file(Stream())


@pytest.mark.parametrize("empty", ["", b""])
def test_stream_is_not_read_past_its_end(empty):
    # one empty read ends the stream: a terminal's stdin would wait for
    # a second end of file
    class Stream:
        reads = 0

        def read(self, size):
            self.reads += 1
            return empty

    stream = Stream()
    assert _outcome(read_dimacs_file, stream) == (("missing problem line", None), [])
    assert stream.reads == 1

def _run_shaped_texts(block: int) -> list[str]:
    """Texts sorted as write_dimacs writes planted graphs, whose lines
    come in long runs that share their first id (one run per cover
    vertex); copies of them with one line spoiled inside a run, at a
    run's first or last line, or at the start of a block of the given
    size; and runs of ids out of range."""
    rng = random.Random(2121)
    texts = [write_dimacs(gen_planted(2000, 5, 5000, 11).graph)]
    for n, k, extra in ((200, 3, 300), (90, 4, 200)):
        text = write_dimacs(gen_planted(n, k, extra, rng.randrange(2**32)).graph)
        texts.append(text)
        head, body = text.split("\n", 1)
        lines = body.splitlines()
        firsts = [line.split()[1] for line in lines]
        inside = [i for i in range(1, len(lines) - 1)
                  if firsts[i - 1] == firsts[i] == firsts[i + 1]]
        run_firsts = [i for i in range(1, len(lines) - 1)
                      if firsts[i - 1] != firsts[i] == firsts[i + 1]]
        run_lasts = [i for i in range(1, len(lines) - 1)
                     if firsts[i - 1] == firsts[i] != firsts[i + 1]]
        spoils = []
        for _ in range(3):
            for kind in ("0u", "+u", "0v", "reversed", "reversed again",
                         "repeated", "self-loop", "out of range", "zero",
                         "lower head"):
                i = rng.choice(inside)
                _, u, v = lines[i].split()
                spoils.append((i, {
                    "0u": [f"e 0{u} {v}"], "+u": [f"e +{u} {v}"],
                    "0v": [f"e {u} 0{v}"], "reversed": [f"e {v} {u}"],
                    "reversed again": [lines[i], f"e {v} {u}"],
                    "repeated": [lines[i], lines[i]],
                    "self-loop": [f"e {u} {u}"],
                    "out of range": [f"e {u} {n + 1}"], "zero": [f"e {u} 0"],
                    "lower head": [lines[i], f"e {int(u) - 1 or 1} {v}"],
                }[kind]))
        for i in run_firsts:
            u = lines[i].split()[1]
            spoils += [(i, [f"e {u} {int(u) - 1}"]), (i, [f"e {u} 0"])]
        for i in run_lasts:
            spoils.append((i, [f"e {lines[i].split()[1]} {n + 1}"]))
        # a block that starts with the line before it, or reversed
        sizes = [len(b) for b in dimacs._stream_blocks(
            text[j:j + block] for j in range(0, len(text), block))]
        if len(sizes) > 2:
            cut = text.count("\n", 0, sizes[0] + sizes[1]) - 1  # block 3's first line
            _, u, v = lines[cut - 1].split()
            spoils += [(cut, [f"e {u} {v}", lines[cut]]),
                       (cut, [f"e {v} {u}", lines[cut]])]
        texts += ["\n".join([head, *lines[:i], *spoiled, *lines[i + 1:]]) + "\n"
                  for i, spoiled in spoils]
    texts += [
        "p edge 20 19\n" + "".join(f"e 0 {v}\n" for v in range(1, 20)),
        "p edge 20 19\n" + "".join(f"e -1 {v}\n" for v in range(1, 20)),
        "p edge 19 19\n" + "".join(f"e 1 {v}\n" for v in range(2, 21)),
    ]
    return texts


def test_run_shaped_text_equals_per_line_reference(monkeypatch):
    # read by runs or not, the same Graph, warnings, and error message
    # and line as the plain per-line parse; at 200 characters a block
    # holds about 20 lines, so runs span many blocks
    for block in (dimacs._BLOCK_CHARS, 200):
        texts = _run_shaped_texts(block)
        monkeypatch.setattr(dimacs, "_BLOCK_CHARS", block)
        for text in texts:
            assert _outcome(parse_dimacs, text) == _outcome(_reference_parse, text), (
                block, text)


def _edge_blocks_by_runs(monkeypatch, text: str) -> list[bool | None]:
    """For each block parse_dimacs hands the bulk reader, whether
    read_runs took it (None when it was not asked)."""
    taken: list[bool | None] = []
    read_block = dimacs._Parse.read_block
    read_runs = dimacs._Parse.read_runs

    def block_spy(self, block):
        taken.append(None)
        return read_block(self, block)

    def runs_spy(self, firsts, seconds):
        taken[-1] = read_runs(self, firsts, seconds)
        return taken[-1]

    with monkeypatch.context() as patch:
        patch.setattr(dimacs._Parse, "read_block", block_spy)
        patch.setattr(dimacs._Parse, "read_runs", runs_spy)
        parse_dimacs(text)
    return taken


def test_runs_read_sorted_planted_text_and_spare_relabeled_text(monkeypatch):
    # every edge block of a canonical planted text opens with a long run
    # and is read by runs; a relabeled one, whose runs are mostly one or
    # two lines, never gets past the probe
    for seed in (1, 2, 3):
        text = write_dimacs(gen_planted(2000, 5, 5000, seed).graph)
        taken = _edge_blocks_by_runs(monkeypatch, text)
        assert len(taken) >= 3 and all(taken), (seed, taken)
    for n, k in ((500, 7), (1250, 9)):
        for seed in (1, 2, 3):
            inst = gen_planted(n, k, n // 2, seed)
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            g = Graph(n, [(perm[u], perm[v]) for u, v in inst.graph.edges()])
            taken = _edge_blocks_by_runs(monkeypatch, write_dimacs(g))
            assert taken and set(taken) == {None}, (n, k, seed)


def test_runs_spare_a_block_of_short_runs_behind_a_long_one(monkeypatch):
    # a sorted block that opens with one hub's run of 20 lines passes the
    # probe, but goes on in runs of one or two lines, as a relabeled graph
    # can: read_runs turns it down and it is read line by line in bulk
    edges = [(1, v) for v in range(2, 22)]
    for u in range(22, 200):
        edges += [(u, u + 1), (u, u + 2)] if u % 2 else [(u, u + 1)]
    text = f"p edge 201 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    assert _edge_blocks_by_runs(monkeypatch, text) == [False]
    assert parse_dimacs(text) == _reference_parse(text)
