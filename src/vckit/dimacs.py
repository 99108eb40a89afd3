r"""Reading and writing graphs in DIMACS edge format.

The accepted dialect:

    c <free-form comment>
    p edge <n> <m>
    e <u> <v>

Vertex ids on ``e`` lines are 1-based, per the format; everything else
in this package is 0-based, so parsing subtracts one and writing adds
it back.  Duplicate and reversed edge lines collapse silently.  A
declared edge count that disagrees with the distinct edges found is
reported as a warning, not an error.  The problem line may declare at
most MAX_VERTICES vertices; a larger n is rejected at that line, before
anything is allocated for it, since the parse allocates one neighbor
list per declared vertex there.

A parse takes its text 16 KiB at a time, cuts each piece after its
last ``\n`` and carries the rest over to the next piece.  It holds one
such block split into either its lines or, for a block of plain edge
lines, its fields and ids, and the graph being built: each edge line
goes straight into its endpoints' neighbor lists, so there is never a
list of all lines or of all edges.  Sorted text comes in runs of lines
that share their first id; a plain block that opens with a long run is
read a run at a time, with one int() per run's first id and one extend
of its neighbor list, instead of a line at a time.  Every neighbor
entry of a vertex is the one int object that a table, grown to the
largest id read so far, holds for it.  read_dimacs_file reads its file
or stream a block at a time, so it never holds the whole text;
parse_dimacs is given its text whole, and decodes bytes a slice at a
time.

Canonical output is the problem line with the exact distinct edge
count followed by the edges sorted ascending, so parse(write(g)) == g.
"""

from __future__ import annotations

import codecs
import warnings
from bisect import bisect_right
from contextlib import nullcontext
from itertools import compress, repeat
from operator import eq, ge, gt, lt, ne
from typing import Iterable, Iterator

from .graph import Graph


# The largest vertex count a problem line may declare.  Parsing a header
# with no edges peaks at about 64 bytes per declared vertex (an empty
# neighbor list each; the table of vertex ids grows only with the ids
# that edge lines name), so this keeps what a header alone can make it
# allocate under 1 GB, 500 times above the largest benchmarked graph
# (20000 vertices).
MAX_VERTICES = 10_000_000

# How many characters of text a parse takes at a time: each slice that
# parse_dimacs takes of its text, and each read of read_dimacs_file.  A
# block read in bulk peaks at about 15 times its own size in fields and
# ids, on top of the graph being built: at 16 KiB a parse of an
# 8000-vertex graph peaks at 1.74 times the graph it returns.  Parse
# time hardly changes between 4 and 64 KiB blocks.
_BLOCK_CHARS = 1 << 14

# Line breaks of str.splitlines() that a block taken in bulk may not
# hold: there, ``\n`` (alone or in ``\r\n``) is the only line break.
# The others past ASCII are ruled out by str.isascii().
_ODD_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")

# A plain block whose lines 0 and _RUN_PROBE share their first id opens,
# if it is sorted, with a run of more than _RUN_PROBE lines, and is read
# by runs.  Relabeled graphs, whose runs are mostly 1 or 2 lines, almost
# never pass this probe, so they pay nothing for the run path; read_runs
# turns down the few blocks of theirs that do, once it has found the runs.
_RUN_PROBE = 15


class DimacsError(ValueError):
    """Malformed DIMACS input; the message carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimacsFormatWarning(UserWarning):
    """Recoverable oddity in DIMACS input, e.g. a wrong declared edge count."""


def _stream_blocks(chunks: Iterable[str]) -> Iterator[str]:
    r"""The text that ``chunks`` spell, as blocks that end just after a
    ``\n``, or at the end of the text.

    Each chunk is cut after its last ``\n``; what follows waits for the
    next chunk.  Chunks with no ``\n`` are collected and joined once, so
    a long line costs time linear in its length.
    """
    pending: list[str] = []
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    tail = "".join(pending)
    if tail:
        yield tail


def _text(chunks: Iterable[str | bytes]) -> Iterator[str]:
    """The text of chunks up to the first empty one: a str chunk as it
    is, and a bytes chunk decoded as UTF-8, with undecodable bytes
    replaced as bytes.decode does it, by one incremental decoder, so a
    character whose bytes two chunks split comes out whole.  A chunk of
    any other type, such as None, raises TypeError."""
    decode = codecs.getincrementaldecoder("utf-8")("replace").decode
    for chunk in chunks:
        text = chunk if isinstance(chunk, str) else decode(chunk)
        if not chunk:
            break
        yield text
    yield decode(b"", True)


class _Parse:
    """One parse in progress: the problem line's counts, the neighbor
    lists, the table of vertex ids, the lines read so far and, while
    every edge line so far came in order, the last one's 1-based ids
    (None once one did not).

    ``ids[x]`` is vertex x - 1, for each 1-based id x up to the largest
    one read so far, so that every neighbor entry of a vertex is one
    shared int object, not a fresh one per edge line.
    """

    __slots__ = ("n", "declared_m", "adj", "ids", "lineno", "last")

    def __init__(self) -> None:
        self.n: int | None = None
        self.declared_m = 0
        self.adj: list[list[int]] = []
        self.ids: list[int] = []
        self.lineno = 0
        self.last: tuple[int, int] | None = (-1, -1)

    def read_lines(self, lines: Iterable[str]) -> None:
        """Read each line by the per-line rule, the only one that raises
        DimacsError on a line.  It does not check the order of edge
        lines, so an edge line read here marks the parse as unordered."""
        n = self.n
        adj = self.adj
        ids = self.ids
        lineno = self.lineno
        for lineno, raw in enumerate(lines, start=lineno + 1):
            fields = raw.split()
            if not fields:
                continue
            tag = fields[0]
            # Edge lines are nearly every line, so they are tested first.
            if tag == "e":
                if n is None:
                    raise DimacsError("edge line before problem line", lineno)
                if len(fields) != 3:
                    raise DimacsError("edge line must be 'e <u> <v>'", lineno)
                try:
                    u = int(fields[1])
                    v = int(fields[2])
                except ValueError:
                    raise DimacsError(
                        f"non-integer vertex id in edge line: {raw.strip()!r}", lineno
                    ) from None
                if not (1 <= u <= n) or not (1 <= v <= n):
                    raise DimacsError(
                        f"vertex id outside 1..{n} in edge ({u}, {v})", lineno
                    )
                if u == v:
                    raise DimacsError(f"self-loop edge ({u}, {v})", lineno)
                high = max(u, v)
                if high >= len(ids):
                    ids.extend(range(len(ids) - 1, high))
                adj[u - 1].append(ids[v])
                adj[v - 1].append(ids[u])
                self.last = None
            elif tag[0] == "c":
                continue
            elif tag == "p":
                if n is not None:
                    raise DimacsError("duplicate problem line", lineno)
                if len(fields) != 4 or fields[1] != "edge":
                    raise DimacsError("problem line must be 'p edge <n> <m>'", lineno)
                try:
                    n = int(fields[2])
                    declared_m = int(fields[3])
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
                self.n = n
                self.declared_m = declared_m
                self.adj = adj = [[] for _ in range(n)]
            else:
                raise DimacsError(f"unrecognized line type {tag!r}", lineno)
        self.lineno = lineno

    def read_block(self, block: str) -> bool:
        r"""Take a block of plain edge lines in bulk, at C speed per block.

        A block is plain when ``\n`` (alone or in ``\r\n``) is its only
        line break, every line starts with ``e``, and its fields are
        ``e`` and two ids for each line, the ids in 1..n and unequal.
        The ids are base-10 ints, which hold no ``e``, so the only
        ``e`` fields are the ones at line starts: each line has exactly
        three fields.  Return False, having changed nothing, for any
        other block.

        Sorted text, as write_dimacs writes it, comes in runs of lines
        that share their first id.  A plain block whose first
        _RUN_PROBE + 1 lines do (an O(1) probe: its first and its
        _RUN_PROBE-th first fields are equal) is first offered to
        read_runs.  Any other plain block, or one that read_runs turns
        down, is read line by line in bulk: two int() calls, two id
        lookups and two appends per line.
        """
        lines = block.count("\n") + (not block.endswith("\n"))
        if not (
            block.isascii()
            and block.startswith("e")
            and block.count("\ne") == lines - 1
            and block.count("\r") == block.count("\r\n")
            and not any(map(block.__contains__, _ODD_BREAKS))
        ):
            return False
        fields = block.split()
        if len(fields) != 3 * lines or fields[::3].count("e") != lines:
            return False
        firsts = fields[1::3]
        seconds = fields[2::3]
        del fields  # before the neighbor lists grow
        if (
            lines > _RUN_PROBE
            and firsts[0] == firsts[_RUN_PROBE]
            and self.read_runs(firsts, seconds)
        ):
            self.lineno += lines
            return True
        try:
            # int() takes no letter in base 10, so the ids hold no "e".
            us = list(map(int, firsts))
            vs = list(map(int, seconds))
        except ValueError:
            return False
        del firsts, seconds
        # In order: each line is (u, v) with u < v, and each pair is above
        # the one before it, the last of the block before too.  Then no
        # line is a self-loop, us[0] is the lowest id and max(vs) the
        # highest.  Ids are checked before any indexing: a negative index
        # would wrap.
        last = self.last
        in_order = (
            last is not None
            and last < (us[0], vs[0])
            and all(map(lt, us, vs))
            and all(map(lt, zip(us, vs), zip(us[1:], vs[1:])))
        )
        if in_order:
            low, high = us[0], max(vs)
        else:
            low, high = min(min(us), min(vs)), max(max(us), max(vs))
            if any(map(eq, us, vs)):
                return False
        if low < 1 or high > self.n:
            return False
        self.last = (us[-1], vs[-1]) if in_order else None
        ids = self.ids
        if high >= len(ids):
            ids.extend(range(len(ids) - 1, high))
        us = list(map(ids.__getitem__, us))
        vs = list(map(ids.__getitem__, vs))
        adj = self.adj
        for u, v in zip(us, vs):
            adj[u].append(v)
            adj[v].append(u)
        self.lineno += lines
        return True

    def read_runs(self, firsts: list[str], seconds: list[str]) -> bool:
        """Take a plain block by runs, given as the first and the second
        id fields of its lines: a run is a stretch of lines whose first
        fields are one string, found with one C-level comparison of
        neighboring first fields.

        The block must be in order, checked run by run: the heads (each
        run's first id) rise, each run's second ids rise and start above
        its head, and the block's first pair is above the last pair of
        the block before it.  Then it is in order line by line, and
        heads[0] is its lowest id and max(vs) its highest.  Each head
        costs one int() and one id-table lookup, and each run one
        extend of its head's neighbor list, so a neighbor list still
        gets its entries in file order.  Return False, having changed
        nothing, for a block of more runs than a quarter of its lines,
        which costs less line by line, and for any other block, such as
        one with an id spelled two ways in a run (``5`` and ``05`` start
        two runs whose heads do not rise).
        """
        last = self.last
        if last is None:
            return False
        count = len(firsts)
        starts = [0, *compress(range(1, count), map(ne, firsts[1:], firsts))]
        # Mostly short runs, as in a relabeled graph that opens with a
        # hub's long run: a Python step per run costs more than the bulk
        # path's C-level pass per line.
        if 4 * len(starts) > count:
            return False
        try:
            heads = list(map(int, map(firsts.__getitem__, starts)))
            vs = list(map(int, seconds))
        except ValueError:
            return False
        if (
            not last < (heads[0], vs[0])
            or not all(map(lt, heads, heads[1:]))
            or not all(map(gt, map(vs.__getitem__, starts), heads))
            # Every fall of the second ids is at a run's start.
            or not set(compress(range(1, count), map(ge, vs, vs[1:]))).issubset(starts)
        ):
            return False
        high = max(vs)
        if heads[0] < 1 or high > self.n:
            return False
        self.last = (heads[-1], vs[-1])
        ids = self.ids
        if high >= len(ids):
            ids.extend(range(len(ids) - 1, high))
        vs = list(map(ids.__getitem__, vs))
        adj = self.adj
        ends = starts[1:] + [count]
        for head, start, end in zip(map(ids.__getitem__, heads), starts, ends):
            run = vs[start:end]
            adj[head].extend(run)
            for v in run:
                adj[v].append(head)
        return True


def _parse(blocks: Iterable[str]) -> Graph:
    r"""The Graph of DIMACS text given as blocks that each end just
    after a ``\n`` (the last one may end without), for parse_dimacs and
    read_dimacs_file, whose caller any warning names."""
    parse = _Parse()
    for block in blocks:
        # Up to and including the problem line, one piece of text up to
        # a \n at a time: one line, unless the piece holds another line
        # break.
        start = 0
        while parse.n is None and start < len(block):
            end = block.find("\n", start) + 1 or len(block)
            parse.read_lines(block[start:end].splitlines())
            start = end
        if start:
            block = block[start:]
        if not parse.read_block(block):
            parse.read_lines(block.splitlines())
    if parse.n is None:
        raise DimacsError("missing problem line")

    # Graph collapses duplicate and reversed lines and counts what is left.
    g = Graph._from_neighbor_lists(parse.adj, parse.last is not None)
    if parse.declared_m != g.edge_count:
        warnings.warn(
            f"problem line declares {parse.declared_m} edges, "
            f"found {g.edge_count} distinct",
            DimacsFormatWarning,
            stacklevel=3,
        )
    return g


def parse_dimacs(data: str | bytes) -> Graph:
    """Parse DIMACS edge-format text into a Graph.

    Lines up to and including the problem line are read one at a time.
    The rest of the text is read a block at a time: a block of plain
    edge lines in bulk, any other block line by line.  Either way each
    edge line goes straight into the neighbor lists of its two
    endpoints, allocated at the problem line, each endpoint as the one
    int object the parse keeps for its id.  When every edge line is
    (u, v) with u < v and each pair is above the one before it, as
    write_dimacs writes them, every list is already ascending with no
    repeats, and the Graph only freezes them; otherwise it sorts, dedups
    and freezes them.  Besides the text, a parse holds only one block's
    lines, or its fields and ids, the table of vertex ids and the graph
    being built.  Bytes are decoded slice by slice, as read_dimacs_file
    decodes a binary stream.  To read a file without holding its whole
    text, use read_dimacs_file.

    Raises DimacsError (with the offending line number) on a missing or
    duplicate problem line, an edge line before the problem line,
    unrecognized line types, malformed numbers, a declared vertex count
    above MAX_VERTICES, out-of-range vertex ids, or self-loops.
    """
    return _parse(_stream_blocks(_text(
        data[i:i + _BLOCK_CHARS] for i in range(0, len(data), _BLOCK_CHARS)
    )))


def write_dimacs(g: Graph, comments: tuple[str, ...] | list[str] = ()) -> str:
    """Serialize a Graph to canonical DIMACS edge format.

    Optional comments are emitted first as ``c`` lines (multi-line
    strings become several ``c`` lines); the parser skips them, so the
    round trip is unaffected.
    """
    lines = []
    for comment in comments:
        for part in str(comment).splitlines() or [""]:
            lines.append(f"c {part}".rstrip())
    lines.append(f"p edge {g.vertex_count} {g.edge_count}")
    # Graph.edges, with each vertex's "e u " head built once.
    for u, a in enumerate(g.sorted_adjacency):
        if a and a[-1] > u:
            head = f"e {u + 1} "
            for v in a[bisect_right(a, u):]:
                lines.append(head + str(v + 1))
    return "\n".join(lines) + "\n"


def read_dimacs_file(source) -> Graph:
    """Parse the DIMACS file at a path, or an open stream, into a
    Graph, reading _BLOCK_CHARS characters (or bytes) at a time.

    A path is opened as UTF-8, with undecodable bytes replaced; a
    stream (any object with a ``read`` method, such as ``sys.stdin``
    or a file opened in binary mode) is read from where it stands and
    left open.  A binary stream is decoded as it is read, as
    parse_dimacs decodes bytes, so a character whose bytes straddle two
    reads comes out whole.  The result, warnings and errors are those of
    parse_dimacs on the same text or bytes, but the whole text is never
    held, only one block of it at a time.
    """
    if hasattr(source, "read"):
        file = nullcontext(source)
    else:
        file = open(source, "r", encoding="utf-8", errors="replace")
    with file as fh:
        # _text reads no further than the first empty read: a terminal's
        # stdin would wait for another end of file.
        return _parse(_stream_blocks(_text(map(fh.read, repeat(_BLOCK_CHARS)))))
