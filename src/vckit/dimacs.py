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

A parse holds the text, the lines of one block of it (about 64 KiB,
cut just after a ``\n``) and the graph being built: each edge line goes
straight into its endpoints' neighbor lists, so there is never a list
of all lines or of all edges.

Canonical output is the problem line with the exact distinct edge
count followed by the edges sorted ascending, so parse(write(g)) == g.
"""

from __future__ import annotations

import warnings
from typing import Iterator

from .graph import Graph


# The largest vertex count a problem line may declare.  Parsing a header
# with no edges peaks at about 65 bytes per declared vertex (an empty
# neighbor list each), so this keeps what a header alone can make it
# allocate under 1 GB, 500 times above the largest benchmarked graph
# (20000 vertices).
MAX_VERTICES = 10_000_000

# About how many characters of text are split into lines at a time.
_BLOCK_CHARS = 1 << 16


class DimacsError(ValueError):
    """Malformed DIMACS input; the message carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimacsFormatWarning(UserWarning):
    """Recoverable oddity in DIMACS input, e.g. a wrong declared edge count."""


def _lines(text: str) -> Iterator[str]:
    r"""Yield the lines of ``text.splitlines()``, splitting one block at a time.

    A block runs to the first ``\n`` at or past _BLOCK_CHARS characters,
    or to the end of the text.  A ``\n`` always ends a line and is the
    last character of ``\r\n``, so the lines, and so their numbers, are
    exactly those of ``splitlines()`` over the whole text; a text with
    no ``\n`` at all is one block.
    """
    start = 0
    size = len(text)
    while start < size:
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or size
        yield from text[start:end].splitlines()
        start = end


def parse_dimacs(data: str | bytes) -> Graph:
    """Parse DIMACS edge-format text into a Graph.

    Each edge line goes straight into the neighbor lists of its two
    endpoints, allocated at the problem line, which the Graph then
    sorts, dedups and freezes.  Besides the text, a parse holds only
    one block's lines and the graph being built.

    Raises DimacsError (with the offending line number) on a missing or
    duplicate problem line, an edge line before the problem line,
    unrecognized line types, malformed numbers, a declared vertex count
    above MAX_VERTICES, out-of-range vertex ids, or self-loops.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")

    n: int | None = None
    declared_m = 0
    adj: list[list[int]] = []

    for lineno, raw in enumerate(_lines(data), start=1):
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
            adj[u - 1].append(v - 1)
            adj[v - 1].append(u - 1)
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
            adj = [[] for _ in range(n)]
        else:
            raise DimacsError(f"unrecognized line type {tag!r}", lineno)

    if n is None:
        raise DimacsError("missing problem line")
    # Graph collapses duplicate and reversed lines and counts what is left.
    g = Graph._from_neighbor_lists(adj)
    if declared_m != g.edge_count:
        warnings.warn(
            f"problem line declares {declared_m} edges, found {g.edge_count} distinct",
            DimacsFormatWarning,
            stacklevel=2,
        )
    return g


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
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_dimacs_file(path) -> Graph:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_dimacs(fh.read())


def write_dimacs_file(g: Graph, path, comments: tuple[str, ...] | list[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_dimacs(g, comments))
