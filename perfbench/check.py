"""Independent output checker.

Every answer is compared with the answer known by construction (tau is
the planted k; relabeling preserves it), and every certificate is
checked by this module's own loop over the edge list the benchmark
generated.  Nothing here calls into vckit, so a broken oracle cannot
pass a broken cover.
"""

from __future__ import annotations

import json
from array import array


def uncovered_edge(edges: array, cover: set[int]):
    """The first edge of the flat (u, v, u, v, ...) list that `cover` misses."""
    for i in range(0, len(edges), 2):
        u = edges[i]
        v = edges[i + 1]
        if u not in cover and v not in cover:
            return (u, v)
    return None


def _check_cover(ids, n: int, edges: array, limit: int) -> str | None:
    if not isinstance(ids, list) or not all(isinstance(v, int) for v in ids):
        return f"cover is not a list of ids: {ids!r}"
    members = set(ids)
    if len(members) != len(ids):
        return "cover repeats a vertex"
    if len(ids) > limit:
        return f"cover has {len(ids)} vertices, more than {limit}"
    if any(not (0 <= v < n) for v in ids):
        return "cover holds an id outside the graph"
    missed = uncovered_edge(edges, members)
    if missed is not None:
        return f"cover misses edge {missed}"
    return None


def _stats_counters(stats) -> tuple[int, int, int] | str:
    try:
        counters = (stats["nodes_expanded"], stats["max_depth"], stats["triplet_scans"])
    except (KeyError, TypeError):
        return f"stats lack the search counters: {stats!r}"
    if not all(isinstance(c, int) and c >= 0 for c in counters):
        return f"stats counters are not counts: {counters!r}"
    return counters


def check(op: dict, graph: dict, edges: array, exit_code, stdout: str):
    """Judge one operation's output.

    Returns ``(problem, counters)``: problem is None when the output is
    correct, else a one-line reason; counters is the
    (nodes_expanded, max_depth, triplet_scans) triple from the JSON
    stats, or None for operations that report no search.
    """
    kind = op["args"][0]
    expect = op["expect"]
    if not isinstance(exit_code, int):
        return f"raised {exit_code}", None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"exit {exit_code}, output is not JSON: {stdout[:80]!r}", None
    if not isinstance(payload, dict):
        return f"output is not a JSON object: {stdout[:80]!r}", None

    if kind == "verify":
        want = 0 if expect["valid"] else 1
        if exit_code != want:
            return f"exit code {exit_code}, expected {want}", None
        if payload.get("valid") is not expect["valid"]:
            return f"valid={payload.get('valid')!r}, expected {expect['valid']}", None
        if payload.get("cover_size") != expect["cover_size"]:
            return f"cover_size={payload.get('cover_size')!r}, expected {expect['cover_size']}", None
        return None, None

    counters = _stats_counters(payload.get("stats"))
    if isinstance(counters, str):
        return counters, None

    if kind == "decide":
        yes = expect["decision"]
        want = 0 if yes else 1
        if exit_code != want:
            return f"exit code {exit_code}, expected {want}", counters
        if payload.get("decision") is not yes:
            return f"decision={payload.get('decision')!r}, expected {yes}", counters
        certificate = payload.get("certificate")
        if not yes:
            if certificate is not None:
                return "a false decision carries a certificate", counters
            return None, counters
        problem = _check_cover(certificate, graph["n"], edges, expect["budget"])
        return (None if problem is None else f"certificate: {problem}"), counters

    if kind == "solve":
        if exit_code != 0:
            return f"exit code {exit_code}, expected 0", counters
        size = payload.get("size")
        if size != expect["size"]:
            return f"size={size!r}, expected tau={expect['size']}", counters
        cover = payload.get("cover")
        problem = _check_cover(cover, graph["n"], edges, expect["size"])
        if problem is None and len(cover) != size:
            problem = f"cover has {len(cover)} vertices, size says {size}"
        return (None if problem is None else f"cover: {problem}"), counters

    return f"unknown operation {kind!r}", None
