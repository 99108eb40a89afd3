"""Named graphs and checks shared across the test modules."""

from __future__ import annotations

from vckit import BranchSolver, Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 joined to 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def matching_graph(edge_count: int) -> Graph:
    """edge_count pairwise-disjoint edges (2i, 2i+1)."""
    return Graph(2 * edge_count, [(2 * i, 2 * i + 1) for i in range(edge_count)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def disjoint_paths_graph(parts: int) -> Graph:
    """`parts` vertex-disjoint paths on three vertices each."""
    edges = []
    for i in range(parts):
        base = 3 * i
        edges.append((base, base + 1))
        edges.append((base + 1, base + 2))
    return Graph(3 * parts, edges)


def check_graph(g: Graph) -> None:
    """Assert the simple-graph invariants: each neighbor tuple strictly
    ascending, no self-loops, every id in range, symmetric adjacency,
    and edge_count half the degree sum."""
    n = g.vertex_count
    adj = g.sorted_adjacency
    assert len(adj) == n
    for v, a in enumerate(adj):
        assert all(x < y for x, y in zip(a, a[1:])), (
            f"neighbors of {v} not strictly ascending"
        )
        for w in a:
            assert w != v, f"self-loop at {v}"
            assert 0 <= w < n, f"neighbor {w} of {v} out of range"
            assert g.has_edge(w, v), f"asymmetric edge ({v}, {w})"
    assert sum(len(a) for a in adj) == 2 * g.edge_count


def session_snapshot(solver: BranchSolver):
    """Everything a BranchSolver session holds between decide() calls,
    all of which decide() must restore: its one state byte per vertex
    and its trail."""
    return bytes(solver._state), tuple(solver._trail)
