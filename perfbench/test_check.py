"""Self-test of the benchmark's checker: it must reject wrong answers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
from array import array

import check

# The path 0-1-2-3 plus the edge 1-3: tau = 2, {1, 2} and {1, 3} cover it.
EDGES = array("i", [0, 1, 1, 2, 2, 3, 1, 3])
GRAPH = {"n": 4, "tau": 2}
STATS = {"nodes_expanded": 3, "max_depth": 2, "triplet_scans": 2, "elapsed_ms": 0.1}


def decide_op(budget):
    return {"args": ["decide"], "expect": {"decision": budget >= 2, "budget": budget}}


def decide_out(decision, certificate):
    return json.dumps({"decision": decision, "certificate": certificate, "stats": STATS})


def test_accepts_correct_answers():
    assert check.check(decide_op(2), GRAPH, EDGES, 0, decide_out(True, [1, 2])) == (None, (3, 2, 2))
    assert check.check(decide_op(1), GRAPH, EDGES, 1, decide_out(False, None))[0] is None
    solve = {"args": ["solve"], "expect": {"size": 2}}
    out = json.dumps({"size": 2, "cover": [1, 3], "stats": STATS})
    assert check.check(solve, GRAPH, EDGES, 0, out)[0] is None
    verify = {"args": ["verify"], "expect": {"valid": False, "cover_size": 1}}
    assert check.check(verify, GRAPH, EDGES, 1, json.dumps({"valid": False, "cover_size": 1})) == (None, None)


def test_rejects_corrupted_cover():
    problem, _ = check.check(decide_op(2), GRAPH, EDGES, 0, decide_out(True, [0, 2]))
    assert problem is not None and "misses edge (1, 3)" in problem
    problem, _ = check.check(decide_op(3), GRAPH, EDGES, 0, decide_out(True, [1, 1, 2]))
    assert problem is not None
    problem, _ = check.check(decide_op(2), GRAPH, EDGES, 0, decide_out(True, [0, 1, 2]))
    assert problem is not None and "more than 2" in problem
    solve = {"args": ["solve"], "expect": {"size": 2}}
    out = json.dumps({"size": 2, "cover": [0, 3], "stats": STATS})
    assert check.check(solve, GRAPH, EDGES, 0, out)[0] is not None


def test_rejects_flipped_verdict():
    # A "no" at tau, with the exit code to match, is still wrong.
    assert check.check(decide_op(2), GRAPH, EDGES, 1, decide_out(False, None))[0] is not None
    # A "yes" below tau cannot have a valid certificate.
    assert check.check(decide_op(1), GRAPH, EDGES, 0, decide_out(True, [1]))[0] is not None
    verify = {"args": ["verify"], "expect": {"valid": False, "cover_size": 1}}
    assert check.check(verify, GRAPH, EDGES, 0, json.dumps({"valid": True, "cover_size": 1}))[0] is not None


def test_rejects_wrong_exit_code_and_crashes():
    assert check.check(decide_op(2), GRAPH, EDGES, 1, decide_out(True, [1, 2]))[0] is not None
    assert check.check(decide_op(2), GRAPH, EDGES, 2, "")[0] is not None
    assert check.check(decide_op(2), GRAPH, EDGES, "SolveTimeout('time limit')", "")[0] is not None
