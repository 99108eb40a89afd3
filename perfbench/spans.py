"""Spans recorded around vckit's public callables, from outside the program.

``Tracer.install()`` wraps each traced callable in every ``vckit``
module namespace that binds it (``vckit.cli`` imports its helpers by
name, so patching only the defining module would miss the CLI path)
and wraps the traced methods on their classes.  ``uninstall()`` puts
the originals back, so one process can alternate traced and untraced
passes.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# span name -> (defining module, attribute)
FUNCTIONS = {
    "cli.main": ("vckit.cli", "main"),
    "dimacs.parse": ("vckit.dimacs", "parse_dimacs"),
    "dimacs.write": ("vckit.dimacs", "write_dimacs"),
    "generate.gen_planted": ("vckit.generate", "gen_planted"),
    "solver.min_vertex_cover": ("vckit.solver", "min_vertex_cover"),
    "solver.matching": ("vckit.solver", "greedy_maximal_matching"),
    "oracle.verify": ("vckit.oracle", "verify_cover"),
}
# span name -> (defining module, class, method)
METHODS = {
    "graph.build": ("vckit.graph", "Graph", "__init__"),
    "solver.init": ("vckit.solver", "BranchSolver", "__init__"),
    "solver.decide": ("vckit.solver", "BranchSolver", "decide"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.attrs = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _decide_attrs(args, kwargs, result) -> dict:
    return {"strategy": args[0].strategy.value, "k": _arg(args, kwargs, 1, "k"),
            "nodes": result.stats.nodes_expanded, "decision": result.decision}


def _parse_attrs(args, kwargs, result) -> dict:
    return {"chars": len(_arg(args, kwargs, 0, "data"))}


_ATTRS = {"solver.decide": _decide_attrs, "dimacs.parse": _parse_attrs}


class Tracer:
    """Span recorder for one single-threaded client.

    ``op`` tags every span with the index of the operation in flight,
    which plays the role of a request id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "vckit" or key.startswith("vckit."))]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:  # gone from this version: its spans stay empty
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_ms(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ms
        return out

    def write(self, path: Path, stamp: dict) -> None:
        payload = {"env": stamp, "spans": [s.as_dict(i) for i, s in enumerate(self.spans)]}
        path.write_text(json.dumps(payload), encoding="utf-8")
