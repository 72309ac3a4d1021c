"""Hot-path allocation lint (REP104).

Functions marked ``# simlint: hotpath`` are the kernel's per-event
paths (scheduling, station visit/release, the event loop) and the
event callbacks of the request and message chains.
The bench gate catches regressions *after* they cost a run; this pass
catches them structurally: every project function reachable from a
hotpath root through the call graph is scanned for allocation-bearing
constructs, and each finding reports the call chain that makes the
function hot.

Exemptions, matching how the kernel is actually written:

* constructs inside a ``raise`` statement — error paths are cold, and
  the kernel's f-string diagnostics live there by design;
* tuple literals — a priority station queues ``(priority, entry)``
  pairs, and tuples are the cheapest container CPython has (the
  ``[time, priority, eid, fn]`` queue entries are lists, suppressed
  where they are built);
* traversal stops at functions marked ``# simlint: coldpath`` (e.g.
  the sanitizer's bookkeeping hooks: reachable from the kernel's
  scheduling paths but opt-in diagnostics, allocation-heavy by design).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import CallGraph, chain_trace
from .modules import FunctionInfo, ProjectModel, short_qualname
from .simlint import Finding

__all__ = ["run"]

#: Zero/low-arg factory calls that allocate a fresh container.
_ALLOC_FACTORIES = {
    "dict", "list", "set", "frozenset", "bytearray", "deque",
    "defaultdict", "OrderedDict", "Counter",
}


class _AllocScanner:
    """Find allocation-bearing constructs in one function body."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.hits: List[Tuple[int, int, str]] = []  # (line, col, what)

    def scan(self) -> List[Tuple[int, int, str]]:
        for stmt in self.fn.node.body:  # type: ignore[attr-defined]
            self._visit(stmt, in_raise=False)
        return self.hits

    def _visit(self, node: ast.AST, in_raise: bool) -> None:
        if isinstance(node, ast.Raise):
            in_raise = True
        what = None if in_raise else self._classify(node)
        if what is not None:
            self.hits.append(
                (node.lineno, node.col_offset + 1, what)  # type: ignore[attr-defined]
            )
            if isinstance(
                node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return  # the closure itself is the allocation; its body
                # executes elsewhere (flagged if *it* is reachable)
        for child in ast.iter_child_nodes(node):
            self._visit(child, in_raise)

    @staticmethod
    def _classify(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.ListComp):
            return "list comprehension"
        if isinstance(node, ast.SetComp):
            return "set comprehension"
        if isinstance(node, ast.DictComp):
            return "dict comprehension"
        if isinstance(node, ast.GeneratorExp):
            return "generator expression"
        if isinstance(node, ast.List):
            return "list literal"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, ast.Dict):
            return "dict literal"
        if isinstance(node, ast.Lambda):
            return "lambda"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"nested def {node.name!r}"
        if isinstance(node, ast.JoinedStr):
            return "f-string"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ALLOC_FACTORIES:
            return f"{node.func.id}() call"
        return None


def run(model: ProjectModel, graph: CallGraph) -> List[Finding]:
    roots = [q for q, fn in model.functions.items() if fn.hotpath]
    if not roots:
        return []
    cold = {q for q, fn in model.functions.items() if fn.coldpath}
    reach: Dict[str, Tuple[str, ...]] = graph.reachable_from(
        roots, stop=cold
    )
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, int]] = set()
    for qual, path in sorted(reach.items()):
        fn = model.functions[qual]
        if fn.coldpath:
            continue
        mod = fn.module
        for line, col, what in _AllocScanner(fn).scan():
            if mod.is_suppressed(line, "REP104"):
                continue
            key = (mod.path, line, col)
            if key in seen:
                continue
            seen.add(key)
            root = path[0]
            via = (
                "" if len(path) == 1
                else f" (reachable from hotpath {short_qualname(root)}, "
                f"{len(path) - 1} call{'s' if len(path) > 2 else ''} deep)"
            )
            findings.append(
                Finding(
                    path=mod.path,
                    line=line,
                    col=col,
                    rule="REP104",
                    message=(
                        f"{what} in hot-path function "
                        f"{short_qualname(qual)}{via}"
                    ),
                    trace=chain_trace(
                        model, path, "marked '# simlint: hotpath'"
                    )
                    + (f"{mod.path}:{line}: allocation: {what}",),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings
