"""Async-safety pass for the live substrate (REP105–REP106).

REP105: a blocking call (``time.sleep``, the sync ``subprocess`` API,
``socket.create_connection``, ``urllib.request.urlopen``, ``requests.*``,
plain ``open()``) that executes inside an ``async def`` — directly or
through any chain of synchronous project calls the call graph can
resolve.  One blocked coroutine stalls the whole event loop, which in
``repro.live`` freezes every in-flight connection of the front-end and
skews the latencies the sim-vs-live compare scores.  Calls routed
through ``run_in_executor`` / ``asyncio.to_thread`` are not findings —
those run off-loop, and the call graph sees the function reference, not
a call.

REP106: a call to a project ``async def`` whose coroutine is never
awaited — a bare expression statement, or an assignment to a name that
is never read again.  The body silently never runs.  Wrapping the
coroutine in ``asyncio.create_task`` / ``ensure_future`` / ``gather`` /
``wait`` / ``run`` counts as consumption.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from .callgraph import CallGraph, chain_trace
from .modules import FunctionInfo, ProjectModel, short_qualname
from .simlint import Finding

__all__ = ["run"]

_BLOCKING_EXTERNAL = {
    "time.sleep": "time.sleep() blocks the event loop; use asyncio.sleep",
    "subprocess.run": "sync subprocess.run(); use asyncio.create_subprocess_*",
    "subprocess.call": "sync subprocess.call(); use asyncio.create_subprocess_*",
    "subprocess.check_call":
        "sync subprocess.check_call(); use asyncio.create_subprocess_*",
    "subprocess.check_output":
        "sync subprocess.check_output(); use asyncio.create_subprocess_*",
    "socket.create_connection":
        "sync socket.create_connection(); use asyncio.open_connection",
    "urllib.request.urlopen":
        "sync urllib.request.urlopen(); use an executor",
    "requests.get": "sync requests.get(); use an executor",
    "requests.post": "sync requests.post(); use an executor",
}

#: Wrappers that legitimately consume a coroutine object.
_COROUTINE_CONSUMERS = {
    "create_task", "ensure_future", "gather", "wait", "wait_for", "run",
    "run_coroutine_threadsafe", "shield",
}


def _blocking_sites(
    model: ProjectModel, graph: CallGraph, fn: FunctionInfo
) -> List[Tuple[int, int, str]]:
    """(line, col, why) for blocking calls directly inside ``fn``."""
    out: List[Tuple[int, int, str]] = []
    for site in graph.callees(fn.qualname):
        if site.external in _BLOCKING_EXTERNAL:
            out.append(
                (site.lineno, site.node.col_offset + 1,
                 _BLOCKING_EXTERNAL[site.external])
            )
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ):
            out.append(
                (node.lineno, node.col_offset + 1,
                 "open() does blocking file I/O; use an executor")
            )
    return out


def _check_blocking(
    model: ProjectModel, graph: CallGraph
) -> List[Finding]:
    roots = [q for q, fn in model.functions.items() if fn.is_async]
    if not roots:
        return []
    reach = graph.reachable_from(roots)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, int]] = set()
    for qual, path in sorted(reach.items()):
        fn = model.functions[qual]
        mod = fn.module
        for line, col, why in _blocking_sites(model, graph, fn):
            if mod.is_suppressed(line, "REP105"):
                continue
            key = (mod.path, line, col)
            if key in seen:
                continue
            seen.add(key)
            depth = len(path) - 1
            via = (
                "" if depth == 0
                else f" ({depth} call{'s' if depth > 1 else ''} below "
                f"async {short_qualname(path[0])})"
            )
            findings.append(
                Finding(
                    path=mod.path, line=line, col=col, rule="REP105",
                    message=f"{why}{via}",
                    trace=chain_trace(
                        model, path, "async def (event-loop context)"
                    )
                    + (f"{mod.path}:{line}: blocking call", ),
                )
            )
    return findings


def _consumed_calls(fn: FunctionInfo) -> Set[int]:
    """ids of Call nodes that are awaited or handed to a consumer."""
    consumed: Set[int] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Await):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    consumed.add(id(sub))
        elif isinstance(node, ast.Call):
            f = node.func
            name = (
                f.attr if isinstance(f, ast.Attribute)
                else f.id if isinstance(f, ast.Name) else None
            )
            if name in _COROUTINE_CONSUMERS:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Call):
                            consumed.add(id(sub))
        elif isinstance(node, ast.Return) and node.value is not None:
            # ``return coro()`` hands the coroutine to the caller.
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    consumed.add(id(sub))
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    consumed.add(id(sub))
    return consumed


def _check_never_awaited(
    model: ProjectModel, graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    for qual, fn in model.functions.items():
        async_calls: Dict[int, Tuple[ast.Call, str]] = {}
        for site in graph.callees(qual):
            if site.target is None:
                continue
            callee = model.functions.get(site.target)
            if callee is not None and callee.is_async:
                async_calls[id(site.node)] = (site.node, site.target)
        if not async_calls:
            continue
        consumed = _consumed_calls(fn)
        mod = fn.module
        # Name loads, for the assigned-but-never-read case.
        loads: Dict[str, int] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id] = loads.get(node.id, 0) + 1

        def emit(call: ast.Call, target: str, how: str) -> None:
            if mod.is_suppressed(call.lineno, "REP106"):
                return
            callee = model.functions[target]
            findings.append(
                Finding(
                    path=mod.path,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    rule="REP106",
                    message=(
                        f"coroutine {short_qualname(target)}() is never awaited "
                        f"({how}); its body silently never runs"
                    ),
                    trace=(
                        f"{callee.module.path}:{callee.lineno}: "
                        f"async def {target}",
                        f"{mod.path}:{call.lineno}: called from "
                        f"{short_qualname(qual)} without await",
                    ),
                )
            )

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                info = async_calls.get(id(node.value))
                if info and id(node.value) not in consumed:
                    emit(node.value, info[1], "bare call statement")
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                info = async_calls.get(id(node.value))
                if not info or id(node.value) in consumed:
                    continue
                names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if names and all(loads.get(n, 0) == 0 for n in names):
                    emit(
                        node.value, info[1],
                        f"assigned to {', '.join(names)!s} which is never "
                        "read",
                    )
    return findings


def run(model: ProjectModel, graph: CallGraph) -> List[Finding]:
    findings = _check_blocking(model, graph) + _check_never_awaited(
        model, graph
    )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
