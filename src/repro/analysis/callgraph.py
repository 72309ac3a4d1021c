"""Interprocedural call graph over the :class:`~.modules.ProjectModel`.

Resolution is tuned to what this codebase writes rather than full Python
semantics.  A call site resolves when it is one of:

* a direct call to a module-level function or imported function
  (``helper(x)``, ``tracegen.make_trace(...)``);
* a class constructor (``Environment(...)``, ``lard.LARDPolicy(...)``) —
  resolved to ``Class.__init__`` when the class defines or inherits one;
* a ``self.method(...)`` / ``cls.method(...)`` call, looked up through
  the project MRO of the enclosing class;
* ``super().method(...)`` — MRO lookup skipping the enclosing class;
* a method on a local/parameter whose class is known from an annotation
  or a ``x = ClassName(...)`` assignment in the same function, or on a
  ``self.<attr>`` whose class was inferred by the project model.

Anything else stays an *unresolved attribute call*: the edge records the
attribute name so name-based passes (taint sinks, conservative async
checks) can still reason about it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .modules import (
    ClassInfo,
    FunctionInfo,
    ProjectModel,
    annotation_class_name,
    dotted_name,
    short_qualname,
)

__all__ = ["ResolvedCall", "CallGraph", "chain_trace"]


@dataclass(frozen=True)
class ResolvedCall:
    """One call site inside a function."""

    caller: str
    node: ast.Call
    lineno: int
    #: Project qualname of the called function, when resolved.
    target: Optional[str] = None
    #: Project qualname of the class when the call constructs one.
    class_target: Optional[str] = None
    #: Trailing attribute name for unresolved ``obj.attr(...)`` calls
    #: (and for resolved method calls, for name-based sink matching).
    attr_name: Optional[str] = None
    #: Fully qualified external target ("time.sleep") when the call hits
    #: a tracked external module.
    external: Optional[str] = None


class _LocalTypes(ast.NodeVisitor):
    """Infer local-variable classes inside one function.

    Sources: parameter annotations, ``x: Cls = ...`` annotations, and
    ``x = ClassName(...)`` assignments.  Flow-insensitive — last write
    wins, which is accurate enough for lint-grade resolution.
    """

    def __init__(self, model: ProjectModel, fn: FunctionInfo) -> None:
        self.model = model
        self.mod = fn.module
        self.types: Dict[str, str] = {}
        args = fn.node.args  # type: ignore[attr-defined]
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for a in all_args:
            cls_name = annotation_class_name(a.annotation)
            if cls_name is None:
                continue
            qual = model.resolve(self.mod, cls_name)
            if qual in model.classes:
                self.types[a.arg] = qual
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                self._record(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls_name = annotation_class_name(node.annotation)
                qual = model.resolve(self.mod, cls_name) if cls_name else None
                if qual in model.classes:
                    self.types[node.target.id] = qual  # type: ignore[index]
                elif node.value is not None:
                    self._record([node.target], node.value)

    def _record(self, targets: List[ast.expr], value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        name = dotted_name(value.func)
        if name is None:
            return
        qual = self.model.resolve(self.mod, name)
        if qual not in self.model.classes:
            return
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                self.types[tgt.id] = qual  # type: ignore[assignment]


class CallGraph:
    """Call edges for every project function, plus reachability."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        #: caller qualname -> call sites (in source order).
        self.calls: Dict[str, List[ResolvedCall]] = {}

    @classmethod
    def build(cls, model: ProjectModel) -> "CallGraph":
        graph = cls(model)
        for fn in model.functions.values():
            graph.calls[fn.qualname] = list(graph._resolve_function(fn))
        return graph

    # -- per-function resolution ------------------------------------------

    def _resolve_function(self, fn: FunctionInfo) -> Iterator[ResolvedCall]:
        locals_ = _LocalTypes(self.model, fn)
        body = fn.node.body  # type: ignore[attr-defined]
        for stmt in body:
            for node in ast.walk(stmt):
                # Stay inside this function: nested defs/lambdas get
                # their own entries (nested defs) or are treated as part
                # of the enclosing body (lambdas — their calls execute
                # in this frame eventually).
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Call):
                    yield self._resolve_call(fn, locals_, node)

    def _resolve_call(
        self, fn: FunctionInfo, locals_: _LocalTypes, node: ast.Call
    ) -> ResolvedCall:
        model = self.model
        mod = fn.module
        func = node.func

        external = mod.ext.call_target(func)
        if external is not None:
            return ResolvedCall(
                caller=fn.qualname, node=node, lineno=node.lineno,
                attr_name=func.attr if isinstance(func, ast.Attribute) else None,
                external=external,
            )

        # super().method(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and fn.cls is not None
        ):
            target = model.lookup_method(fn.cls, func.attr, skip_self=True)
            return ResolvedCall(
                caller=fn.qualname, node=node, lineno=node.lineno,
                target=target.qualname if target else None,
                attr_name=func.attr,
            )

        # self.method(...) / cls.method(...) / self.attr.method(...)
        if isinstance(func, ast.Attribute):
            recv = func.value
            recv_cls: Optional[ClassInfo] = None
            if (
                isinstance(recv, ast.Name)
                and recv.id in ("self", "cls")
                and fn.cls is not None
            ):
                recv_cls = fn.cls
            elif isinstance(recv, ast.Name) and recv.id in locals_.types:
                recv_cls = model.classes.get(locals_.types[recv.id])
            elif (
                isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self"
                and fn.cls is not None
            ):
                attr_qual = None
                for c in model.mro(fn.cls):
                    if recv.attr in c.attr_types:
                        attr_qual = c.attr_types[recv.attr]
                        break
                if attr_qual:
                    recv_cls = model.classes.get(attr_qual)
            if recv_cls is not None:
                target = model.lookup_method(recv_cls, func.attr)
                if target is not None:
                    return ResolvedCall(
                        caller=fn.qualname, node=node, lineno=node.lineno,
                        target=target.qualname, attr_name=func.attr,
                    )

        # Direct name or dotted module path (``helper()``, ``util.f()``
        # after ``from . import util``, ``pkg.mod.Class(...)``).  An
        # unresolved call keeps its trailing name for name-based matching.
        name = dotted_name(func)
        if name is None:
            attr = func.attr if isinstance(func, ast.Attribute) else None
            return ResolvedCall(
                caller=fn.qualname, node=node, lineno=node.lineno,
                attr_name=attr,
            )
        attr = name.rpartition(".")[2]
        qual = model.resolve(mod, name)
        cls = model.classes.get(qual) if qual is not None else None
        if cls is not None:
            ctor = model.lookup_method(cls, "__init__")
            return ResolvedCall(
                caller=fn.qualname, node=node, lineno=node.lineno,
                target=ctor.qualname if ctor else None,
                class_target=qual, attr_name=attr,
            )
        return ResolvedCall(
            caller=fn.qualname, node=node, lineno=node.lineno,
            target=qual if qual in model.functions else None, attr_name=attr,
        )

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str) -> List[ResolvedCall]:
        return self.calls.get(qualname, [])

    def resolved_callees(self, qualname: str) -> List[str]:
        return [c.target for c in self.calls.get(qualname, []) if c.target]

    def reachable_from(
        self,
        roots: List[str],
        *,
        stop: Optional[Set[str]] = None,
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS closure from ``roots``.

        Returns ``{qualname: path}`` where ``path`` is the chain of
        qualnames from a root to the function (inclusive).  Traversal
        does not descend *through* functions in ``stop`` (they are still
        reported as reached).
        """
        stop = stop or set()
        out: Dict[str, Tuple[str, ...]] = {}
        queue: List[Tuple[str, Tuple[str, ...]]] = [
            (r, (r,)) for r in roots if r in self.model.functions
        ]
        while queue:
            qual, path = queue.pop(0)
            if qual in out:
                continue
            out[qual] = path
            if qual in stop:
                continue
            for callee in self.resolved_callees(qual):
                if callee not in out:
                    queue.append((callee, path + (callee,)))
        return out


def chain_trace(
    model: ProjectModel, path: Tuple[str, ...], root_note: str
) -> Tuple[str, ...]:
    """One ``path:line: qualname (note)`` step per function on ``path``.

    ``path`` is a :meth:`CallGraph.reachable_from` chain; the root's note
    says why it is a root, every later step names its caller.
    """
    out: List[str] = []
    for i, qual in enumerate(path):
        fn = model.functions[qual]
        note = (
            root_note if i == 0
            else f"called by {short_qualname(path[i - 1])}"
        )
        out.append(f"{fn.module.path}:{fn.lineno}: {qual} ({note})")
    return tuple(out)
