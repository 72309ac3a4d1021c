"""DistributionPolicy conformance pass (REP107).

Both substrates — the DES driver and ``repro.live``'s PolicyEngine —
assume every concrete ``DistributionPolicy`` upholds the same contract:

1. ``check_invariants`` is implemented (by the class or a non-base
   ancestor).  The chaos oracle calls it mid-run and post-run; a policy
   that silently inherits the base's empty list opts out of the
   invariant gate without anyone noticing.
2. An overridden ``bind`` / ``__init__`` calls ``super()`` — the base
   ``bind`` wires ``cluster``/``clock``/failed-node state *before*
   ``_setup`` and any hook fires, identically on both substrates.
3. Policy code reads time through ``self.clock`` only.  Reaching into
   ``cluster.env`` couples the policy to the DES and breaks it silently
   when the live engine binds a ``WallClock``.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from .callgraph import CallGraph
from .modules import ClassInfo, FunctionInfo, ProjectModel, short_qualname
from .simlint import Finding

__all__ = ["run"]

_BASE_NAME = "DistributionPolicy"


def _calls_super(fn: FunctionInfo, method: str) -> bool:
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False


def _env_reads(fn: FunctionInfo) -> List[Tuple[int, int, str]]:
    """``<anything>.cluster.env`` attribute chains inside ``fn``."""
    out = []
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "env"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "cluster"
        ):
            out.append(
                (node.lineno, node.col_offset + 1,
                 ast.unparse(node))
            )
    return out


def run(model: ProjectModel, graph: CallGraph) -> List[Finding]:
    del graph  # contract checks are hierarchy-based, not call-based
    bases = model.classes_by_name.get(_BASE_NAME, [])
    if not bases:
        return []
    base_quals: Set[str] = set(bases)
    findings: List[Finding] = []
    seen: Set[str] = set()
    for base in bases:
        for cls in model.subclasses(base):
            if cls.qualname in seen or cls.qualname in base_quals:
                continue
            seen.add(cls.qualname)
            findings.extend(_check_policy(model, cls, base_quals))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def _check_policy(
    model: ProjectModel, cls: ClassInfo, base_quals: Set[str]
) -> List[Finding]:
    findings: List[Finding] = []
    mod = cls.module
    cls_trace = (
        f"{mod.path}:{cls.lineno}: class {cls.qualname}"
        f"({', '.join(cls.base_names)})",
    )

    # (1) check_invariants must come from below the base class.
    impl = model.lookup_method(cls, "check_invariants")
    impl_owner = impl.cls.qualname if impl and impl.cls else None
    if impl is None or impl_owner in base_quals:
        if not mod.is_suppressed(cls.lineno, "REP107"):
            where = (
                "only the DistributionPolicy base no-op" if impl is not None
                else "nothing"
            )
            findings.append(
                Finding(
                    path=mod.path, line=cls.lineno,
                    col=cls.node.col_offset + 1, rule="REP107",
                    message=(
                        f"policy {cls.name} resolves check_invariants to "
                        f"{where}; the chaos oracle's invariant gate is a "
                        "silent no-op for it"
                    ),
                    trace=cls_trace + (
                        f"{mod.path}:{cls.lineno}: no check_invariants "
                        "override anywhere in its MRO below the base",
                    ),
                )
            )

    # (2) overridden bind/__init__ must call super().
    for method in ("bind", "__init__"):
        own = cls.methods.get(method)
        if own is None:
            continue
        if not _calls_super(own, method):
            if mod.is_suppressed(own.lineno, "REP107"):
                continue
            findings.append(
                Finding(
                    path=mod.path, line=own.lineno,
                    col=own.node.col_offset + 1, rule="REP107",
                    message=(
                        f"{cls.name}.{method} overrides the base without "
                        f"calling super().{method}(); cluster/clock wiring "
                        "is skipped before hooks fire"
                    ),
                    trace=cls_trace + (
                        f"{mod.path}:{own.lineno}: def {method} has no "
                        f"super().{method}(...) call",
                    ),
                )
            )

    # (3) no ``*.cluster.env`` reads in the policy's own methods
    # (inherited methods are reported on the class that defines them).
    for m in cls.methods.values():
        for line, col, text in _env_reads(m):
            if mod.is_suppressed(line, "REP107"):
                continue
            findings.append(
                Finding(
                    path=mod.path, line=line, col=col, rule="REP107",
                    message=(
                        f"{cls.name}.{m.name} reads {text}: policies "
                        "must read time via self.clock so they run on "
                        "the live substrate"
                    ),
                    trace=cls_trace + (
                        f"{mod.path}:{line}: {text} read in "
                        f"{short_qualname(m.qualname)}",
                    ),
                )
            )
    return findings
