"""simlint — repo-specific determinism linter for the simulator codebase.

The paper's results are reproducible only because every simulation run is
deterministic for a fixed seed: byte-identical ``repro reproduce`` reports,
exact ``throughput_rps`` equality in the bench regression gate, and the
scheduler/fast-path equivalence suites all depend on it.  simlint is an
AST-based static-analysis pass that catches the code patterns which break
that guarantee *before* they reach a run.  The rule catalog (ids,
summaries, ``--explain`` text) lives in :mod:`repro.analysis.rules`:
REP001–REP008 and REP108 run here, one module at a time.

REP001, REP003, REP007, REP008 and REP108 are *source rules*: rows of
:data:`SCOPED_RULES` naming which kinds of external call — classified
once, by :func:`repro.analysis.modules.source_kind` — they flag in which
package directories.  REP002 and REP004–REP006 apply everywhere.

Suppression
-----------
Append ``# simlint: disable=REP002`` (comma-separate several rules, or
omit the ``=`` part to disable every rule) to the flagged line.  The
comment must sit on the same line the finding is reported at.

Usage::

    repro lint                      # lint src/ (the CI gate)
    repro lint src tests            # explicit paths
    repro lint --format json        # machine-readable output
    repro lint --select REP001,REP004

Exit status is 0 when no findings survive suppression, 1 otherwise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .modules import (
    CLOCK,
    RNG_DRAW,
    RNG_UNSEEDED,
    WALL_CLOCK,
    ModuleInfo,
    source_kind,
)

__all__ = [
    "Finding", "RULES", "SCOPED_RULES", "ScopedRule", "lint_source",
    "lint_module", "lint_file",
]

#: Rule id -> one-line description.  Derived from the table-driven
#: registry in :mod:`repro.analysis.rules` (the single source of truth
#: for ids, summaries, and ``--explain`` text); re-exported here for
#: backwards compatibility.
from .rules import RULES  # noqa: E402  (re-export)


@dataclass(frozen=True)
class ScopedRule:
    """A source rule: which source kinds it flags, and in which packages."""

    rule: str
    kinds: Tuple[str, ...]
    #: Package directory names; the rule applies under any of them ...
    scope: Tuple[str, ...]
    #: ... unless the module also sits under one of these.
    exempt: Tuple[str, ...]
    #: ``{site}`` is the flagged call or import.
    message: str
    #: Flag ``assert`` statements whose condition makes such a call,
    #: rather than the calls themselves.
    in_assert: bool = False

    def applies(self, dirs: Set[str]) -> bool:
        return not dirs.isdisjoint(self.scope) and dirs.isdisjoint(self.exempt)


#: The source rules.  ``live`` counts as simulation code for REP001 (the
#: loadtest's arrival process must be seeded for replayable runs) but is
#: exempt from the wall-clock rules: there, wall-clock seconds *are* the
#: policies' injected Clock.  ``chaos`` is outside REP003's scope because
#: soak mode budgets real minutes; REP008 polices wall-clock asserts there,
#: and its float-literal half shares the row's scope.
SCOPED_RULES: Tuple[ScopedRule, ...] = (
    ScopedRule(
        "REP001", (RNG_DRAW,),
        ("des", "sim", "servers", "cluster", "faults", "netfaults",
         "workload", "chaos", "live"), (),
        "{site} uses the global RNG; use a seeded random.Random(seed) or "
        "numpy.random.default_rng(seed) instance",
    ),
    ScopedRule(
        "REP003", (WALL_CLOCK,),
        ("des", "sim", "servers", "cluster", "faults", "netfaults"),
        ("live",),
        "{site} reads the wall clock; simulation code must use env.now",
    ),
    ScopedRule(
        "REP007", (RNG_UNSEEDED,), ("faults", "netfaults", "chaos"), (),
        "{site} has no seed and draws entropy from the OS; fault-injection "
        "schedules must replay for a fixed seed — pass an explicit seed",
    ),
    ScopedRule(
        "REP008", (WALL_CLOCK,), ("chaos",), ("live",),
        "assert derives from a {site}: a wall-clock condition makes the "
        "verdict depend on machine speed; assert on simulated state "
        "instead",
        in_assert=True,
    ),
    ScopedRule(
        "REP108", (WALL_CLOCK, CLOCK), ("overload",), (),
        "{site}: overload components take `now` as an argument and never "
        "read a clock — wall time here breaks byte-identical sim replay "
        "and sim-vs-live scoring",
    ),
)

#: Set-producing methods whose result is itself unordered.
_SET_OP_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
#: Callables for which a mutable result as a default argument is shared.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


@dataclass(frozen=True)
class Finding:
    """One lint finding at a source location.

    Whole-program findings (REP101+) carry a ``trace``: the chain of
    steps from the nondeterminism source (or hotpath/async root) to the
    reported line, each step a human-readable ``path:line: note`` string.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    trace: Tuple[str, ...] = ()

    def render(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if not self.trace:
            return head
        steps = "\n".join(f"    {step}" for step in self.trace)
        return f"{head}\n{steps}"

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.trace:
            out["trace"] = list(self.trace)
        return out


class _SetInference(ast.NodeVisitor):
    """First pass: collect names/attributes statically known to hold sets."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.set_attrs: Set[str] = set()

    @staticmethod
    def _is_set_expr(node: Optional[ast.AST]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    @staticmethod
    def _is_set_annotation(node: Optional[ast.AST]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("set", "frozenset", "Set", "FrozenSet")
        if isinstance(node, ast.Subscript):
            return _SetInference._is_set_annotation(node.value)
        if isinstance(node, ast.Attribute):  # typing.Set[...]
            return node.attr in ("Set", "FrozenSet")
        return False

    def _record_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.set_attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                self._record_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_set_expr(node.value) or self._is_set_annotation(
            node.annotation
        ):
            self._record_target(node.target)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if self._is_set_annotation(node.annotation):
            self.set_names.add(node.arg)
        self.generic_visit(node)


class _Checker(ast.NodeVisitor):
    """Second pass: emit findings."""

    def __init__(
        self, mod: ModuleInfo, sets: _SetInference, active: Set[str]
    ) -> None:
        self.mod = mod
        self.sets = sets
        self.active = active
        self.rows = [r for r in SCOPED_RULES if r.rule in active]
        self.findings: List[Finding] = []

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule not in self.active:
            return
        self.findings.append(
            Finding(
                path=self.mod.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    # -- source rules (SCOPED_RULES) ---------------------------------------

    def _source(
        self, node: ast.AST, kind: Optional[str], site: str,
        in_assert: bool = False,
    ) -> bool:
        """Emit each row flagging ``kind`` at ``node``; True if any did."""
        rows = [
            r for r in self.rows if kind in r.kinds and r.in_assert == in_assert
        ]
        for row in rows:
            self._emit(node, row.rule, row.message.format(site=site))
        return bool(rows)

    def _call_source(
        self, node: ast.AST, call: ast.Call, in_assert: bool = False
    ) -> bool:
        target = self.mod.ext.call_target(call.func)
        return target is not None and self._source(
            node, source_kind(target, call), f"call to {target}()", in_assert
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._source(node, source_kind(alias.name), f"import of {alias.name!r}")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and not node.level:
            self._source(
                node, source_kind(node.module), f"import from {node.module!r}"
            )

    def visit_Assert(self, node: ast.Assert) -> None:
        for sub in ast.walk(node.test):
            if isinstance(sub, ast.Call) and self._call_source(
                node, sub, in_assert=True
            ):
                break
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._call_source(node, node)
        self._check_id_ordering(node)
        # REP002 — eager conversions of set-typed expressions.
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("list", "tuple", "enumerate", "iter") and node.args:
                self._check_unordered(node.args[0], f"{func.id}() over")
            elif func.id in ("min", "max") and node.args:
                # With a key function, ties resolve by iteration order.
                if any(kw.arg == "key" for kw in node.keywords):
                    self._check_unordered(
                        node.args[0], f"{func.id}(key=...) over"
                    )
        self.generic_visit(node)

    # -- REP004 ------------------------------------------------------------

    @staticmethod
    def _contains_id_call(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
        return False

    def _check_id_ordering(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "sort":
            name = "sort"
        if name in ("sorted", "min", "max", "sort"):
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if isinstance(kw.value, ast.Name) and kw.value.id == "id":
                    self._emit(
                        node,
                        "REP004",
                        f"{name}(key=id) orders by object address; ids vary "
                        "between runs",
                    )
                elif isinstance(kw.value, ast.Lambda) and self._contains_id_call(
                    kw.value.body
                ):
                    self._emit(
                        node,
                        "REP004",
                        f"{name}() key derives from id(); ids vary between "
                        "runs",
                    )
        elif name == "hash" and node.args and self._contains_id_call(
            node.args[0]
        ):
            self._emit(
                node,
                "REP004",
                "hash(id(...)) derives a hash from an object address; ids "
                "vary between runs",
            )

    def visit_Compare(self, node: ast.Compare) -> None:
        ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        operands = [node.left, *node.comparators]
        if any(isinstance(op, ordering) for op in node.ops):
            if any(
                isinstance(o, ast.Call)
                and isinstance(o.func, ast.Name)
                and o.func.id == "id"
                for o in operands
            ):
                self._emit(
                    node,
                    "REP004",
                    "comparison of id() values orders by object address; "
                    "ids vary between runs",
                )
        # REP008 — float-literal equality in chaos/oracle code.
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in operands:
                if isinstance(operand, ast.Constant) and isinstance(
                    operand.value, float
                ):
                    self._emit(
                        node,
                        "REP008",
                        f"==/!= against the float literal "
                        f"{operand.value!r}: oracle verdicts must not "
                        "hinge on exact float representation; compare "
                        "with an inequality or an explicit tolerance",
                    )
                    break
        self.generic_visit(node)

    # -- REP002 ------------------------------------------------------------

    def _is_set_typed(self, node: ast.AST) -> Optional[str]:
        """A short description when ``node`` is statically set-typed."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a {func.id}()"
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    return "dict.keys()"
                if func.attr in _SET_OP_METHODS:
                    return f"a set .{func.attr}() result"
        if isinstance(node, ast.Name) and node.id in self.sets.set_names:
            return f"the set {node.id!r}"
        if (
            isinstance(node, ast.Attribute)
            and node.attr in self.sets.set_attrs
        ):
            return f"the set attribute {node.attr!r}"
        return None

    def _check_unordered(self, iter_node: ast.AST, context: str) -> None:
        desc = self._is_set_typed(iter_node)
        if desc is not None:
            self._emit(
                iter_node,
                "REP002",
                f"{context} {desc}: iteration order is not deterministic "
                "across runs; sort or use an ordered structure",
            )

    def visit_For(self, node: ast.For | ast.AsyncFor) -> None:
        self._check_unordered(node.iter, "for-loop over")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_unordered(gen.iter, "comprehension over")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- REP005 ------------------------------------------------------------

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                   ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            return name in _MUTABLE_FACTORIES
        return False

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable_default(default):
                self._emit(
                    default,
                    "REP005",
                    "mutable default argument is shared across calls; "
                    "default to None and allocate inside the function",
                )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    # -- REP006 ------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                node,
                "REP006",
                "bare except: catches and hides every failure; name the "
                "exceptions",
            )
        elif self._is_blanket(node.type) and self._only_passes(node.body):
            self._emit(
                node,
                "REP006",
                "blanket exception handler swallows callback failures; "
                "name the exceptions or handle the error",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_blanket(node: ast.AST) -> bool:
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Tuple):
            names = [e.id for e in node.elts if isinstance(e, ast.Name)]
        return any(n in ("Exception", "BaseException") for n in names)

    @staticmethod
    def _only_passes(body: Sequence[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in body
        )


def _active(mod: ModuleInfo, select: Optional[Set[str]]) -> Set[str]:
    """Selected rules minus the source rules scoped away from ``mod``."""
    active = set(RULES) if select is None else set(select)
    dirs = mod.scope_dirs
    return active - {r.rule for r in SCOPED_RULES if not r.applies(dirs)}


def lint_module(
    mod: ModuleInfo, select: Optional[Set[str]] = None
) -> List[Finding]:
    """Run the file-local rules over one parsed module."""
    sets = _SetInference()
    sets.visit(mod.tree)
    checker = _Checker(mod, sets, _active(mod, select))
    checker.visit(mod.tree)
    out = [
        f for f in checker.findings if not mod.is_suppressed(f.line, f.rule)
    ]
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    """Lint one source string; ``path`` drives rule scoping."""
    try:
        mod = ModuleInfo.parse(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="REP000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    return lint_module(mod, select)


def lint_file(path: str, select: Optional[Set[str]] = None) -> List[Finding]:
    """Lint one file."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, path=str(path), select=select)
