"""Interprocedural nondeterminism taint analysis (REP101–REP103).

Sources
-------
External calls are classified by :func:`~.modules.source_kind`, the same
classifier the file-local source rules (REP001/003/007/008/108) use:

* **wall-clock** — ``time.time``/``monotonic``/``perf_counter`` (and the
  ``_ns`` variants), ``datetime.now``/``utcnow``/``today``.  Not a
  source inside ``repro.live`` modules, mirroring the REP003 exemption:
  there, wall seconds *are* the injected Clock.
* **rng** — draws from the module-level ``random``/``numpy.random`` API,
  and zero-argument instance constructors (``random.Random()``,
  ``numpy.random.default_rng()``).  Seeded constructors and draws from
  locally constructed seeded generators are clean.
* **entropy** — ``os.urandom``, ``uuid.uuid1``/``uuid4``, ``secrets.*``.
* **set-order** — the loop variable of iteration over a value the
  analysis knows is a set (literal, ``set()`` call, set-op method), and
  ``.pop()`` on such a value.  ``sorted()`` (and ``len``/``min``/``max``/
  ``sum``) launder this kind: order no longer matters after them.

Propagation is summary-based: each function gets a summary (taints
reaching its return value, parameter→return flows, taints observed
flowing into each parameter from call sites) and the engine iterates the
intraprocedural transfer over all project functions until the summaries
stop changing (depth-capped).  Every taint carries its provenance chain;
crossing a call appends a step, so a finding renders the full
source → sink path.

Sinks
-----
* REP101 — kernel scheduling calls: ``call_later`` and ``schedule``.
* REP102 — ``SimResult(...)`` construction (any argument).
* REP103 — ``Scenario(...)`` / ``PlanItem(...)`` construction and
  methods of ``ScenarioGenerator`` subclasses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, ResolvedCall
from .modules import (
    ENTROPY,
    RNG_DRAW,
    RNG_UNSEEDED,
    SEEDABLE_CTORS,
    WALL_CLOCK,
    FunctionInfo,
    ProjectModel,
    dotted_name,
    short_qualname,
    source_kind,
)
from .simlint import Finding

__all__ = ["TaintPass", "run"]

#: Source kind -> (taint kind, description template for the target).
_SOURCES = {
    WALL_CLOCK: ("wall-clock", "{}()"),
    RNG_DRAW: ("rng", "global RNG draw {}()"),
    RNG_UNSEEDED: ("rng", "{}() with no seed"),
    ENTROPY: ("entropy", "{}()"),
}
#: Builtins whose result no longer depends on the input's *order*.
_ORDER_LAUNDER = {"sorted", "len", "min", "max", "sum", "frozenset", "set"}

_SCHEDULING_SINKS = {"call_later", "schedule"}

#: Max provenance steps kept per taint (also bounds fixpoint growth).
_MAX_STEPS = 10
#: Max global fixpoint rounds (bounds call-chain depth the analysis sees).
_MAX_ROUNDS = 12


@dataclass(frozen=True, order=True)
class Taint:
    """One nondeterminism source, plus the path it took to get here."""

    kind: str  # wall-clock | rng | entropy | set-order | param
    desc: str
    path: str
    line: int
    steps: Tuple[str, ...] = ()
    #: For kind == "param": which parameter of the summarized function.
    param: int = -1

    def step(self, note: str) -> Optional["Taint"]:
        if len(self.steps) >= _MAX_STEPS:
            return None
        return replace(self, steps=self.steps + (note,))

    def trace(self, sink_note: str) -> Tuple[str, ...]:
        head = f"{self.path}:{self.line}: source ({self.kind}): {self.desc}"
        return (head, *self.steps, sink_note)


TaintSet = FrozenSet[Taint]
_EMPTY: TaintSet = frozenset()


@dataclass
class Summary:
    """What a function does with taint, as seen so far."""

    returns: TaintSet = _EMPTY
    param_to_return: FrozenSet[int] = frozenset()
    #: Taints call sites have injected into each parameter index.
    param_taints: Dict[int, TaintSet] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.param_taints is None:
            self.param_taints = {}


def _param_names(fn: FunctionInfo) -> List[str]:
    args = fn.node.args  # type: ignore[attr-defined]
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


class _FunctionAnalysis:
    """One intraprocedural transfer of taint through a function body."""

    def __init__(
        self,
        owner: "TaintPass",
        fn: FunctionInfo,
        collect_sinks: bool = False,
    ) -> None:
        self.owner = owner
        self.fn = fn
        self.mod = fn.module
        self.collect = collect_sinks
        self.env: Dict[str, Set[Taint]] = {}
        self.returns: Set[Taint] = set()
        self.param_to_return: Set[int] = set()
        #: name -> True when the analysis knows the value is a set.
        self.set_vars: Set[str] = set()
        #: names bound to *seeded* RNG instances — their draws are clean.
        self.seeded_rngs: Set[str] = set()
        self.calls_by_pos: Dict[Tuple[int, int], ResolvedCall] = {
            (c.node.lineno, c.node.col_offset): c
            for c in owner.graph.callees(fn.qualname)
        }
        params = _param_names(fn)
        summary = owner.summaries[fn.qualname]
        for i, name in enumerate(params):
            taints: Set[Taint] = {
                Taint(kind="param", desc=name, path=self.mod.path,
                      line=fn.lineno, param=i)
            }
            taints |= set(summary.param_taints.get(i, _EMPTY))
            self.env[name] = taints

    # -- driving -----------------------------------------------------------

    def run(self) -> None:
        body = self.fn.node.body  # type: ignore[attr-defined]
        # Two passes pick up loop-carried taint (x tainted late in the
        # loop body, read early on the next iteration).
        for _ in range(2):
            for stmt in body:
                self.visit_stmt(stmt)

    # -- statements --------------------------------------------------------

    def visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own functions
        if isinstance(node, ast.Return):
            if node.value is not None:
                for t in self.eval(node.value):
                    if t.kind == "param":
                        self.param_to_return.add(t.param)
                    else:
                        self.returns.add(t)
            return
        if isinstance(node, ast.Assign):
            taints = self.eval(node.value)
            self._note_set_binding(node.targets, node.value)
            self._note_rng_binding(node.targets, node.value)
            for tgt in node.targets:
                self.assign(tgt, taints)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                taints = self.eval(node.value)
                self._note_set_binding([node.target], node.value)
                self._note_rng_binding([node.target], node.value)
                self.assign(node.target, taints)
            return
        if isinstance(node, ast.AugAssign):
            taints = self.eval(node.value) | self.read(node.target)
            self.assign(node.target, taints)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_taints = set(self.eval(node.iter))
            if self._is_set_expr(node.iter):
                iter_taints.add(
                    Taint(
                        kind="set-order",
                        desc=f"iteration over a set "
                        f"({ast.unparse(node.iter)})",
                        path=self.mod.path,
                        line=node.iter.lineno,
                    )
                )
            self.assign(node.target, iter_taints)
            for stmt in node.body:
                self.visit_stmt(stmt)
            for stmt in node.orelse:
                self.visit_stmt(stmt)
            return
        if isinstance(node, (ast.If, ast.While)):
            self.eval(node.test)
            for stmt in node.body:
                self.visit_stmt(stmt)
            for stmt in node.orelse:
                self.visit_stmt(stmt)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taints = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, taints)
            for stmt in node.body:
                self.visit_stmt(stmt)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body:
                self.visit_stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self.visit_stmt(stmt)
            for stmt in node.orelse:
                self.visit_stmt(stmt)
            for stmt in node.finalbody:
                self.visit_stmt(stmt)
            return
        if isinstance(node, ast.Expr):
            self.eval(node.value)
            return
        # Everything else (pass, raise, import, global, ...): evaluate
        # any embedded expressions for their call effects.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)

    def assign(self, target: ast.expr, taints: Set[Taint]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(taints)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            self.env[f"self.{target.attr}"] = set(taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, taints)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, taints)
        # Subscript stores: fold into the container's taint.
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            self.env.setdefault(target.value.id, set()).update(taints)

    def read(self, node: ast.expr) -> Set[Taint]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self":
            return set(self.env.get(f"self.{node.attr}", ()))
        return set()

    # -- set / rng inference ----------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "set":
                return True
            if isinstance(f, ast.Attribute) and f.attr in (
                "intersection", "union", "difference", "symmetric_difference",
            ):
                return self._is_set_expr(f.value)
        return False

    def _note_set_binding(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        is_set = self._is_set_expr(value)
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                if is_set:
                    self.set_vars.add(tgt.id)
                else:
                    self.set_vars.discard(tgt.id)

    def _note_rng_binding(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        """Track ``rng = random.Random(seed)`` so ``rng.random()`` is clean."""
        if not (isinstance(value, ast.Call) and (value.args or value.keywords)):
            return
        ext = self.mod.ext.call_target(value.func) or ""
        # Unresolved spellings (``rng_mod.Random(seed)``) count by name.
        name = (dotted_name(value.func) or "").rpartition(".")[2]
        if not any(c == ext or c.endswith(f".{name}") for c in SEEDABLE_CTORS):
            return
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                self.seeded_rngs.add(tgt.id)
            elif isinstance(tgt, ast.Attribute) and isinstance(
                tgt.value, ast.Name
            ) and tgt.value.id == "self":
                self.seeded_rngs.add(f"self.{tgt.attr}")

    def _receiver_name(self, func: ast.expr) -> Optional[str]:
        if not isinstance(func, ast.Attribute):
            return None
        v = func.value
        if isinstance(v, ast.Name):
            return v.id
        if isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name) \
                and v.value.id == "self":
            return f"self.{v.attr}"
        return None

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr) -> Set[Taint]:
        if isinstance(node, (ast.Name, ast.Attribute)):
            direct = self.read(node)
            if direct or isinstance(node, ast.Name):
                return direct
            return self.eval(node.value)  # obj.attr: taint of obj
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            out: Set[Taint] = set()
            for gen in node.generators:
                out |= self.eval(gen.iter)
                if self._is_set_expr(gen.iter):
                    out.add(
                        Taint(
                            kind="set-order",
                            desc=f"comprehension over a set "
                            f"({ast.unparse(gen.iter)})",
                            path=self.mod.path,
                            line=gen.iter.lineno,
                        )
                    )
            return out
        out = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval(child)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                out |= self.eval(child.value)
        return out

    def eval_call(self, node: ast.Call) -> Set[Taint]:
        arg_taints: List[Set[Taint]] = [self.eval(a) for a in node.args]
        kw_taints: Dict[str, Set[Taint]] = {
            kw.arg or "**": self.eval(kw.value) for kw in node.keywords
        }
        all_args: Set[Taint] = set().union(*arg_taints, *kw_taints.values()) \
            if (arg_taints or kw_taints) else set()

        source = self._source_taint(node)
        if source is not None:
            return all_args | {source}

        func = node.func
        fname = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )

        # Order-laundering builtins: drop set-order taint, keep the rest.
        if isinstance(func, ast.Name) and fname in _ORDER_LAUNDER:
            result = {t for t in sorted(all_args) if t.kind != "set-order"}
            return result

        site = self.calls_by_pos.get((node.lineno, node.col_offset))
        result = set()
        if site is not None and site.target in self.owner.summaries:
            callee = self.owner.model.functions[site.target]
            callee_summary = self.owner.summaries[site.target]
            # Push argument taints into the callee's parameters.
            self._push_args(site, callee, node, arg_taints, kw_taints)
            # Pull the callee's return taint back to this call site.
            short = short_qualname(self.fn.qualname)
            for t in sorted(callee_summary.returns):
                stepped = t.step(
                    f"{self.mod.path}:{node.lineno}: returned by "
                    f"{short_qualname(site.target)} into {short}"
                )
                if stepped is not None:
                    result.add(stepped)
            # Parameter->return flows: tainted arg i -> tainted result.
            for i in sorted(callee_summary.param_to_return):
                for t in self._arg_taint_at(
                    callee, node, arg_taints, kw_taints, i
                ):
                    stepped = t.step(
                        f"{self.mod.path}:{node.lineno}: flows through "
                        f"{short_qualname(site.target)} back into {short}"
                    )
                    if stepped is not None:
                        result.add(stepped)
            if self.collect:
                self.owner.check_sink(self, site, node, arg_taints, kw_taints)
            # A resolved project call's result carries only what the
            # summary says — taints in args were pushed into the callee,
            # not implicitly returned.
            return result
        # Unknown callee (builtin/external/unresolved method): assume the
        # result is tainted if any argument or the receiver is.
        recv = self._receiver_name(func)
        if recv is not None:
            all_args |= set(self.env.get(recv, ()))
        if self.collect and site is not None:
            self.owner.check_sink(self, site, node, arg_taints, kw_taints)
        return all_args

    def _push_args(
        self,
        site: ResolvedCall,
        callee: FunctionInfo,
        node: ast.Call,
        arg_taints: List[Set[Taint]],
        kw_taints: Dict[str, Set[Taint]],
    ) -> None:
        params = _param_names(callee)
        is_method = callee.cls is not None and params[:1] == ["self"]
        offset = 1 if is_method else 0
        summary = self.owner.summaries[callee.qualname]
        short_callee = short_qualname(callee.qualname)
        changed = False

        def push(index: int, taints: Set[Taint]) -> None:
            nonlocal changed
            real = set()
            for t in sorted(taints):
                if t.kind == "param":
                    continue
                stepped = t.step(
                    f"{self.mod.path}:{node.lineno}: passed to "
                    f"{short_callee} by {short_qualname(self.fn.qualname)}"
                )
                if stepped is not None:
                    real.add(stepped)
            if not real:
                return
            cur = summary.param_taints.get(index, _EMPTY)
            new = cur | frozenset(real)
            if new != cur:
                summary.param_taints[index] = new
                changed = True

        for pos, taints in enumerate(arg_taints):
            push(pos + offset, taints)
        for kwname, taints in kw_taints.items():
            if kwname in params:
                push(params.index(kwname), taints)
        if changed:
            self.owner.dirty.add(callee.qualname)

    def _arg_taint_at(
        self,
        callee: FunctionInfo,
        node: ast.Call,
        arg_taints: List[Set[Taint]],
        kw_taints: Dict[str, Set[Taint]],
        index: int,
    ) -> Set[Taint]:
        params = _param_names(callee)
        is_method = callee.cls is not None and params[:1] == ["self"]
        offset = 1 if is_method else 0
        pos = index - offset
        out: Set[Taint] = set()
        if 0 <= pos < len(arg_taints):
            out |= arg_taints[pos]
        if 0 <= index < len(params) and params[index] in kw_taints:
            out |= kw_taints[params[index]]
        return {t for t in sorted(out) if t.kind != "param"}

    def _source_taint(self, node: ast.Call) -> Optional[Taint]:
        """Taint introduced by this very call, if it is a source."""
        mod = self.mod
        ext = mod.ext.call_target(node.func)
        live = "live" in mod.scope_dirs

        def mk(kind: str, desc: str) -> Taint:
            return Taint(kind=kind, desc=desc, path=mod.path,
                         line=node.lineno)

        if ext is not None:
            kind = source_kind(ext, node)
            source = _SOURCES.get(kind) if kind is not None else None
            if source is None or (live and kind == WALL_CLOCK):
                return None
            return mk(source[0], source[1].format(ext))

        # Draws on a *known seeded* instance are clean; ``.pop()`` on a
        # known set is order-tainted.
        recv = self._receiver_name(node.func)
        if recv is not None and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if recv in self.seeded_rngs:
                return None
            if attr == "pop" and (
                recv in self.set_vars
            ) and not node.args:
                return mk("set-order", f"{recv}.pop() on a set")
        return None


class TaintPass:
    """Drives the summary fixpoint and collects sink findings."""

    def __init__(self, model: ProjectModel, graph: CallGraph) -> None:
        self.model = model
        self.graph = graph
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in model.functions
        }
        self.dirty: Set[str] = set()
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str, int, str, int]] = set()

    def run(self) -> List[Finding]:
        order = list(self.model.functions)
        for round_no in range(_MAX_ROUNDS):
            changed = False
            for qual in order:
                fn = self.model.functions[qual]
                fa = _FunctionAnalysis(self, fn)
                fa.run()
                summary = self.summaries[qual]
                new_returns = frozenset(fa.returns)
                new_p2r = frozenset(fa.param_to_return)
                if (new_returns != summary.returns
                        or new_p2r != summary.param_to_return):
                    summary.returns = new_returns
                    summary.param_to_return = new_p2r
                    changed = True
            if self.dirty:
                changed = True
                self.dirty.clear()
            if not changed:
                break
        # Final pass: evaluate every function once more, with stable
        # summaries, collecting sink findings.
        for qual in order:
            fn = self.model.functions[qual]
            fa = _FunctionAnalysis(self, fn, collect_sinks=True)
            fa.run()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return self.findings

    # -- sinks -------------------------------------------------------------

    def _sink_rule(
        self, site: ResolvedCall, node: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """(rule, sink description) when this call is a sink."""
        name = site.attr_name or ""
        cls = (site.class_target or "").rpartition(".")[2]
        if name in _SCHEDULING_SINKS:
            return "REP101", f"scheduling call {name}(...)"
        if cls == "SimResult" or name == "SimResult":
            return "REP102", "SimResult(...) construction"
        if cls in ("Scenario", "PlanItem") or name in ("Scenario", "PlanItem"):
            return "REP103", f"{cls or name}(...) scenario construction"
        if site.target:
            owner = site.target.rpartition(".")[0]
            owner_cls = self.model.classes.get(owner)
            if owner_cls is not None and any(
                c.name == "ScenarioGenerator"
                for c in self.model.mro(owner_cls)
            ):
                return "REP103", f"ScenarioGenerator method {name}(...)"
        return None

    def check_sink(
        self,
        fa: _FunctionAnalysis,
        site: ResolvedCall,
        node: ast.Call,
        arg_taints: List[Set[Taint]],
        kw_taints: Dict[str, Set[Taint]],
    ) -> None:
        hit = self._sink_rule(site, node)
        if hit is None:
            return
        rule, sink_desc = hit
        mod = fa.mod
        if mod.is_suppressed(node.lineno, rule):
            return
        tainted: Set[Taint] = set()
        for taints in arg_taints:
            tainted |= taints
        for taints in kw_taints.values():
            tainted |= taints
        for t in sorted(tainted):
            if t.kind == "param":
                continue
            key = (rule, mod.path, node.lineno, t.path, t.line)
            if key in self._seen:
                continue
            self._seen.add(key)
            sink_note = (
                f"{mod.path}:{node.lineno}: sink: {sink_desc} in "
                f"{short_qualname(fa.fn.qualname)}"
            )
            self.findings.append(
                Finding(
                    path=mod.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=rule,
                    message=(
                        f"{t.kind} value from {t.path}:{t.line} "
                        f"({t.desc}) reaches {sink_desc}"
                    ),
                    trace=t.trace(sink_note),
                )
            )


def run(model: ProjectModel, graph: CallGraph) -> List[Finding]:
    """Run the taint pass; returns REP101–REP103 findings."""
    return TaintPass(model, graph).run()
