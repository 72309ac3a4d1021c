"""Whole-program project model for simlint v2.

The v1 linter parses one file at a time, so it cannot see a wall-clock
value flowing through three calls into ``Environment.schedule`` or an
allocation introduced two calls below a kernel fast path.  This module
parses the whole package tree *once* and builds the shared substrate the
interprocedural passes (:mod:`callgraph`, :mod:`taint`, :mod:`hotpath`,
:mod:`asyncsafe`, :mod:`conformance`) work from:

* every module's AST, import-alias resolution (``import numpy as np``,
  ``from ..cluster import Cluster``), and suppression comments;
* every function and class, addressable by dotted qualname
  (``repro.des.core.Environment.step``);
* a project-internal class hierarchy (bases resolved through imports)
  with linearized method lookup;
* ``# simlint: hotpath`` / ``# simlint: coldpath`` function markers;
* per-module external-import maps (which local names denote the
  ``time``/``random``/``numpy.random``/... modules) and the one
  classifier, :func:`source_kind`, that says which resolved external
  calls are wall-clock reads, RNG draws, or OS entropy.

Every consumer reads the same :class:`ModuleInfo`: the file-local rules
(:mod:`simlint`) and the whole-program passes alike, so ``repro lint``
parses each file once.

The model is deliberately *not* a type checker: it resolves what this
codebase actually writes (direct imports, ``self`` methods, annotated
parameters, ``x = ClassName(...)`` locals) and reports everything else
as unresolved rather than guessing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = [
    "ExternalImports",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectModel",
    "dotted_name",
    "package_roots",
    "python_files",
    "short_qualname",
    "source_kind",
]

_EXCLUDED_DIRS = {"__pycache__", ".git", "build", "dist", ".venv"}

_MARKER_RE = re.compile(r"#\s*simlint:\s*(hotpath|coldpath)\b")
_DISABLE_RE = re.compile(
    r"#\s*simlint:\s*disable(?:\s*=\s*(?P<rules>[A-Z0-9,\s]+))?"
)


def python_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file among ``paths`` (files as given, dirs walked)."""
    files: List[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            files.append(str(p))
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if set(sub.parts) & _EXCLUDED_DIRS or any(
                    part.endswith(".egg-info") for part in sub.parts
                ):
                    continue
                files.append(str(sub))
    return files


def package_roots(paths: Sequence[str]) -> List[Path]:
    """Package directories among ``paths`` (or their immediate children).

    ``src`` itself is no package, but ``src/repro`` is; passing either
    must run the whole-program passes over the package.
    """
    roots: List[Path] = []
    seen: Set[str] = set()
    for raw in paths:
        p = Path(raw)
        if not p.is_dir():
            continue
        candidates = (
            [p] if (p / "__init__.py").is_file() else sorted(p.iterdir())
        )
        for child in candidates:
            key = str(child.resolve())
            if (child / "__init__.py").is_file() and key not in seen:
                seen.add(key)
                roots.append(child)
    return roots


def short_qualname(qualname: str) -> str:
    """``repro.des.core.Environment.step`` -> ``Environment.step``."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ExternalImports:
    """Which local names denote tracked *external* modules and members.

    One instance per module.  Every rule that recognizes an external
    call (wall-clock reads, RNG draws and constructors, entropy, blocking
    calls) resolves it through :meth:`call_target`, so import style and
    aliasing never matter.
    """

    #: Top-level packages whose imports are tracked.
    _TRACKED = {
        "time", "datetime", "random", "numpy", "os", "uuid", "secrets",
        "subprocess", "socket", "urllib", "requests",
    }

    def __init__(self) -> None:
        #: local name -> the external module, function or class it is
        #: bound to (``import numpy as np`` -> {"np": "numpy"},
        #: ``from time import monotonic as mono`` -> {"mono":
        #: "time.monotonic"}).
        self.names: Dict[str, str] = {}

    def bind(self, name: str, target: str) -> None:
        """Record an absolute import binding ``name`` to ``target``."""
        if target.partition(".")[0] in self._TRACKED:
            self.names[name] = target

    def call_target(self, func: ast.AST) -> Optional[str]:
        """Fully qualified external target of a call's func, if known.

        ``np.random.rand`` -> "numpy.random.rand"; after ``from datetime
        import datetime``, ``datetime.now`` -> "datetime.datetime.now".
        """
        name = dotted_name(func)
        head, _, rest = (name or "").partition(".")
        base = self.names.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base


#: Source kinds :func:`source_kind` assigns.  Each names one way an
#: external call breaks seeded replay.
WALL_CLOCK = "wall-clock"      # reads the host clock
RNG_DRAW = "rng-draw"          # uses the global random/numpy.random state
RNG_UNSEEDED = "rng-unseeded"  # a seedable RNG constructed with no seed
ENTROPY = "entropy"            # os.urandom, uuid1/uuid4, secrets.*
CLOCK = "clock"                # any other use of the time/datetime modules

_CLOCK_MODULES = ("time", "datetime")
_TIME_READS = frozenset(
    f"time.{name}"
    for name in ("time", "time_ns", "monotonic", "monotonic_ns",
                 "perf_counter", "perf_counter_ns", "process_time",
                 "process_time_ns", "localtime", "gmtime")
)
#: "What time is it" constructors on the datetime module's classes.
_DATETIME_READS = frozenset({"now", "utcnow", "today"})
#: RNG module -> attributes that are not draws from its global state
#: (seeded-generator constructors and state plumbing).
_RNG_SAFE = {
    "random": frozenset({"Random", "SystemRandom", "getstate", "setstate"}),
    "numpy.random": frozenset(
        {"default_rng", "Generator", "RandomState", "SeedSequence",
         "BitGenerator", "PCG64", "Philox", "MT19937", "SFC64"}
    ),
}
#: Constructors that take a seed; with no arguments they seed from the OS.
SEEDABLE_CTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)
_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})


def source_kind(target: str, call: Optional[ast.Call] = None) -> Optional[str]:
    """The nondeterminism source ``target`` is, if any.

    ``target`` is a call's resolved external target
    (:meth:`ExternalImports.call_target`, e.g. ``"time.monotonic"``) and
    ``call`` the call itself.  Without a call, ``target`` is an imported
    module name: importing ``time``/``datetime`` is a :data:`CLOCK` use.
    """
    root = target.partition(".")[0]
    if call is None:
        return CLOCK if root in _CLOCK_MODULES else None
    if root in _CLOCK_MODULES:
        wall = target in _TIME_READS or (
            root == "datetime" and target.rpartition(".")[2] in _DATETIME_READS
        )
        return WALL_CLOCK if wall else CLOCK
    rng = next((m for m in _RNG_SAFE if target.startswith(f"{m}.")), None)
    if rng is not None:
        if target[len(rng) + 1:] not in _RNG_SAFE[rng]:
            return RNG_DRAW
        if target in SEEDABLE_CTORS and not (call.args or call.keywords):
            return RNG_UNSEEDED
        return None
    if target in _ENTROPY_CALLS or root == "secrets":
        return ENTROPY
    return None


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: "ModuleInfo"
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional["ClassInfo"] = None
    hotpath: bool = False
    coldpath: bool = False

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fn {self.qualname}>"


@dataclass
class ClassInfo:
    """One class in the project, with project-resolved bases."""

    qualname: str
    module: "ModuleInfo"
    name: str
    node: ast.ClassDef
    #: Base classes as project qualnames where resolvable, else the raw
    #: dotted source text (external bases like ``ABC`` stay raw).
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname, inferred from ``self.x =
    #: Cls(...)`` assignments and class-level annotations.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<class {self.qualname}>"


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    path: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    ext: ExternalImports = field(default_factory=ExternalImports)
    #: line -> suppressed rule ids (None = all) from ``# simlint: disable``.
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(
        cls, source: str, path: str, name: Optional[str] = None
    ) -> "ModuleInfo":
        """Parse one module; raises :class:`SyntaxError`.

        ``name`` defaults to the dotted form of ``path``.
        """
        tree = ast.parse(source, filename=path)
        if name is None:
            name = Path(path).with_suffix("").as_posix().replace("/", ".")
        mod = cls(name=name, path=path, tree=tree, lines=source.splitlines())
        mod._collect_imports()
        for lineno, line in enumerate(mod.lines, start=1):
            m = _DISABLE_RE.search(line)
            if m:
                rules = m.group("rules")
                mod.suppressions[lineno] = (
                    None if rules is None
                    else {r.strip() for r in rules.split(",") if r.strip()}
                )
        return mod

    def _collect_imports(self) -> None:
        """Fill :attr:`imports` and the external-import map :attr:`ext`."""
        pkg_parts = self.name.split(".")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else bound
                    self.imports[bound] = target
                    self.ext.bind(bound, target)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative import: resolve against this module's
                    # package (``__init__`` modules count as packages).
                    is_pkg = self.path.endswith("__init__.py")
                    drop = node.level - (1 if is_pkg else 0)
                    base = ".".join(pkg_parts[: len(pkg_parts) - drop])
                    target = f"{base}.{node.module}" if node.module else base
                else:
                    target = node.module or ""
                for alias in node.names:
                    bound = alias.asname or alias.name
                    full = f"{target}.{alias.name}" if target else alias.name
                    self.imports[bound] = full
                    if not node.level:
                        self.ext.bind(bound, full)

    @property
    def scope_dirs(self) -> Set[str]:
        """Names of the directories the module sits in (rule scoping)."""
        return set(Path(self.path).parent.parts)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        rules = self.suppressions.get(lineno, ())
        return rules is None or rule in rules

    def has_marker(self, node: ast.AST) -> Optional[str]:
        """``hotpath``/``coldpath`` marker on the def line or just above."""
        lineno = getattr(node, "lineno", 0)
        for candidate in (lineno, lineno - 1):
            m = _MARKER_RE.search(self.line_text(candidate))
            if m:
                return m.group(1)
        return None


class ProjectModel:
    """All modules of one package, cross-linked and resolvable."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        #: Every function/method by qualname.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Every class by qualname.
        self.classes: Dict[str, ClassInfo] = {}
        #: Class *name* -> qualnames (for name-based sink matching).
        self.classes_by_name: Dict[str, List[str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, root: Path) -> "ProjectModel":
        """Parse every ``.py`` under ``root`` (a package directory)."""
        root = Path(root)
        model = cls(package=root.name)
        for path in map(Path, python_files([str(root)])):
            rel = path.relative_to(root)
            dotted = [root.name, *rel.parts[:-1]]
            stem = rel.stem
            if stem != "__init__":
                dotted.append(stem)
            name = ".".join(dotted)
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:  # pragma: no cover - unreadable file
                continue
            model._add_source(name, str(path), source)
        model._link()
        return model

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], package: Optional[str] = None
    ) -> "ProjectModel":
        """Build a model from in-memory sources (tests, fixtures).

        Keys are dotted module names (``"pkg.a"``); synthetic paths are
        derived from them.
        """
        if package is None:
            package = next(iter(sources)).split(".")[0] if sources else "pkg"
        model = cls(package=package)
        for name, source in sources.items():
            path = name.replace(".", "/") + ".py"
            model._add_source(name, path, source)
        model._link()
        return model

    def _add_source(self, name: str, path: str, source: str) -> None:
        try:
            mod = ModuleInfo.parse(source, path, name)
        except SyntaxError:
            # Syntax errors are the file-local pass's REP000 problem; the
            # project model simply skips the module.
            return
        self._collect_defs(mod)
        self.modules[name] = mod

    def _collect_defs(self, mod: ModuleInfo) -> None:
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        cls: Optional[ClassInfo],
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        qual = f"{cls.qualname}.{name}" if cls else f"{mod.name}.{name}"
        marker = mod.has_marker(node)
        fn = FunctionInfo(
            qualname=qual, module=mod, name=name, node=node, cls=cls,
            hotpath=marker == "hotpath", coldpath=marker == "coldpath",
        )
        if cls is not None:
            cls.methods[name] = fn
        else:
            mod.functions[name] = fn
        self.functions[qual] = fn
        return fn

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.name}.{node.name}"
        info = ClassInfo(qualname=qual, module=mod, name=node.name, node=node)
        for base in node.bases:
            raw = dotted_name(base)
            if raw is not None:
                info.base_names.append(raw)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, item, cls=info)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                t = annotation_class_name(item.annotation)
                if t is not None:
                    info.attr_types[item.target.id] = t
        mod.classes[node.name] = info
        self.classes[qual] = info
        self.classes_by_name.setdefault(node.name, []).append(qual)

    def _link(self) -> None:
        """Resolve class bases and self-attr types after all modules load."""
        for cls in self.classes.values():
            resolved = []
            for raw in cls.base_names:
                target = self.resolve(cls.module, raw)
                resolved.append(target if target in self.classes else raw)
            cls.base_names = resolved
            # ``self.x = Cls(...)`` anywhere in the class body.
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    value = node.value
                    if not (
                        isinstance(value, ast.Call)
                        and dotted_name(value.func) is not None
                    ):
                        continue
                    target_cls = self.resolve(
                        cls.module, dotted_name(value.func)  # type: ignore[arg-type]
                    )
                    if target_cls not in self.classes:
                        continue
                    for tgt in node.targets:
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                        ):
                            cls.attr_types.setdefault(tgt.attr, target_cls)
            # Annotation strings in attr_types -> project qualnames.
            for attr, raw in list(cls.attr_types.items()):
                if raw not in self.classes:
                    target = self.resolve(cls.module, raw)
                    if target in self.classes:
                        cls.attr_types[attr] = target
                    else:
                        del cls.attr_types[attr]

    # -- resolution --------------------------------------------------------

    def resolve(self, mod: ModuleInfo, name: str) -> Optional[str]:
        """Resolve a dotted source name to a project qualname.

        Follows import aliases: in a module with ``from ..cluster import
        Cluster``, ``resolve(mod, "Cluster")`` is
        ``"repro.cluster.Cluster"``.  Returns ``None`` for names that do
        not land in the project.
        """
        if name is None:  # pragma: no cover - defensive
            return None
        head, _, rest = name.partition(".")
        target: Optional[str] = None
        if head in mod.imports:
            target = mod.imports[head]
        elif head in mod.classes:
            target = f"{mod.name}.{head}"
        elif head in mod.functions:
            target = f"{mod.name}.{head}"
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        # Normalize through re-exports: "repro.des.Environment" imported
        # from the package __init__ still names the class; chase one
        # level of package-module indirection.
        if full in self.classes or full in self.functions or full in self.modules:
            return full
        # ``pkg.mod.Class.method``-shaped?  Leave as-is for callers that
        # chase attributes themselves.
        parent, _, leaf = full.rpartition(".")
        if parent in self.modules:
            pm = self.modules[parent]
            if leaf in pm.imports:
                return self.resolve(pm, leaf)
        return full

    # -- class hierarchy ---------------------------------------------------

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Project-internal linearization (C3 is overkill here): the
        class, then bases depth-first, left to right, deduplicated."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()

        def walk(c: ClassInfo) -> None:
            if c.qualname in seen:
                return
            seen.add(c.qualname)
            out.append(c)
            for base in c.base_names:
                bc = self.classes.get(base)
                if bc is not None:
                    walk(bc)

        walk(cls)
        return out

    def lookup_method(
        self, cls: ClassInfo, name: str, *, skip_self: bool = False
    ) -> Optional[FunctionInfo]:
        chain = self.mro(cls)
        if skip_self:
            chain = chain[1:]
        for c in chain:
            if name in c.methods:
                return c.methods[name]
        return None

    def subclasses(self, qualname: str) -> List[ClassInfo]:
        """Transitive project subclasses of ``qualname``."""
        out = []
        for cls in self.classes.values():
            if cls.qualname == qualname:
                continue
            if any(c.qualname == qualname for c in self.mro(cls)[1:]):
                out.append(cls)
        return out


def annotation_class_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name a simple annotation denotes, unwrapping Optional/quotes.

    ``Environment`` -> "Environment"; ``Optional["Cluster"]`` ->
    "Cluster"; anything structural (unions, containers) -> None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted_name(node)
    if isinstance(node, ast.Subscript):
        base = annotation_class_name(node.value)
        if base in ("Optional",) or (base or "").endswith(".Optional"):
            return annotation_class_name(node.slice)
    return None
