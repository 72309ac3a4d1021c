"""The ``repro lint`` driver: file-local rules + whole-program passes.

Pipeline::

    paths ──> package roots ──> ProjectModel ──> CallGraph ──> passes
      │                        (a ModuleInfo         taint (REP101–103)
      │                         per file)            hotpath (REP104)
      │                             │                asyncsafe (REP105–106)
      │                             v                conformance (REP107)
      └──> files ──────────> file-local rules (REP001–REP008, REP108)

Each file is parsed once: a file under a package root reuses the
:class:`ModuleInfo` its ProjectModel parsed, and only files outside any
root (or every file, under ``--no-project``) are parsed on their own.

plus the reporting machinery: ``--format text|json``, ``--sarif FILE``,
``--baseline``/``--write-baseline`` (adopt existing findings, fail only
on new ones), ``--select``/``--ignore`` validated against the rule
registry, and ``--explain REPxxx``.
"""

from __future__ import annotations

import argparse
import json
import linecache
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import asyncsafe, baseline as baseline_mod, conformance, hotpath, taint
from .callgraph import CallGraph
from .modules import ModuleInfo, ProjectModel, package_roots, python_files
from .rules import REGISTRY, RULES, explain as explain_rule
from .sarif import to_sarif
from .simlint import Finding, lint_file, lint_module

__all__ = ["run_project_passes", "lint_all", "lint_paths", "main"]

#: Pass runners in execution order; each yields findings for its rules.
_PROJECT_PASSES = (
    ("taint", taint.run, ("REP101", "REP102", "REP103")),
    ("hotpath", hotpath.run, ("REP104",)),
    ("asyncsafe", asyncsafe.run, ("REP105", "REP106")),
    ("conformance", conformance.run, ("REP107",)),
)


def run_project_passes(
    model: ProjectModel, active: Optional[Set[str]] = None
) -> List[Finding]:
    """Run every whole-program pass whose rules intersect ``active``."""
    graph = CallGraph.build(model)
    findings: List[Finding] = []
    for _name, runner, rules in _PROJECT_PASSES:
        if active is not None and not (active & set(rules)):
            continue
        for f in runner(model, graph):
            if active is None or f.rule in active:
                findings.append(f)
    return findings


def lint_all(
    paths: Sequence[str],
    active: Optional[Set[str]] = None,
    *,
    project: bool = True,
) -> Tuple[List[Finding], int]:
    """Per-file + whole-program lint.  Returns (findings, files_checked)."""
    files = python_files(paths)
    models = (
        [ProjectModel.load(root) for root in package_roots(paths)]
        if project else []
    )
    parsed: Dict[str, ModuleInfo] = {}
    for model in models:
        for mod in model.modules.values():
            parsed.setdefault(mod.path, mod)
    findings: List[Finding] = []
    for f in files:
        mod = parsed.get(f)
        findings.extend(
            lint_file(f, select=active) if mod is None
            else lint_module(mod, select=active)
        )
    linted = set(files)
    for model in models:
        for finding in run_project_passes(model, active):
            # Only report findings in files the user asked about (a
            # model loaded from src/repro never strays, but keep the
            # contract explicit).
            if finding.path in linted:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)


def lint_paths(
    paths: Sequence[str], select: Optional[Set[str]] = None
) -> Tuple[List[Finding], int]:
    """File-local rules only; returns (findings, files_checked)."""
    return lint_all(paths, select, project=False)


def _parse_rule_list(raw: str) -> Set[str]:
    return {r.strip() for r in raw.split(",") if r.strip()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "determinism linter for the simulator codebase: file-local "
            "rules (REP001-REP008, REP108) plus whole-program taint, "
            "hot-path, async-safety, and policy-conformance passes "
            "(REP101-REP107)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule subset, e.g. REP001,REP104",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rules to skip",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print a per-rule finding count summary",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    parser.add_argument(
        "--explain", default=None, metavar="REPxxx",
        help="print the long-form rationale for one rule and exit",
    )
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="additionally write findings as SARIF 2.1.0 to FILE",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="compare against a committed baseline: only findings not "
        "in FILE fail the run",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="adopt the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="skip the whole-program passes (file-local rules only)",
    )
    args = parser.parse_args(argv)

    if args.explain:
        try:
            print(explain_rule(args.explain))
        except KeyError:
            known = ", ".join(sorted(REGISTRY))
            print(
                f"unknown rule {args.explain!r}; known rules: {known}",
                file=sys.stderr,
            )
            return 2
        return 0

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    active = _parse_rule_list(args.select) if args.select else None
    ignored = _parse_rule_list(args.ignore) if args.ignore else set()
    unknown = ((active or set()) | ignored) - set(RULES)
    if unknown:
        print(f"unknown rules: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    if ignored:
        active = (active if active is not None else set(RULES)) - ignored

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    findings, files_checked = lint_all(
        paths, active, project=not args.no_project
    )

    get_line = linecache.getline

    if args.write_baseline:
        data = baseline_mod.generate(findings, get_line)
        baseline_mod.save(args.write_baseline, data)
        print(
            f"wrote baseline with {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} "
            f"({len(data['counts'])} fingerprints) to {args.write_baseline}"
        )
        return 0

    report = findings
    stale = 0
    if args.baseline:
        try:
            data = baseline_mod.load(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load baseline: {exc}", file=sys.stderr)
            return 2
        report, stale = baseline_mod.compare(findings, data, get_line)

    if args.sarif:
        Path(args.sarif).write_text(to_sarif(report) + "\n", encoding="utf-8")

    counts = Counter(f.rule for f in report)
    if args.fmt == "json":
        payload: Dict[str, object] = {
            "files_checked": files_checked,
            "findings": [f.as_dict() for f in report],
            "counts": counts,
        }
        if args.baseline:
            payload["baselined"] = len(findings) - len(report)
            payload["stale_baseline_entries"] = stale
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for f in report:
            print(f.render())
        if args.statistics:
            for rule in sorted(counts):
                print(f"{rule}: {counts[rule]}")
        summary = (
            f"{len(report)} {'new ' if args.baseline else ''}"
            f"finding{'s' if len(report) != 1 else ''} in {files_checked} files"
        )
        if args.baseline:
            summary += f" ({len(findings) - len(report)} baselined"
            if stale:
                summary += f", {stale} stale baseline entries"
            summary += ")"
        print(("FAIL: " if report else "ok: ") + summary)
    return 1 if report else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
