"""``repro.analysis`` — correctness tooling for the simulator.

Three complementary layers:

* :mod:`repro.analysis.simlint` — the file-local AST rules
  (REP001–REP008 and REP108: unseeded RNGs, unordered-set iteration,
  wall-clock reads in the kernel, ``id()``-based ordering, mutable
  defaults, swallowed exceptions, unseeded fault RNG ctors, fragile
  oracles, clocks in overload components).  The source rules among
  them are scoped rows over one classifier,
  :func:`~.modules.source_kind`.
* The whole-program passes over a :class:`~.modules.ProjectModel` and
  its :class:`~.callgraph.CallGraph`: nondeterminism taint with full
  source→sink provenance (:mod:`~.taint`, REP101–REP103), hot-path
  allocation lint for ``# simlint: hotpath`` functions
  (:mod:`~.hotpath`, REP104), async-safety for ``repro.live``
  (:mod:`~.asyncsafe`, REP105–REP106), and DistributionPolicy contract
  conformance (:mod:`~.conformance`, REP107).  Both layers read the
  same parsed :class:`~.modules.ModuleInfo` per file.  Rule metadata
  lives in the table-driven registry (:mod:`~.rules`); the ``repro
  lint`` CLI — ``--baseline``, ``--sarif``, ``--explain`` — in
  :mod:`~.engine`.
* :mod:`repro.des.sanitize` — the runtime DES sanitizer
  (``Environment(sanitize=True)`` / ``REPRO_DES_SANITIZE=1``),
  re-exported here for convenience.

See ``docs/ANALYSIS.md`` for the rule catalog and rationale.
"""

from ..des.sanitize import (
    DESSanitizer,
    LeakReport,
    SanitizerError,
    Violation,
)
from .rules import REGISTRY, RULES, Rule, explain, rule_ids
from .engine import lint_paths
from .simlint import Finding, lint_file, lint_source

__all__ = [
    "REGISTRY",
    "RULES",
    "Rule",
    "explain",
    "rule_ids",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "DESSanitizer",
    "SanitizerError",
    "LeakReport",
    "Violation",
]
