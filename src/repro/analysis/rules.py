"""The simlint rule registry — one table, every consumer.

Every rule — the file-local rules (REP001–REP008, REP108) and the
whole-program passes (REP101–REP107) — is a :class:`Rule` entry here.
``--select``/``--ignore`` validation, ``--list-rules``, ``--explain``
and the SARIF rule descriptors read this table; a tier-1 test checks
that the catalog in ``docs/ANALYSIS.md`` has a row for every entry.

Adding a rule is: implement the check, add the entry, add the catalog
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Rule", "REGISTRY", "RULES", "rule_ids", "explain"]

#: Analysis pass names (who emits the rule).
LOCAL = "local"              # per-file AST pass (simlint)
TAINT = "taint"              # interprocedural nondeterminism taint
HOTPATH = "hotpath"          # hot-path allocation lint
ASYNC = "async"              # async-safety pass (repro.live)
CONFORMANCE = "conformance"  # DistributionPolicy contract pass


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, catalog line, and the --explain text."""

    id: str
    name: str
    summary: str
    #: Which analysis pass emits it (``local`` rules run per file; the
    #: others need the whole-project model).
    pass_name: str
    #: Multi-line rationale printed by ``repro lint --explain REPxxx``.
    explain: str


def _r(id: str, name: str, summary: str, pass_name: str, explain: str) -> Rule:
    return Rule(id=id, name=name, summary=summary, pass_name=pass_name,
                explain=explain.strip())


#: Every rule, in id order.  ``REP000`` is the pseudo-rule syntax errors
#: are reported under (it cannot be selected or suppressed away).
REGISTRY: Dict[str, Rule] = {
    r.id: r
    for r in (
        _r(
            "REP001", "unseeded-global-rng",
            "unseeded-global-rng: module-level random/numpy.random call",
            LOCAL,
            """
Calls into the module-level ``random`` / ``numpy.random`` API in
simulation code.  The global RNG is implicitly seeded and shared: any
import-order or call-order change anywhere in the process shifts every
draw after it.  Use a seeded ``random.Random(seed)`` /
``numpy.random.default_rng(seed)`` instance.
            """,
        ),
        _r(
            "REP002", "unordered-iteration",
            "unordered-iteration: iterating a set (or dict.keys) where "
            "order matters",
            LOCAL,
            """
Iteration over a ``set``/``frozenset`` (or ``dict.keys()`` views used as
an ordering source).  Set iteration order depends on insertion history
and — for str keys — the per-process hash seed, so the same program can
dispatch requests in a different order on the next run.  Sort, or use an
ordered structure (dicts preserve insertion order).
            """,
        ),
        _r(
            "REP003", "wall-clock",
            "wall-clock: real-time read inside simulation code",
            LOCAL,
            """
Wall-clock reads (``time.time``, ``datetime.now``, ...) inside the
kernel/simulation packages.  Simulated code must read ``env.now``; a
wall-clock read couples results to host speed.  The live substrate
(``repro.live``) is exempt — there, wall-clock seconds *are* the
policies' injected Clock.
            """,
        ),
        _r(
            "REP004", "id-ordering",
            "id-ordering: ordering or hashing derived from id()",
            LOCAL,
            """
``id()``-based ordering or hashing (``sorted(key=id)``,
``hash(id(x))``, ``id(a) < id(b)``).  CPython ids are allocation
addresses: they vary run to run and recycle after GC, so any order
derived from them is nondeterministic.  Identity *equality* is fine.
            """,
        ),
        _r(
            "REP005", "mutable-default",
            "mutable-default: mutable default argument",
            LOCAL,
            """
Mutable default arguments are allocated once and shared across calls —
state bleeds between otherwise independent simulations.  Default to
``None`` and allocate inside the function.
            """,
        ),
        _r(
            "REP006", "swallowed-exception",
            "swallowed-exception: bare or blanket exception handler",
            LOCAL,
            """
Bare ``except:`` or blanket ``except Exception: pass`` handlers.  In
event callbacks these silently eat the callback failures the kernel
relies on to surface broken runs.  Name the exceptions or handle the
error.
            """,
        ),
        _r(
            "REP007", "unseeded-instance-rng",
            "unseeded-instance-rng: zero-argument RNG constructor in "
            "fault-injection code",
            LOCAL,
            """
Zero-argument RNG constructors (``random.Random()``,
``numpy.random.default_rng()``) inside the fault-injection packages.
An instance seeded from OS entropy makes every fault/loss schedule
differ run to run; pass an explicit seed so injected failures replay.
            """,
        ),
        _r(
            "REP008", "fragile-oracle-check",
            "fragile-oracle-check: float ==/!= literal comparison or "
            "wall-clock-derived assert in chaos code",
            LOCAL,
            """
In chaos/oracle code: comparing against a float literal with ``==`` /
``!=``, or an ``assert`` whose condition derives from a wall-clock
read.  Float-equality oracles pass or fail on representation noise, and
wall-clock asserts make a replayed scenario's verdict depend on machine
speed — both break the "same scenario, same verdict" contract.
            """,
        ),
        _r(
            "REP101", "taint-scheduling",
            "taint-scheduling: nondeterministic value flows into a kernel "
            "scheduling call",
            TAINT,
            """
A nondeterministic value — a wall-clock read, a draw from an unseeded
RNG, OS entropy (``os.urandom``/``uuid.uuid4``), or a value whose order
came from set/dict iteration — flows (possibly through several function
calls and modules) into an ``Environment`` scheduling sink,
``call_later()``.  Event timing then differs run to run, which breaks
byte-identical replay.
The finding reports the full source → sink path.  Derive delays from
simulated state and seeded RNG instances only.
            """,
        ),
        _r(
            "REP102", "taint-result",
            "taint-result: nondeterministic value flows into a SimResult",
            TAINT,
            """
A nondeterministic value (same sources as REP101) flows into a
``SimResult`` — the measurement record the figures, the bench
regression gate, and the byte-identity suites compare.  A tainted field
makes two runs with the same seed report different results even when
the simulation itself was deterministic.  The finding reports the full
source → sink path.
            """,
        ),
        _r(
            "REP103", "taint-scenario",
            "taint-scenario: nondeterministic value flows into scenario "
            "generation",
            TAINT,
            """
A nondeterministic value (same sources as REP101) flows into chaos
scenario generation — a ``Scenario``/``PlanItem`` construction or a
``ScenarioGenerator`` method.  A scenario whose shape depends on wall
clocks or unseeded entropy cannot be replayed or shrunk: the
per-(seed, trial) regeneration contract requires every scenario to be a
pure function of its seed.  The finding reports the full source → sink
path.
            """,
        ),
        _r(
            "REP104", "hotpath-allocation",
            "hotpath-allocation: allocating construct reachable from a "
            "'# simlint: hotpath' function",
            HOTPATH,
            """
A function marked ``# simlint: hotpath`` (or any project function
reachable from one through the call graph) contains an
allocation-bearing construct: a comprehension or generator expression,
a list/set/dict literal, a ``lambda``, a nested ``def``, an f-string,
or a call to ``dict``/``list``/``set``/``deque``/... factories.  These
marked functions are the kernel v3 fast paths that run per event; a
single stray allocation there erodes the measured speedups the bench
gate protects.  Constructs inside ``raise`` statements are exempt
(error paths are cold), and traversal stops at functions marked
``# simlint: coldpath``.  Entry tuples are deliberately not flagged:
the ``(time, priority, eid, event)`` tuple is the scheduler contract.
            """,
        ),
        _r(
            "REP105", "async-blocking",
            "async-blocking: blocking call reachable inside 'async def'",
            ASYNC,
            """
A blocking call — ``time.sleep``, the sync ``subprocess`` API, sync
socket connects, ``urllib.request.urlopen``, or plain ``open()``/file
reads — executes inside an ``async def``, either directly or through a
chain of synchronous project calls (the finding reports the chain).  A
blocking call stalls the whole event loop: in ``repro.live`` that
freezes every in-flight connection of the front-end or a back-end
worker and skews the measured latencies the sim-vs-live compare scores.
Use the asyncio equivalent (``asyncio.sleep``, subprocess, open
connection APIs) or push the work into ``run_in_executor``.
            """,
        ),
        _r(
            "REP106", "never-awaited",
            "never-awaited: coroutine created but never awaited",
            ASYNC,
            """
A call to an ``async def`` whose returned coroutine is never awaited —
a bare expression statement, or an assignment to a name that is never
used again.  The coroutine body silently never runs (Python only warns
at GC time, nondeterministically), so the hook/cleanup it was supposed
to perform is skipped.  ``await`` it, or hand it to
``asyncio.create_task``/``gather``.
            """,
        ),
        _r(
            "REP107", "policy-conformance",
            "policy-conformance: DistributionPolicy subclass violates the "
            "check_invariants/bind contract",
            CONFORMANCE,
            """
Every concrete ``DistributionPolicy`` in ``servers/`` must uphold the
contract both substrates assume: (1) implement ``check_invariants`` —
the chaos oracle calls it mid-run and post-run, and a policy relying on
the base no-op silently opts out of the invariant gate; (2) an
overridden ``bind``/``__init__`` must call ``super()`` so the
cluster/clock/failed-node wiring happens before any hook fires
(``repro.live``'s PolicyEngine binds the same objects); (3) read time
only through ``self.clock`` — reaching into ``cluster.env`` couples the
policy to the DES and silently breaks it on the live substrate.
            """,
        ),
        _r(
            "REP108", "overload-wallclock",
            "overload-wallclock: overload component imports or calls a "
            "wall clock",
            LOCAL,
            """
Modules in the ``overload`` package (admission controller, circuit
breakers, adaptive concurrency limit) run the same object on both
substrates and receive time exclusively as a ``now`` argument.  Any
import of ``time``/``datetime`` there — or an aliased call resolving to
them — is flagged: a component that reads a clock itself leaks wall
time into limit trajectories and breaker cooldowns, breaking
byte-identical sim replay and the sim-vs-live acceptance scoring.
            """,
        ),
    )
}

#: Rule id -> catalog summary line.  Kept as a plain dict for backwards
#: compatibility (v1 consumers iterate ``RULES``); derived from
#: :data:`REGISTRY` so the two can never drift.
RULES: Dict[str, str] = {rid: rule.summary for rid, rule in REGISTRY.items()}


def rule_ids() -> Tuple[str, ...]:
    """Every known rule id, sorted."""
    return tuple(sorted(REGISTRY))


def explain(rule_id: str) -> str:
    """The long-form rationale for ``--explain``; raises KeyError."""
    rule = REGISTRY[rule_id]
    header = f"{rule.id} ({rule.name}) — {rule.pass_name} pass"
    return f"{header}\n{'=' * len(header)}\n{rule.explain}\n"
