"""The unified, serializable fault-scenario spec.

One :class:`Scenario` describes *everything* a chaos trial perturbs:

* node faults (crash/recover windows, fail-slow windows) — the
  :mod:`repro.faults` schedule grammar;
* fabric faults (message loss/duplication/jitter/delay rates, link
  outages, partitions) — the :mod:`repro.netfaults` schedule grammar;
* workload perturbation (a flash-crowd spike rewriting a window of the
  trace) — the :mod:`repro.experiments.flashcrowd` extension;

plus the run parameters needed to replay it exactly (trace, policy,
cluster size, seeds, retry budget).  The scenario serializes to a
canonical JSON document that **round-trips byte-identically**
(``Scenario.from_json(s.to_json()).to_json() == s.to_json()``), which is
what makes `repro chaos replay` and the shrinker's minimal reproducers
trustworthy.

Every fault is a :class:`PlanItem` — a *windowed* unit (a crash always
carries its recovery, an outage its repair) so that dropping an item
during shrinking can never leave an unmatched recover/heal event behind.
Items expand into the two existing schedule types via
:meth:`Scenario.fault_schedule` and :meth:`Scenario.netfault_config`,
so the two legacy grammars and the chaos harness share one source of
truth.

Validation raises :class:`ChaosSpecError` whose message always names the
offending field (``plan[3].node: ...``), so a hand-edited scenario file
fails loudly and precisely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..faults.schedule import FaultEvent, FaultSchedule
from ..netfaults.model import NetFaultConfig, NetFaultEvent, NetFaultSchedule

__all__ = [
    "ChaosSpecError",
    "PlanItem",
    "Scenario",
    "PLAN_KINDS",
    "NODE_KINDS",
    "FABRIC_KINDS",
    "RATE_KINDS",
    "LIVE_KINDS",
]

#: Windowed node-fault kinds (expand into repro.faults events).
NODE_KINDS = ("crash", "slow")
#: Windowed fabric-fault kinds (expand into repro.netfaults events).
FABRIC_KINDS = ("link_out", "partition")
#: Run-wide fabric perturbation rates (fields of NetFaultConfig).
RATE_KINDS = ("loss", "dup", "delay", "jitter")
#: Workload perturbation kinds (trace rewrites, substrate-neutral):
#: ``flash`` replaces a window with a hot file at a fixed share, ``ramp``
#: ramps the hot share linearly from zero to its peak across the window
#: (a flash *crowd* building, not a step), ``churn`` reshuffles which
#: files are popular inside the window (popularity churn).
WORKLOAD_KINDS = ("flash", "ramp", "churn")
#: Every recognized plan-item kind.
PLAN_KINDS = NODE_KINDS + FABRIC_KINDS + RATE_KINDS + WORKLOAD_KINDS

#: Kinds the live chaos bridge (:mod:`repro.live.faultproxy`) can execute
#: against a real cluster.  ``partition`` needs a switch fabric the live
#: star topology (every backend behind one front-end) does not have, and
#: ``dup`` needs message-level control below the TCP byte stream; both
#: are reported by :meth:`Scenario.live_unsupported`.
LIVE_KINDS = ("crash", "slow", "link_out", "loss", "delay", "jitter",
              "flash", "ramp", "churn")

#: Policies a scenario may name (the paper's four robustness subjects
#: plus the baselines the repo ships).
KNOWN_POLICIES = (
    "traditional",
    "round-robin",
    "lard",
    "lard-ng",
    "l2s",
    "consistent-hash",
)

KNOWN_TRACES = ("calgary", "clarknet", "nasa", "rutgers")


class ChaosSpecError(ValueError):
    """A scenario field failed validation; the message names the field."""

    def __init__(self, fieldname: str, problem: str):
        self.field = fieldname
        super().__init__(f"{fieldname}: {problem}")


def _require(cond: bool, fieldname: str, problem: str) -> None:
    if not cond:
        raise ChaosSpecError(fieldname, problem)


@dataclass(frozen=True)
class PlanItem:
    """One windowed fault (or run-wide rate) of a scenario's plan.

    Field use by ``kind``:

    ========== =======================================================
    kind       fields
    ========== =======================================================
    crash      node, start, end (recovery time; ``None`` = never)
    slow       node, start, end, factor (CPU speed multiplier)
    link_out   src, dst, start, end (repair time; ``None`` = never)
    partition  group, start, end (heal time; ``None`` = never)
    loss       rate (run-wide message-loss probability)
    dup        rate (run-wide duplication probability)
    delay      seconds (fixed extra switch delay per message)
    jitter     seconds (uniform extra delay bound per message)
    flash      start, end (fractions of the trace), share, rank
    ramp       start, end (fractions of the trace), share (peak), rank
    churn      start, end (fractions of the trace), share (intensity)
    ========== =======================================================

    Times are simulated seconds except for the workload kinds (``flash``
    / ``ramp`` / ``churn``), whose windows are fractions of the request
    stream (the rewrite happens at trace build time, before any
    simulated clock exists).
    """

    kind: str
    start: float = 0.0
    end: Optional[float] = None
    node: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    group: Tuple[int, ...] = ()
    factor: float = 1.0
    rate: float = 0.0
    seconds: float = 0.0
    share: float = 0.0
    rank: Optional[int] = None

    def validate(self, where: str, nodes: int, horizon_s: float) -> None:
        """Check this item; ``where`` prefixes every error (``plan[i]``)."""
        _require(self.kind in PLAN_KINDS, f"{where}.kind",
                 f"unknown kind {self.kind!r}; expected one of {PLAN_KINDS}")
        k = self.kind
        if k in NODE_KINDS:
            _require(self.node is not None, f"{where}.node",
                     f"{k} items need a target node")
            _require(0 <= int(self.node) < nodes, f"{where}.node",
                     f"node {self.node} outside the {nodes}-node cluster")
        if k in NODE_KINDS + FABRIC_KINDS:
            _require(self.start >= 0.0, f"{where}.start",
                     f"must be >= 0, got {self.start!r}")
            if self.end is not None:
                _require(self.end > self.start, f"{where}.end",
                         f"window end {self.end!r} must exceed start "
                         f"{self.start!r}")
        if k == "slow":
            _require(self.factor > 0.0, f"{where}.factor",
                     f"speed factor must be positive, got {self.factor!r}")
            _require(self.end is not None, f"{where}.end",
                     "slow windows must end (the factor is restored)")
        if k == "link_out":
            _require(self.src is not None and self.dst is not None,
                     f"{where}.src", "link_out items need src and dst")
            _require(self.src != self.dst, f"{where}.dst",
                     "link endpoints must differ")
            for name, v in (("src", self.src), ("dst", self.dst)):
                _require(0 <= int(v) < nodes, f"{where}.{name}",
                         f"node {v} outside the {nodes}-node cluster")
        if k == "partition":
            _require(len(self.group) >= 1, f"{where}.group",
                     "partition items need a non-empty node group")
            _require(len(self.group) < nodes, f"{where}.group",
                     f"group {list(self.group)} must leave at least one "
                     f"node on the majority side of a {nodes}-node cluster")
            _require(tuple(sorted(set(self.group))) == self.group,
                     f"{where}.group",
                     f"group must be sorted and duplicate-free, got "
                     f"{list(self.group)}")
            for n in self.group:
                _require(0 <= int(n) < nodes, f"{where}.group",
                         f"node {n} outside the {nodes}-node cluster")
        if k in ("loss", "dup"):
            _require(0.0 <= self.rate < 1.0, f"{where}.rate",
                     f"must be in [0, 1), got {self.rate!r}")
        if k in ("delay", "jitter"):
            _require(self.seconds >= 0.0, f"{where}.seconds",
                     f"must be >= 0, got {self.seconds!r}")
        if k in WORKLOAD_KINDS:
            _require(0.0 <= self.start < 1.0, f"{where}.start",
                     f"{k} window start is a trace fraction in [0, 1), "
                     f"got {self.start!r}")
            _require(self.end is not None and self.start < self.end <= 1.0,
                     f"{where}.end",
                     f"{k} window end must be a fraction in (start, 1], "
                     f"got {self.end!r}")
            _require(0.0 < self.share <= 1.0, f"{where}.share",
                     f"share must be in (0, 1], got {self.share!r}")
            _require(self.rank is None or self.rank >= 0, f"{where}.rank",
                     f"hot rank must be >= 0, got {self.rank!r}")

    # -- serialization ------------------------------------------------------

    _FIELDS = ("kind", "start", "end", "node", "src", "dst", "group",
               "factor", "rate", "seconds", "share", "rank")
    _DEFAULTS: ClassVar[Dict[str, Any]] = {
        "start": 0.0, "end": None, "node": None, "src": None, "dst": None,
        "group": (), "factor": 1.0, "rate": 0.0, "seconds": 0.0,
        "share": 0.0, "rank": None,
    }

    def to_dict(self) -> Dict[str, Any]:
        """Compact dict: only fields that differ from their defaults."""
        out: Dict[str, Any] = {"kind": self.kind}
        for name in self._FIELDS[1:]:
            value = getattr(self, name)
            if name == "group":
                value = list(value)
                if not value:
                    continue
            elif value == self._DEFAULTS[name]:
                continue
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, obj: Any, where: str = "plan[?]") -> "PlanItem":
        _require(isinstance(obj, dict), where, "each plan item is an object")
        _require("kind" in obj, f"{where}.kind", "missing")
        unknown = sorted(set(obj) - set(cls._FIELDS))
        _require(not unknown, f"{where}.{unknown[0]}" if unknown else where,
                 "unknown field")
        kwargs: Dict[str, Any] = {}
        for name in cls._FIELDS:
            if name in obj:
                value = obj[name]
                if name == "group":
                    _require(isinstance(value, list), f"{where}.group",
                             "must be a list of node ids")
                    value = tuple(int(n) for n in value)
                kwargs[name] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ChaosSpecError(where, str(exc)) from None

    def describe(self) -> str:
        k = self.kind
        if k == "crash":
            until = f"..{self.end:g}s" if self.end is not None else " (no reboot)"
            return f"crash({self.node}) @ {self.start:g}{until}"
        if k == "slow":
            return (f"slow({self.node}) x{self.factor:g} @ "
                    f"{self.start:g}..{self.end:g}s")
        if k == "link_out":
            until = f"..{self.end:g}s" if self.end is not None else " (no repair)"
            return f"link_out({self.src}-{self.dst}) @ {self.start:g}{until}"
        if k == "partition":
            until = f"..{self.end:g}s" if self.end is not None else " (no heal)"
            grp = "+".join(str(n) for n in self.group)
            return f"partition({grp}) @ {self.start:g}{until}"
        if k in ("loss", "dup"):
            return f"{k} {self.rate:g}"
        if k in ("delay", "jitter"):
            return f"{k} {self.seconds:g}s"
        if k == "ramp":
            return (f"ramp peak-share={self.share:g} @ "
                    f"[{self.start:g}, {self.end:g}) of trace")
        if k == "churn":
            return (f"churn intensity={self.share:g} @ "
                    f"[{self.start:g}, {self.end:g}) of trace")
        return (f"flash share={self.share:g} @ "
                f"[{self.start:g}, {self.end:g}) of trace")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified chaos trial: run parameters plus a fault plan."""

    #: Human-readable handle (``chaos-s42-t007``); file names derive from it.
    name: str
    #: Master seed: workload synthesis, fabric RNG, and replay identity.
    seed: int
    #: Trace preset driving the run.
    trace: str = "calgary"
    #: Synthetic request count (before flash rewriting).
    requests: int = 2000
    #: Policy under test.
    policy: str = "l2s"
    #: Cluster size.
    nodes: int = 8
    #: Per-node memory, MB.
    cache_mb: int = 32
    #: Estimated run duration (s); fault windows were sampled inside it
    #: and the availability-floor oracle normalizes by it.
    horizon_s: float = 1.0
    #: Client retry budget for aborted requests (0 = aborts are terminal).
    retries: int = 4
    #: lard-ng only: dispatcher re-election delay after a crash.
    failover_s: Optional[float] = None
    #: l2s only: staleness bound on remote load-view entries.
    view_max_age_s: Optional[float] = None
    #: Front-door admission: static concurrency cap wired into an
    #: :class:`~repro.overload.OverloadControl` on *both* substrates.
    #: ``None`` (with ``deadline_s`` also unset) = no overload control.
    admission_limit: Optional[int] = None
    #: Client deadline fed to admission's deadline-aware drop and to the
    #: goodput scoring (a completion past the deadline is not goodput).
    deadline_s: Optional[float] = None
    #: The fault plan.
    plan: Tuple[PlanItem, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", tuple(self.plan))
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        _require(bool(self.name), "name", "must be non-empty")
        _require(self.trace in KNOWN_TRACES, "trace",
                 f"unknown trace {self.trace!r}; expected one of "
                 f"{KNOWN_TRACES}")
        _require(self.policy in KNOWN_POLICIES, "policy",
                 f"unknown policy {self.policy!r}; expected one of "
                 f"{KNOWN_POLICIES}")
        _require(self.requests >= 100, "requests",
                 f"must be >= 100, got {self.requests!r}")
        _require(self.nodes >= 1, "nodes", f"must be >= 1, got {self.nodes!r}")
        _require(self.cache_mb >= 1, "cache_mb",
                 f"must be >= 1, got {self.cache_mb!r}")
        _require(self.horizon_s > 0.0, "horizon_s",
                 f"must be positive, got {self.horizon_s!r}")
        _require(self.retries >= 0, "retries",
                 f"must be >= 0, got {self.retries!r}")
        _require(self.failover_s is None or self.failover_s >= 0.0,
                 "failover_s", f"must be >= 0, got {self.failover_s!r}")
        _require(self.view_max_age_s is None or self.view_max_age_s > 0.0,
                 "view_max_age_s",
                 f"must be positive, got {self.view_max_age_s!r}")
        _require(self.admission_limit is None or self.admission_limit >= 1,
                 "admission_limit",
                 f"must be >= 1, got {self.admission_limit!r}")
        _require(self.deadline_s is None or self.deadline_s > 0.0,
                 "deadline_s",
                 f"must be positive, got {self.deadline_s!r}")
        for i, item in enumerate(self.plan):
            item.validate(f"plan[{i}]", self.nodes, self.horizon_s)

    # -- derived schedules --------------------------------------------------

    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The node-fault half of the plan as a legacy FaultSchedule."""
        events: List[FaultEvent] = []
        for item in self.plan:
            if item.kind == "crash":
                events.append(FaultEvent("crash", item.node, at=item.start))
                if item.end is not None:
                    events.append(
                        FaultEvent("recover", item.node, at=item.end)
                    )
            elif item.kind == "slow":
                events.append(
                    FaultEvent("slow", item.node, at=item.start,
                               factor=item.factor)
                )
                events.append(
                    FaultEvent("slow", item.node, at=item.end, factor=1.0)
                )
        return FaultSchedule(events) if events else None

    def netfault_config(self) -> Optional[NetFaultConfig]:
        """The fabric half of the plan as a legacy NetFaultConfig."""
        loss = dup = 0.0
        delay = jitter = 0.0
        events: List[NetFaultEvent] = []
        for item in self.plan:
            if item.kind == "loss":
                loss = item.rate
            elif item.kind == "dup":
                dup = item.rate
            elif item.kind == "delay":
                delay = item.seconds
            elif item.kind == "jitter":
                jitter = item.seconds
            elif item.kind == "link_out":
                events.append(
                    NetFaultEvent("link_down", item.start,
                                  src=item.src, dst=item.dst)
                )
                if item.end is not None:
                    events.append(
                        NetFaultEvent("link_up", item.end,
                                      src=item.src, dst=item.dst)
                    )
            elif item.kind == "partition":
                events.append(
                    NetFaultEvent("partition", item.start, group=item.group)
                )
                if item.end is not None:
                    events.append(NetFaultEvent("heal", item.end))
        if not events and not (
            loss > 0.0 or dup > 0.0 or delay > 0.0 or jitter > 0.0
        ):
            return None
        return NetFaultConfig(
            loss_rate=loss,
            dup_rate=dup,
            extra_delay_s=delay,
            jitter_s=jitter,
            schedule=NetFaultSchedule(tuple(events)) if events else None,
            seed=self.seed,
        )

    # -- live-cluster expansion ---------------------------------------------

    def live_unsupported(self) -> List[str]:
        """Reasons this scenario cannot run on the live cluster.

        Empty list means every plan item and the policy itself have a
        live equivalent.  The live bridge refuses to run (rather than
        silently dropping faults) when this is non-empty, mirroring how
        :class:`repro.live.engine.PolicyEngine` rejects lard-ng.
        """
        problems: List[str] = []
        if self.policy == "lard-ng":
            problems.append(
                "policy lard-ng: the async_decide round-trip needs the DES "
                "messaging substrate (LiveUnsupported in repro.live)"
            )
        for i, item in enumerate(self.plan):
            if item.kind not in LIVE_KINDS:
                why = {
                    "partition": "live topology is a star through the "
                                 "front-end; there is no fabric to split",
                    "dup": "TCP byte streams cannot duplicate discrete "
                           "messages",
                }[item.kind]
                problems.append(f"plan[{i}] {item.describe()}: {why}")
        return problems

    def live_schedule(self) -> List[Tuple[float, str, Dict[str, Any]]]:
        """The node/link half of the plan as live injector actions.

        Returns ``(frac, action, params)`` triples sorted by ``frac``,
        where ``frac`` is the item time as a fraction of ``horizon_s``.
        The live injector fires an action when the *loadtest progress
        fraction* (requests finished / requests issued overall) crosses
        ``frac`` — structural alignment with the sim (the same fraction
        of the workload is perturbed) instead of a fragile wall-clock
        mapping between simulated and real seconds.

        Actions: ``kill``/``respawn`` (crash window via SIGKILL + fresh
        incarnation), ``suspend``/``resume`` (slow window via
        SIGSTOP/SIGCONT — the live analog of a fail-slow node),
        ``link_down``/``link_up`` (the *dst* node's chaos proxy severs
        its connections and refuses new ones; ``src`` is ignored because
        every live path crosses the front-end star).
        """
        horizon = self.horizon_s

        def frac(t: float) -> float:
            return min(1.0, max(0.0, t / horizon))

        actions: List[Tuple[float, str, Dict[str, Any]]] = []
        for item in self.plan:
            if item.kind == "crash":
                actions.append((frac(item.start), "kill",
                                {"node": int(item.node)}))
                if item.end is not None:
                    actions.append((frac(item.end), "respawn",
                                    {"node": int(item.node)}))
            elif item.kind == "slow":
                actions.append((frac(item.start), "suspend",
                                {"node": int(item.node)}))
                actions.append((frac(item.end), "resume",
                                {"node": int(item.node)}))
            elif item.kind == "link_out":
                actions.append((frac(item.start), "link_down",
                                {"node": int(item.dst)}))
                if item.end is not None:
                    actions.append((frac(item.end), "link_up",
                                    {"node": int(item.dst)}))
        actions.sort(key=lambda a: a[0])
        return actions

    def live_rates(self) -> Dict[str, float]:
        """Run-wide fabric rates for the live chaos proxies.

        ``loss`` is applied per proxied request (the connection is
        severed before the request is forwarded), ``delay_s``/``jitter_s``
        hold each proxied request back — the stream analog of the sim's
        per-message perturbation.
        """
        rates = {"loss": 0.0, "delay_s": 0.0, "jitter_s": 0.0}
        for item in self.plan:
            if item.kind == "loss":
                rates["loss"] = item.rate
            elif item.kind == "delay":
                rates["delay_s"] = item.seconds
            elif item.kind == "jitter":
                rates["jitter_s"] = item.seconds
        return rates

    def flash_item(self) -> Optional[PlanItem]:
        """The workload-spike item, if the plan carries one."""
        for item in self.plan:
            if item.kind == "flash":
                return item
        return None

    def workload_items(self) -> Tuple[PlanItem, ...]:
        """Every workload-perturbation item (flash/ramp/churn), in plan
        order — the trace is rewritten by each in turn."""
        return tuple(i for i in self.plan if i.kind in WORKLOAD_KINDS)

    def counts(self) -> Dict[str, int]:
        """Plan-item count per kind (reporting)."""
        out: Dict[str, int] = {}
        for item in self.plan:
            out[item.kind] = out.get(item.kind, 0) + 1
        return out

    def event_count(self) -> int:
        """Number of schedule *events* the plan expands to (a crash with
        recovery is two events, matching the legacy grammars)."""
        n = 0
        for item in self.plan:
            if item.kind in ("crash", "link_out", "partition"):
                n += 1 if item.end is None else 2
            elif item.kind == "slow":
                n += 2
            else:
                n += 1
        return n

    def describe(self) -> str:
        plan = "; ".join(item.describe() for item in self.plan) or "(clean)"
        return (
            f"{self.name}: {self.policy} x {self.nodes} nodes, "
            f"{self.trace}/{self.requests} reqs, seed {self.seed} — {plan}"
        )

    def replay_cli(self, path: str) -> str:
        """The exact CLI line that replays this scenario from ``path``."""
        return f"repro chaos replay {path}"

    def with_plan(self, plan: Tuple[PlanItem, ...]) -> "Scenario":
        return replace(self, plan=tuple(plan))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "trace": self.trace,
            "requests": self.requests,
            "policy": self.policy,
            "nodes": self.nodes,
            "cache_mb": self.cache_mb,
            "horizon_s": self.horizon_s,
            "retries": self.retries,
            "plan": [item.to_dict() for item in self.plan],
        }
        if self.failover_s is not None:
            out["failover_s"] = self.failover_s
        if self.view_max_age_s is not None:
            out["view_max_age_s"] = self.view_max_age_s
        if self.admission_limit is not None:
            out["admission_limit"] = self.admission_limit
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        return out

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, trailing newline.

        The canonical form is what round-trips byte-identically and what
        replay reports and shrinker outputs are diffed against.
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    _SCALARS = ("name", "seed", "trace", "requests", "policy", "nodes",
                "cache_mb", "horizon_s", "retries", "failover_s",
                "view_max_age_s", "admission_limit", "deadline_s")

    @classmethod
    def from_dict(cls, obj: Any) -> "Scenario":
        _require(isinstance(obj, dict), "scenario",
                 "the document root must be an object")
        unknown = sorted(set(obj) - set(cls._SCALARS) - {"plan"})
        _require(not unknown, unknown[0] if unknown else "scenario",
                 "unknown field")
        for required in ("name", "seed"):
            _require(required in obj, required, "missing")
        kwargs: Dict[str, Any] = {
            k: obj[k] for k in cls._SCALARS if k in obj
        }
        raw_plan = obj.get("plan", [])
        _require(isinstance(raw_plan, list), "plan", "must be a list")
        kwargs["plan"] = tuple(
            PlanItem.from_dict(item, where=f"plan[{i}]")
            for i, item in enumerate(raw_plan)
        )
        try:
            return cls(**kwargs)
        except ChaosSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise ChaosSpecError("scenario", str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosSpecError("scenario", f"invalid JSON: {exc}") from None
        return cls.from_dict(obj)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
