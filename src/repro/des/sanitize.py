"""Runtime DES sanitizer: kernel invariant checking for sanitized runs.

The kernel's fast paths (free-list event pooling, zero-delay now-queues
merged with the heap under a delicate ``(time, priority,
insertion-order)`` tie-break, callback chains) buy speed with exactly
the kind of aliasing and ordering hazards that are invisible to spot
tests.  The sanitizer wraps every scheduling entry point
and every event pop with invariant checks, at a cost that is acceptable
for smoke runs and CI but not for production sweeps — enable it with
``Environment(sanitize=True)`` or ``REPRO_DES_SANITIZE=1``.

Checks
------
* **Use-after-recycle** — every event recycled into a free list is marked
  with a bumped generation counter and poisoned pool membership; touching
  it again (scheduling it, or popping it while it sits in the pool) is
  reported with the event's provenance.
* **Time monotonicity / tie-break order** — pops must come out in strictly
  increasing ``(time, priority, eid)`` order (eids are unique, so equality
  is also a violation); scheduling behind ``env.now`` is caught at the
  source.
* **Double trigger** — re-scheduling an event that is already queued, or
  one whose callbacks have already run, is reported even when the
  ``Event.succeed``/``fail`` guards were bypassed by direct state writes
  (the failure mode of a buggy pool reset).
* **Leak report** — :meth:`DESSanitizer.finish` reports events created but
  never triggered, events triggered but stranded in the queue, processes
  that never terminated, in-flight operations (callback-chain requests
  registered through :meth:`DESSanitizer.op_begin`) that never completed,
  and interconnect messages sent but never delivered or dropped (the
  blind spot netfault injection opens), each with provenance.

A sanitized run is behaviourally identical to an unsanitized one: the
sanitizer only observes (the equivalence test asserts SimResult equality).
Violations raise :class:`SanitizerError` immediately and are also kept in
:attr:`DESSanitizer.violations`.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "DESSanitizer",
    "SanitizerError",
    "Violation",
    "LeakReport",
    "force_recycle",
]

#: Kernel files whose frames are skipped when attributing creation sites.
_KERNEL_FILE_MARKERS = ("repro/des/", "repro\\des\\")


def _creation_site() -> str:
    """``file:line`` of the first stack frame outside the DES kernel."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not any(marker in filename for marker in _KERNEL_FILE_MARKERS):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _EventRecord:
    """Provenance and lifecycle state for one tracked event."""

    __slots__ = ("event", "type_name", "site", "created_at", "state",
                 "generation", "last_eid", "sched_pop")

    def __init__(self, event: Any, created_at: float, site: str):
        #: Strong reference: keeps ids stable for every tracked event.
        self.event = event
        self.type_name = type(event).__name__
        self.site = site
        self.created_at = created_at
        #: "pending" -> "queued" -> ("pooled" -> "pending" -> ...) | done.
        self.state = "pending"
        #: Bumped every time the event is recycled into a free list.
        self.generation = 0
        #: eid the event was last scheduled under (None before scheduling).
        self.last_eid: Optional[int] = None
        #: Pop count at the moment the event was last scheduled.  Events
        #: scheduled *after* a pop are exempt from the tie-break
        #: comparison against that pop (they never coexisted in the
        #: queue); -1 = unknown/queue-injected, always compared.
        self.sched_pop = -1

    def provenance(self) -> str:
        gen = f", generation {self.generation}" if self.generation else ""
        eid = f", eid {self.last_eid}" if self.last_eid is not None else ""
        return (
            f"{self.type_name} created at {self.site} "
            f"(t={self.created_at:g}{eid}{gen}, state {self.state})"
        )


class Violation:
    """One detected kernel invariant violation."""

    __slots__ = ("kind", "message", "provenance", "time")

    def __init__(self, kind: str, message: str, provenance: str, time: float):
        self.kind = kind
        self.message = message
        self.provenance = provenance
        self.time = time

    def render(self) -> str:
        return f"[{self.kind}] t={self.time:g}: {self.message} — {self.provenance}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Violation {self.render()}>"


class SanitizerError(RuntimeError):
    """Raised at the point a kernel invariant violation is detected."""

    def __init__(self, violation: Violation):
        super().__init__(violation.render())
        self.violation = violation


class LeakReport:
    """End-of-run accounting of events that never completed their life."""

    __slots__ = ("never_triggered", "stranded", "orphaned_processes",
                 "stalled_ops", "undelivered_messages", "events_tracked")

    def __init__(
        self,
        never_triggered: List[str],
        stranded: List[str],
        orphaned_processes: List[str],
        stalled_ops: List[str],
        events_tracked: int,
        undelivered_messages: Optional[List[str]] = None,
    ):
        #: Provenance of events created but never succeeded/failed.
        self.never_triggered = never_triggered
        #: Provenance of events triggered but still queued (run stopped
        #: before they were processed).
        self.stranded = stranded
        #: Provenance of processes whose generator never terminated.
        self.orphaned_processes = orphaned_processes
        #: Descriptions of registered in-flight operations (callback-chain
        #: requests) that never reached completion or abort.
        self.stalled_ops = stalled_ops
        #: Interconnect messages sent but neither delivered nor recorded
        #: as dropped by the end of the run.  Counted messages dangling
        #: here mean the interconnect's bookkeeping lost track of a
        #: message — the failure mode dropped-message fault injection is
        #: most likely to introduce.
        self.undelivered_messages = (
            undelivered_messages if undelivered_messages is not None else []
        )
        self.events_tracked = events_tracked

    @property
    def clean(self) -> bool:
        return not (
            self.never_triggered
            or self.stranded
            or self.orphaned_processes
            or self.stalled_ops
            or self.undelivered_messages
        )

    def render(self) -> str:
        lines = [
            f"sanitizer: {self.events_tracked} events tracked; "
            + ("no leaks" if self.clean else "LEAKS DETECTED")
        ]
        for title, entries in (
            ("never-triggered events", self.never_triggered),
            ("triggered but unprocessed events", self.stranded),
            ("orphaned processes", self.orphaned_processes),
            ("stalled in-flight operations", self.stalled_ops),
            ("undelivered interconnect messages", self.undelivered_messages),
        ):
            if entries:
                lines.append(f"  {title} ({len(entries)}):")
                lines.extend(f"    {e}" for e in entries)
        return "\n".join(lines)


class DESSanitizer:
    """Observes one :class:`~repro.des.core.Environment`'s event traffic.

    Installed by ``Environment(sanitize=True)``; the kernel calls the
    ``on_*`` hooks from its scheduling and processing paths.  All state is
    keyed by ``id(event)`` — safe because the sanitizer keeps a strong
    reference to every live tracked event, so ids cannot be recycled
    underneath it.
    """

    def __init__(self, env: Any):
        self.env = env
        #: id(event) -> record, for events whose life is not over (pending,
        #: queued, or sitting in a free pool).
        self._records: Dict[int, _EventRecord] = {}
        #: ids currently sitting in the scheduler queue.
        self._scheduled: Set[int] = set()
        #: ids currently sitting in a free pool (recycled).
        self._pooled: Set[int] = set()
        #: Last popped (time, priority, eid) key — pops must increase.
        self._last_key: Optional[Tuple[float, int, int]] = None
        #: Every violation detected (each also raised as SanitizerError).
        self.violations: List[Violation] = []
        #: token -> (label, detail, begin time) for in-flight operations.
        self._ops: Dict[int, Tuple[str, str, float]] = {}
        self._op_seq = 0
        self.events_tracked = 0
        self.recycles = 0
        self.reuses = 0
        self.pops = 0

    # -- internals ---------------------------------------------------------

    def _record_for(self, event: Any) -> _EventRecord:
        """The record for ``event``, creating one if it is unknown.

        Events that inline ``Event.__init__`` (Request and friends) first
        become visible at their first scheduling; they get a record on
        demand so provenance is as close to the creation site as possible.
        """
        rec = self._records.get(id(event))
        if rec is None:
            rec = _EventRecord(event, self.env._now, _creation_site())
            self._records[id(event)] = rec
            self.events_tracked += 1
        return rec

    def _violate(self, kind: str, event: Any, message: str) -> None:
        rec = self._record_for(event)
        violation = Violation(kind, message, rec.provenance(), self.env._now)
        self.violations.append(violation)
        raise SanitizerError(violation)

    # -- kernel hooks ------------------------------------------------------

    def on_create(self, event: Any) -> None:
        """A new event object was constructed."""
        self._records[id(event)] = _EventRecord(
            event, self.env._now, _creation_site()
        )
        self.events_tracked += 1

    # The sanitizer is opt-in diagnostics (~4x overhead by design); its
    # bookkeeping is exempt from the hot-path allocation lint.
    # simlint: coldpath
    def on_reuse(self, event: Any) -> None:
        """An event was drawn from a free pool for reuse."""
        self.reuses += 1
        key = id(event)
        if key not in self._pooled:
            self._violate(
                "pool-corruption",
                event,
                "event drawn from a free pool it was never recycled into",
            )
        self._pooled.discard(key)
        rec = self._record_for(event)
        rec.state = "pending"
        rec.created_at = self.env._now
        rec.site = _creation_site()

    def on_schedule(self, event: Any, at: float) -> None:
        """``event`` is about to be pushed onto the scheduler queue."""
        now = self.env._now
        key = id(event)
        if key in self._pooled:
            self._violate(
                "use-after-recycle",
                event,
                "scheduling an event that sits in a free pool (a stale "
                "reference outlived the recycle)",
            )
        if key in self._scheduled:
            self._violate(
                "double-trigger",
                event,
                "event scheduled while already in the queue (double "
                "succeed/fail, or a pool reset of a live event)",
            )
        if event.callbacks is None:
            self._violate(
                "double-trigger",
                event,
                "event scheduled after its callbacks already ran",
            )
        if at < now:
            self._violate(
                "time-travel",
                event,
                f"scheduled at t={at:g}, behind the current time {now:g}",
            )
        rec = self._record_for(event)
        rec.state = "queued"
        rec.last_eid = self.env._eid + 1
        rec.sched_pop = self.pops
        self._scheduled.add(key)

    def on_pop(
        self,
        t: float,
        priority: int,
        eid: int,
        event: Any,
        prev_now: float,
    ) -> None:
        """The scheduler handed out ``event`` as the next minimum."""
        key_id = id(event)
        if key_id in self._pooled:
            self._violate(
                "use-after-recycle",
                event,
                "processing an event that sits in a free pool (it was "
                "recycled while still scheduled)",
            )
        if event.callbacks is None:
            self._violate(
                "double-trigger",
                event,
                "event popped twice: callbacks already ran",
            )
        if t < prev_now:
            self._violate(
                "time-travel",
                event,
                f"popped at t={t:g}, behind the clock {prev_now:g} (an "
                "event was inserted into the past behind the scheduler's "
                "back)",
            )
        key = (t, priority, eid)
        rec = self._records.get(key_id)
        # Tie-break contract: among events that coexisted in the queue,
        # pops come out in strictly increasing (time, priority, eid)
        # order.  An event scheduled after the previous pop (e.g. an
        # URGENT resume created while processing a same-time event) never
        # coexisted with it and is exempt from the comparison.
        coexisted = rec is None or rec.sched_pop < self.pops
        if (
            self._last_key is not None
            and key <= self._last_key
            and coexisted
        ):
            self._violate(
                "order-violation",
                event,
                f"pop order regressed: {key} after {self._last_key} — the "
                "scheduler broke the (time, priority, insertion-order) "
                "tie-break contract",
            )
        self.pops += 1
        self._last_key = key
        self._scheduled.discard(key_id)
        if rec is not None:
            rec.state = "processing"

    def on_recycle(self, event: Any) -> None:
        """``event`` was pushed onto a free pool after processing."""
        self.recycles += 1
        rec = self._record_for(event)
        rec.state = "pooled"
        rec.generation += 1
        self._pooled.add(id(event))

    def on_processed(self, event: Any) -> None:
        """``event`` finished processing and was *not* recycled.

        Its life is over, so the record is dropped (which also releases
        the strong reference and lets the object be freed).  Processes
        are only ever popped at generator termination, so a record left
        behind for a process always means an orphan.
        """
        key = id(event)
        self._scheduled.discard(key)
        self._records.pop(key, None)

    # -- in-flight operation tracking --------------------------------------

    def op_begin(self, label: str, detail: str = "") -> int:
        """Register a multi-event operation (e.g. one callback-chain
        request) as in flight; returns a token for :meth:`op_end`.

        Individual events inside a callback chain complete one by one, so
        a chain that stalls waiting on a broken resource leaves *no*
        pending event for the leak report to see.  Operation tracking
        closes that blind spot: anything begun but never ended shows up
        in :meth:`finish` as a stalled operation.
        """
        self._op_seq += 1
        self._ops[self._op_seq] = (label, detail, self.env._now)
        return self._op_seq

    def op_end(self, token: int) -> None:
        """Mark the operation behind ``token`` as completed (or aborted)."""
        self._ops.pop(token, None)

    # -- reporting ---------------------------------------------------------

    def finish(self) -> LeakReport:
        """End-of-run leak report (does not raise; render and inspect)."""
        from .core import PENDING, Process

        never: List[str] = []
        stranded: List[str] = []
        orphans: List[str] = []
        for key, rec in sorted(
            self._records.items(), key=lambda kv: (kv[1].created_at, kv[0])
        ):
            if rec.state == "pooled":
                continue  # at rest in a free list: a completed life
            event = rec.event
            if isinstance(event, Process):
                if event._value is PENDING:
                    orphans.append(rec.provenance())
                continue
            if event._value is PENDING:
                never.append(rec.provenance())
            elif key in self._scheduled:
                stranded.append(rec.provenance())
        stalled: List[str] = []
        undelivered: List[str] = []
        for label, detail, begun in self._ops.values():
            text = (
                f"{label} ({detail}) begun at t={begun:g}" if detail
                else f"{label} begun at t={begun:g}"
            )
            # The interconnect registers every counted message as an
            # operation at send time and ends it at delivery or drop;
            # anything left is a message its accounting lost.
            if label == "interconnect-message":
                undelivered.append(text)
            else:
                stalled.append(text)
        return LeakReport(never, stranded, orphans, stalled,
                          self.events_tracked,
                          undelivered_messages=undelivered)


def force_recycle(env: Any, event: Any) -> None:
    """Force ``event`` into its environment's free pool, skipping every
    safety check the kernel applies (refcount guard, processed-state).

    This exists for the sanitizer's own mutation tests: it reproduces the
    exact buggy state a use-after-recycle defect would create, so the
    tests can assert the sanitizer catches it.  Never call it from
    simulation code.
    """
    from .core import Timeout, _Callback

    if isinstance(event, Timeout):
        pool = env._timeout_pool
    elif isinstance(event, _Callback):
        pool = env._cb_pool
    else:
        raise TypeError(f"{event!r} is not a poolable event")
    if pool is None:
        raise RuntimeError("event pooling is disabled in this environment")
    pool.append(event)
    if env._san is not None:
        env._san.on_recycle(event)
