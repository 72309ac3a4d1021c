"""Runtime DES sanitizer: kernel invariant checking for sanitized runs.

The kernel's fast paths (zero-delay now-queues merged with the heap
under a delicate ``(time, priority, insertion-order)`` tie-break,
cancellation by blanking a queued entry, callback chains) buy speed with
exactly the kind of ordering hazards that are invisible to spot tests.
The sanitizer wraps every scheduling entry point and every pop with
invariant checks, at a cost that is acceptable for smoke runs and CI but
not for production sweeps — enable it with ``Environment(sanitize=True)``
or ``REPRO_DES_SANITIZE=1``.

Checks
------
* **Time monotonicity / tie-break order** — pops must come out in strictly
  increasing ``(time, priority, eid)`` order (eids are unique, so equality
  is also a violation) among entries that coexisted in the queue;
  scheduling behind ``env.now`` is caught at the source.
* **Double trigger** — re-scheduling an :class:`~repro.des.core.Event`
  that is already queued, or one whose callbacks have already run, and
  popping an event whose callbacks already ran, are reported even when
  the ``Event.succeed``/``fail`` guards were bypassed by direct state
  writes.
* **Leak report** — :meth:`DESSanitizer.finish` reports events created but
  never triggered, entries scheduled but stranded in the queue, processes
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

from .core import Event

__all__ = [
    "DESSanitizer",
    "SanitizerError",
    "Violation",
    "LeakReport",
]

#: Kernel files whose frames are skipped when attributing creation sites.
_KERNEL_FILE_MARKERS = ("repro/des/", "repro\\des\\")

#: What the queue entry of every event runs (``event._fire``).
_FIRE = Event._fire


def _creation_site() -> str:
    """``file:line`` of the first stack frame outside the DES kernel."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not any(marker in filename for marker in _KERNEL_FILE_MARKERS):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _event_of(fn: Any) -> Optional[Event]:
    """The event whose ``_fire`` a queue entry runs, else None."""
    if getattr(fn, "__func__", None) is _FIRE:
        return fn.__self__
    return None


class _EventRecord:
    """Provenance and lifecycle state for one tracked event."""

    __slots__ = ("event", "type_name", "site", "created_at", "state",
                 "last_eid")

    def __init__(self, event: Any, created_at: float, site: str):
        #: Strong reference: keeps ids stable for every tracked event.
        self.event = event
        self.type_name = type(event).__name__
        self.site = site
        self.created_at = created_at
        #: "pending" -> "queued"; the record is dropped when it pops.
        self.state = "pending"
        #: eid the event was last scheduled under (None before scheduling).
        self.last_eid: Optional[int] = None

    def provenance(self) -> str:
        eid = f", eid {self.last_eid}" if self.last_eid is not None else ""
        return (
            f"{self.type_name} created at {self.site} "
            f"(t={self.created_at:g}{eid}, state {self.state})"
        )


class _EntryRecord:
    """A queue entry scheduled and not yet popped."""

    __slots__ = ("entry", "site", "scheduled_at", "sched_pop")

    def __init__(self, entry: list, site: str, scheduled_at: float, pops: int):
        self.entry = entry
        self.site = site
        self.scheduled_at = scheduled_at
        #: Pop count at the moment the entry was scheduled.  Entries
        #: scheduled *after* a pop are exempt from the tie-break
        #: comparison against that pop (they never coexisted in the
        #: queue).
        self.sched_pop = pops

    def provenance(self) -> str:
        t, priority, eid, fn = self.entry
        name = getattr(fn, "__qualname__", type(fn).__name__)
        return (
            f"call of {name} scheduled at {self.site} "
            f"(t={self.scheduled_at:g}, due {t:g}, eid {eid})"
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
        #: Provenance of entries (triggered events and call_later calls)
        #: still queued: the run stopped before they were processed.
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
            ("scheduled but unprocessed entries", self.stranded),
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
    ``on_*`` hooks from its scheduling and processing paths.  Events are
    keyed by ``id(event)`` — safe because the sanitizer keeps a strong
    reference to every live tracked event, so ids cannot be recycled
    underneath it — and queue entries by their eid.
    """

    def __init__(self, env: Any):
        self.env = env
        #: id(event) -> record, for events whose life is not over
        #: (pending or queued).
        self._records: Dict[int, _EventRecord] = {}
        #: ids of the events currently sitting in the scheduler queue.
        self._scheduled: Set[int] = set()
        #: eid -> record, for every entry currently in the queue.
        self._queued: Dict[int, _EntryRecord] = {}
        #: Last popped (time, priority, eid) key — pops must increase.
        self._last_key: Optional[Tuple[float, int, int]] = None
        #: Every violation detected (each also raised as SanitizerError).
        self.violations: List[Violation] = []
        #: token -> (label, detail, begin time) for in-flight operations.
        self._ops: Dict[int, Tuple[str, str, float]] = {}
        self._op_seq = 0
        self.events_tracked = 0
        self.pops = 0

    # -- internals ---------------------------------------------------------

    def _record_for(self, event: Any) -> _EventRecord:
        """The record for ``event``, creating one if it is unknown.

        Every kernel event is recorded by ``on_create``; an event the
        sanitizer never saw created (one that skipped ``Event.__init__``,
        or one already processed) gets its record on demand here.
        """
        rec = self._records.get(id(event))
        if rec is None:
            rec = _EventRecord(event, self.env._now, _creation_site())
            self._records[id(event)] = rec
            self.events_tracked += 1
        return rec

    def _violate(self, kind: str, message: str, provenance: str) -> None:
        violation = Violation(kind, message, provenance, self.env._now)
        self.violations.append(violation)
        raise SanitizerError(violation)

    def _provenance(self, entry: list, rec: Optional[_EntryRecord]) -> str:
        """Provenance of a queue entry: its event's, else its own."""
        event = _event_of(entry[3])
        if event is not None:
            return self._record_for(event).provenance()
        if rec is None:
            rec = _EntryRecord(entry, "<unknown>", self.env._now, -1)
        return rec.provenance()

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
    def on_trigger(self, event: Any, at: float) -> None:
        """``event`` is about to be queued to fire at ``at``."""
        now = self.env._now
        if id(event) in self._scheduled:
            self._violate(
                "double-trigger",
                "event scheduled while already in the queue (double "
                "succeed/fail, or a direct reset of a live event)",
                self._record_for(event).provenance(),
            )
        if event.callbacks is None:
            self._violate(
                "double-trigger",
                "event scheduled after its callbacks already ran",
                self._record_for(event).provenance(),
            )
        if at < now:
            self._violate(
                "time-travel",
                f"scheduled at t={at:g}, behind the current time {now:g}",
                self._record_for(event).provenance(),
            )
        self._record_for(event).state = "queued"
        self._scheduled.add(id(event))

    # simlint: coldpath
    def on_schedule(self, entry: list) -> None:
        """``entry`` (``[t, priority, eid, fn]``) is about to be pushed.

        ``call_later`` has already refused a negative delay, and an
        event's time was checked by :meth:`on_trigger`.
        """
        eid = entry[2]
        event = _event_of(entry[3])
        if event is None:
            self.events_tracked += 1
        else:
            self._record_for(event).last_eid = eid
        self._queued[eid] = _EntryRecord(
            entry, _creation_site(), self.env._now, self.pops
        )

    def on_pop(self, entry: list, prev_now: float) -> None:
        """The scheduler handed out ``entry`` as the next minimum."""
        t, priority, eid, fn = entry
        rec = self._queued.pop(eid, None)
        event = _event_of(fn)
        if event is not None and event.callbacks is None:
            self._violate(
                "double-trigger",
                "event popped twice: callbacks already ran",
                self._provenance(entry, rec),
            )
        if t < prev_now:
            self._violate(
                "time-travel",
                f"popped at t={t:g}, behind the clock {prev_now:g} (an "
                "entry was inserted into the past behind the scheduler's "
                "back)",
                self._provenance(entry, rec),
            )
        key = (t, priority, eid)
        # Tie-break contract: among entries that coexisted in the queue,
        # pops come out in strictly increasing (time, priority, eid)
        # order.  An entry scheduled after the previous pop (e.g. an
        # URGENT kick created while processing a same-time entry) never
        # coexisted with it and is exempt from the comparison; an entry
        # that never went through on_schedule is always compared.
        coexisted = rec is None or rec.sched_pop < self.pops
        if (
            self._last_key is not None
            and key <= self._last_key
            and coexisted
        ):
            self._violate(
                "order-violation",
                f"pop order regressed: {key} after {self._last_key} — the "
                "scheduler broke the (time, priority, insertion-order) "
                "tie-break contract",
                self._provenance(entry, rec),
            )
        self.pops += 1
        self._last_key = key
        if event is not None:
            # Its life is over once it fires: drop the record (and the
            # strong reference).  Processes are only ever queued at
            # generator termination, so a record left behind for a
            # process always means an orphan.
            self._scheduled.discard(id(event))
            self._records.pop(id(event), None)

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
        orphans: List[str] = []
        for key, rec in sorted(
            self._records.items(), key=lambda kv: (kv[1].created_at, kv[0])
        ):
            event = rec.event
            if event._value is not PENDING:
                continue
            if isinstance(event, Process):
                orphans.append(rec.provenance())
            else:
                never.append(rec.provenance())
        stranded = [
            self._provenance(rec.entry, rec)
            for _, rec in sorted(self._queued.items())
        ]
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
