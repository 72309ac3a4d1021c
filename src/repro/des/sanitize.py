"""Runtime DES sanitizer: kernel invariant checking for sanitized runs.

The kernel's design (one heap ordered by a ``(time, priority,
insertion-order)`` tie-break, entries built early and scheduled later,
cancellation by blanking a queued entry, callback chains) buys speed
with exactly the kind of ordering hazards that are invisible to spot
tests.  The kernel's one scheduling body and one event loop hand every
scheduled entry and every pop to the sanitizer's invariant checks, at
a cost that is acceptable for smoke runs and CI but not for production
sweeps — enable it with ``Environment(sanitize=True)`` or
``REPRO_DES_SANITIZE=1``.

Checks
------
* **Time monotonicity / tie-break order** — pops must come out in strictly
  increasing ``(time, priority, eid)`` order (eids are unique, so equality
  is also a violation) among entries that coexisted in the queue; an
  entry pushed into the past behind the scheduler's back is caught when
  it pops (``call_later`` refuses a negative delay at the source).
* **Leak report** — :meth:`DESSanitizer.finish` reports entries
  scheduled but stranded in the queue, in-flight operations
  (callback-chain requests registered through
  :meth:`DESSanitizer.op_begin`) that never completed, and interconnect
  messages sent but never delivered or dropped (the blind spot netfault
  injection opens), each with provenance.

A sanitized run is behaviourally identical to an unsanitized one: the
sanitizer only observes (the equivalence test asserts SimResult equality).
Violations raise :class:`SanitizerError` immediately and are also kept in
:attr:`DESSanitizer.violations`.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DESSanitizer",
    "SanitizerError",
    "Violation",
    "LeakReport",
]

#: Kernel files whose frames are skipped when attributing scheduling sites.
_KERNEL_FILE_MARKERS = ("repro/des/", "repro\\des\\")


def _scheduling_site() -> str:
    """``file:line`` of the first stack frame outside the DES kernel."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not any(marker in filename for marker in _KERNEL_FILE_MARKERS):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


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
    """End-of-run accounting of work that never completed its life."""

    __slots__ = ("stranded", "stalled_ops", "undelivered_messages",
                 "events_tracked")

    def __init__(
        self,
        stranded: List[str],
        stalled_ops: List[str],
        events_tracked: int,
        undelivered_messages: Optional[List[str]] = None,
    ):
        #: Provenance of ``call_later`` entries still queued: the run
        #: stopped before they were processed.
        self.stranded = stranded
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
            self.stranded or self.stalled_ops or self.undelivered_messages
        )

    def render(self) -> str:
        lines = [
            f"sanitizer: {self.events_tracked} events tracked; "
            + ("no leaks" if self.clean else "LEAKS DETECTED")
        ]
        for title, entries in (
            ("scheduled but unprocessed entries", self.stranded),
            ("stalled in-flight operations", self.stalled_ops),
            ("undelivered interconnect messages", self.undelivered_messages),
        ):
            if entries:
                lines.append(f"  {title} ({len(entries)}):")
                lines.extend(f"    {e}" for e in entries)
        return "\n".join(lines)


class DESSanitizer:
    """Observes one :class:`~repro.des.core.Environment`'s queue traffic.

    Installed by ``Environment(sanitize=True)``; the kernel calls
    :meth:`on_schedule` for every entry it pushes and :meth:`on_pop` for
    every entry it pops.  Queue entries are keyed by their eid.
    """

    def __init__(self, env: Any):
        self.env = env
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

    def _violate(self, kind: str, message: str, provenance: str) -> None:
        violation = Violation(kind, message, provenance, self.env._now)
        self.violations.append(violation)
        raise SanitizerError(violation)

    def _provenance(self, entry: list, rec: Optional[_EntryRecord]) -> str:
        """Provenance of a queue entry (one never scheduled has none)."""
        if rec is None:
            rec = _EntryRecord(entry, "<unknown>", self.env._now, -1)
        return rec.provenance()

    # -- kernel hooks ------------------------------------------------------

    # The sanitizer is opt-in diagnostics (~4x overhead by design); its
    # bookkeeping is exempt from the hot-path allocation lint.
    # simlint: coldpath
    def on_schedule(self, entry: list) -> None:
        """``entry`` (``[t, priority, eid, fn]``) is about to be pushed.

        ``call_later`` has already refused a negative delay.
        """
        self.events_tracked += 1
        self._queued[entry[2]] = _EntryRecord(
            entry, _scheduling_site(), self.env._now, self.pops
        )

    def on_pop(self, entry: list, prev_now: float) -> None:
        """The scheduler handed out ``entry`` as the next minimum."""
        t, priority, eid = entry[:3]
        rec = self._queued.pop(eid, None)
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
        return LeakReport(stranded, stalled, self.events_tracked,
                          undelivered_messages=undelivered)
