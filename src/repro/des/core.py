"""Core of the discrete-event simulation kernel.

An :class:`Environment` owns a simulated clock and a time-ordered queue
of zero-argument continuations.  :meth:`Environment.call_later` schedules
one; :meth:`Environment.run` and :meth:`Environment.step` pop them in
order and call them.  There is no coroutine layer: a model is a set of
callback chains, each continuation scheduling the next.

The kernel is deterministic: entries scheduled for the same simulated
time run in (priority, insertion-order) order, so a simulation run is
exactly reproducible from its random seed.

Design notes
------------
The simulator in :mod:`repro.sim` schedules on the order of millions of
entries per run, so this module is written for speed as much as clarity
(see ``docs/KERNEL.md`` for the full story):

* the heap holds *continuations*: :meth:`Environment.call_later` pushes
  one small ``[time, priority, eid, fn]`` list and returns it as the
  handle, and the event loop (:meth:`Environment._dispatch`, shared by
  :meth:`Environment.run`, :meth:`Environment.step` and sanitized runs)
  pops an entry and calls ``fn()``;
* a scheduled continuation is cancelled by blanking its entry's ``fn``
  (the entry still pops, so event counts and order never change), and a
  retained handle is harmless: blanking an entry that has already fired
  does nothing;
* zero-delay *now queues* (kernel v3): entries scheduled at exactly the
  current simulated time bypass the heap entirely and land in two
  per-priority FIFO deques drained before the clock advances.  The
  drain respects the exact global (time, priority, eid) order (heap
  items at the current time were scheduled earlier and therefore carry
  smaller ids than any now-queue entry), so results are bit-identical
  to routing everything through the heap; it just skips the
  O(log n) push/pop for every entry that fires "now".

The kernel carries an optional runtime sanitizer
(``Environment(sanitize=True)`` or ``REPRO_DES_SANITIZE=1``): every
scheduled entry and every pop is then routed through
:mod:`repro.des.sanitize`'s invariant checks (time monotonicity,
tie-break order, end-of-run leak accounting).  When the sanitizer is
off the hooks reduce to a single predictable-branch ``None`` check per
entry point.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Callable, Optional

__all__ = [
    "Environment",
    "EmptySchedule",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for entries that must run before ordinary entries
#: at the same simulated time (e.g. the zero-delay kick that starts a
#: background chain).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no entries remain."""


class Environment:
    """Execution environment: simulated clock plus the entry queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock.
    sanitize:
        Route every scheduled entry and pop through the runtime
        sanitizer (:mod:`repro.des.sanitize`): monotonicity/tie-break
        invariants and leak accounting.  ``None`` consults
        ``REPRO_DES_SANITIZE`` (default off).  Behaviour (results, entry
        order) is identical either way; sanitized runs are slower.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_now_u",
        "_now_n",
        "_eid",
        "_san",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        sanitize: Optional[bool] = None,
    ):
        self._now = float(initial_time)
        if sanitize is None:
            sanitize = os.environ.get("REPRO_DES_SANITIZE", "0") != "0"
        if sanitize:
            from .sanitize import DESSanitizer

            self._san = DESSanitizer(self)
        else:
            self._san = None
        # Heap of [time, priority, eid, fn] entries.
        self._queue: list = []
        # Zero-delay now queues (kernel v3), one per priority level.
        # Sanitized environments leave them empty: every entry then flows
        # through the fully-checked heap path, and the sanitizer's
        # pop-order checks certify exactly the order the now queues
        # reproduce.
        self._now_u: deque = deque()
        self._now_n: deque = deque()
        self._eid = 0

    # -- public API ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def sanitizer(self):
        """The :class:`~repro.des.sanitize.DESSanitizer` (None when off)."""
        return self._san

    @property
    def sanitized(self) -> bool:
        """True when the runtime sanitizer is active."""
        return self._san is not None

    @property
    def event_count(self) -> int:
        """Total entries scheduled so far (the benchmark work metric)."""
        return self._eid

    # simlint: hotpath
    def call_later(
        self,
        delay: float,
        fn: Callable[[], None],
        priority: int = NORMAL,
    ) -> list:
        """Run ``fn()`` after ``delay``; returns the entry as its handle.

        The entry is the ``[time, priority, eid, fn]`` list the queue
        holds.  Setting its ``fn`` to a no-op cancels the call (the entry
        still pops, so event counts and order are unchanged); doing so
        after it has fired does nothing, so a handle may be kept freely.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        now = self._now
        t = now + delay
        eid = self._eid = self._eid + 1
        # The entry is the handle and the heap item at once.
        entry = [t, priority, eid, fn]  # simlint: disable=REP104
        san = self._san
        if san is None:
            if t == now:
                # Zero-delay fast path (kernel v3): the entry fires at the
                # current time, so it skips the heap and joins the
                # per-priority now queue.  FIFO order there is eid order,
                # and every heap entry at the current time was pushed
                # earlier (smaller eid), so the drain in _dispatch() keeps
                # the exact (time, priority, eid) total order.
                (self._now_u if priority == 0 else self._now_n).append(entry)
                return entry
        else:
            san.on_schedule(entry)
        heappush(self._queue, entry)
        return entry

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        if self._now_u or self._now_n:
            return self._now
        q = self._queue
        return q[0][0] if q else inf

    # simlint: hotpath
    def step(self) -> None:
        """Run the next entry.  Raises :class:`EmptySchedule` if none.

        An entry at ``t = inf`` lies beyond every horizon and counts as
        none, exactly as :meth:`run` leaves it unprocessed.
        """
        if not self._dispatch(inf, True):
            raise EmptySchedule()

    # simlint: hotpath
    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains) or a
        simulated time: entries due before it run, and the clock then
        stands at ``until``.  ``until == now`` is a documented no-op so
        sweep drivers can resume in fixed windows.
        """
        stop_at = inf
        if until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be earlier than now "
                    f"({self._now})"
                )
            if stop_at == self._now:
                # No-op: entries exactly at `now` stay unprocessed, exactly
                # as a previous run(until=now) left them.
                return
        self._dispatch(stop_at, False)
        if stop_at is not inf:
            self._now = stop_at

    # simlint: hotpath
    def _dispatch(self, stop_at: float, single: bool) -> bool:
        """The event loop: the kernel's one pop-and-call body.

        Pops entries in exact (time, priority, eid) order and calls each
        one's ``fn()`` until the schedule drains or the next entry lies
        at or beyond ``stop_at`` (the clock never advances to it); with
        ``single`` it returns True after the first entry.  Returns False
        when it stopped because nothing was left to process before
        ``stop_at``.

        The pop merges the heap with the zero-delay now queues: heap
        entries at the current time were scheduled earlier (smaller eid)
        than any now-queue entry, and urgent now-queue entries overtake
        NORMAL heap entries at the current time (priority compares
        first).  Sanitized environments keep the now queues empty and
        take every entry off the heap, so the sanitizer can check the
        order it comes out in.
        """
        q = self._queue
        san = self._san
        now_u = self._now_u
        now_n = self._now_n
        pop = heappop
        pop_u = now_u.popleft
        pop_n = now_n.popleft
        now = self._now
        while True:
            if san is None:
                if now_u:
                    if q and q[0][0] == now and q[0][1] == 0:
                        entry = pop(q)
                    else:
                        entry = pop_u()
                elif q:
                    entry = q[0]
                    t = entry[0]
                    if t == now:
                        pop(q)
                    elif now_n:
                        entry = pop_n()
                    elif t >= stop_at:
                        return False
                    else:
                        self._now = now = t
                        pop(q)
                elif now_n:
                    entry = pop_n()
                else:
                    return False
            else:
                if not q or q[0][0] >= stop_at:
                    return False
                entry = pop(q)
                san.on_pop(entry, now)
                self._now = now = entry[0]
            entry[3]()
            if single:
                return True
