"""Shared resources with queueing: counted stations.

:class:`Resource` models a station (or a pool of ``capacity`` identical
servers) with a FIFO queue of waiting visits — the building block for
CPUs, NICs, disks and router ports in :mod:`repro.cluster`.
:class:`PriorityResource` orders its queue by priority, FIFO within a
priority.

A station visit is a callback chain and costs one kernel event, its
completion::

    def granted():                  # runs the instant a slot is granted
        env.call_later(work, done)  # the visit's one event
    def done():
        cpu.release()               # the next queued visit starts now
    cpu.acquire(granted)

:meth:`Resource.hold` packages exactly that: ``cpu.hold(work, then)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .core import Environment

__all__ = ["Resource", "PriorityResource"]


def _noop() -> None:
    """The continuation of a withdrawn visit's completion entry."""


class Resource:
    """``capacity`` identical servers with a FIFO queue of visits.

    A visit is its ``on_grant`` continuation.  The station calls it
    synchronously the moment a slot is granted — inside :meth:`acquire`
    on a free station, or inside the :meth:`release` that hands the
    slot over — and the continuation schedules the visit's completion
    (``env.call_later(service, done)``, ``done`` calling
    :meth:`release`).  Service times are therefore read at grant time,
    and no grant event is ever scheduled.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = capacity
        #: Waiting visits in grant order (``(priority, on_grant)`` pairs
        #: on a :class:`PriorityResource`).
        self.queue: Deque[Any] = deque()
        self._busy = 0
        # Cumulative busy time accounting (for utilization metrics).
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0
        self._total_served = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name or id(self):}, {self._busy}/"
            f"{self._capacity} busy, {len(self.queue)} queued>"
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def total_served(self) -> int:
        """Number of visits granted so far."""
        return self._total_served

    # simlint: hotpath
    def acquire(self, on_grant: Callable[[], None]) -> None:
        """Grant a slot to ``on_grant`` now if one is free, else queue it."""
        busy = self._busy
        if busy < self._capacity:
            if not busy:
                self._busy_since = self.env._now
            self._busy = busy + 1
            self._total_served += 1
            on_grant()
        else:
            self.queue.append(on_grant)

    # simlint: hotpath
    def release(self) -> None:
        """Free one held slot; the next queued visit is granted it now."""
        queue = self.queue
        if queue:
            self._hand_over()
            queue.popleft()()
            return
        busy = self._busy
        if not busy:
            raise RuntimeError(f"release of {self!r}, which holds no slot")
        self._busy = busy - 1
        if busy == 1:
            self._busy_time += self.env._now - self._busy_since
            self._busy_since = None

    def _hand_over(self) -> None:
        """Account a slot passed straight to the next queued visit.

        The station stays busy, but a lone slot still closes its busy
        period and opens a new one, so busy time sums the same
        floating-point terms as a free followed by a grant.
        """
        if self._busy == 1:
            now = self.env._now
            self._busy_time += now - self._busy_since
            self._busy_since = now
        self._total_served += 1

    def withdraw(self, visit: Any) -> None:
        """Take a visit off this station early (a cancelled chain).

        ``visit`` is what the chain holds at the time: the ``on_grant``
        of a visit still queued, which leaves the queue and is never
        granted; or, once granted, the completion entry its continuation
        scheduled (the handle ``call_later`` returned), whose ``fn`` is
        blanked — the visit's ``done`` never runs, though the entry still
        pops — while the slot frees at once.
        """
        if isinstance(visit, list):
            visit[3] = _noop
            self.release()
        else:
            self._dequeue(visit)

    def _dequeue(self, on_grant: Callable[[], None]) -> None:
        try:
            self.queue.remove(on_grant)
        except ValueError:
            raise RuntimeError(f"{on_grant!r} is not queued at {self!r}") from None

    def hold(
        self,
        seconds: float,
        then: Callable[[], None],
        priority: Optional[int] = None,
    ) -> None:
        """Occupy one slot for ``seconds`` once granted, free it, then
        call ``then()``.  ``priority`` is for :class:`PriorityResource`."""
        env = self.env

        def granted() -> None:
            env.call_later(seconds, done)

        def done() -> None:
            self.release()
            then()

        if priority is None:
            self.acquire(granted)
        else:
            self.acquire(granted, priority)  # type: ignore[call-arg]

    # -- utilization accounting ------------------------------------------

    def busy_time(self, now: Optional[float] = None) -> float:
        """Total time at least one server was busy, up to ``now``."""
        if now is None:
            now = self.env.now
        busy = self._busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time this resource was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time() / elapsed)

    def reset_accounting(self) -> None:
        """Zero the busy-time counters (e.g. after a warmup phase)."""
        self._busy_time = 0.0
        self._total_served = 0
        if self._busy:
            self._busy_since = self.env.now
        else:
            self._busy_since = None


class PriorityResource(Resource):
    """Resource whose queue is ordered by priority; lower values are
    served first, FIFO within a priority."""

    # simlint: hotpath
    def acquire(  # type: ignore[override]
        self, on_grant: Callable[[], None], priority: int = 0
    ) -> None:
        if self._busy < self._capacity:
            Resource.acquire(self, on_grant)
            return
        # Insert behind every visit of the same or a better priority.
        # The common case appends; the scan only runs when a visit
        # overtakes waiting visits of a worse priority.
        q = self.queue
        if not q or q[-1][0] <= priority:
            q.append((priority, on_grant))
            return
        for i, (p, _) in enumerate(q):
            if p > priority:
                q.insert(i, (priority, on_grant))
                return

    # simlint: hotpath
    def release(self) -> None:
        queue = self.queue
        if queue:
            self._hand_over()
            queue.popleft()[1]()
        else:
            Resource.release(self)

    def _dequeue(self, on_grant: Callable[[], None]) -> None:
        for entry in self.queue:
            if entry[1] == on_grant:
                self.queue.remove(entry)
                return
        raise RuntimeError(f"{on_grant!r} is not queued at {self!r}")
