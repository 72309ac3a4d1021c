"""Shared resources with queueing: counted stations.

:class:`Resource` models a station (or a pool of ``capacity`` identical
servers) with a FIFO queue of waiting visits — the building block for
CPUs, NICs, disks and router ports in :mod:`repro.cluster`.
:class:`PriorityResource` orders its queue by priority, FIFO within a
priority, and scales service by the station's ``speed``.

A station visit is one call that hands the station its service time and
the continuation to run when the visit completes, and it costs one
kernel event, that completion::

    def done():
        cpu.release()               # the next queued visit starts now
    cpu.visit(work, done)           # scheduled at the grant

:meth:`Resource.hold` packages exactly that: ``cpu.hold(work, then)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .core import NORMAL, Environment

__all__ = ["Resource", "PriorityResource"]


def _noop() -> None:
    """The continuation of a withdrawn visit's completion entry."""


class Resource:
    """``capacity`` identical servers with a FIFO queue of visits.

    A visit is its completion entry, the ``[seconds, NORMAL, None,
    done]`` list :meth:`visit` builds and returns.  The station
    schedules it (:meth:`Environment.schedule`) the moment a slot is
    granted — inside :meth:`visit` on a free station, or inside the
    :meth:`release` that hands the slot over — so the entry takes its
    eid at grant time and no grant event is ever scheduled.  ``done``
    calls :meth:`release`.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = capacity
        #: Waiting visits' entries in grant order (``(priority, entry)``
        #: pairs on a :class:`PriorityResource`).
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
    def visit(self, seconds: float, done: Callable[[], None]) -> list:
        """Hold a slot for ``seconds`` once granted, then call ``done()``.

        Returns the visit's entry: queued while it waits (eid ``None``),
        the scheduled completion once granted.  ``done`` must
        :meth:`release` the slot.
        """
        entry = [seconds, NORMAL, None, done]  # simlint: disable=REP104
        busy = self._busy
        if busy < self._capacity:
            if not busy:
                self._busy_since = self.env._now
            self._busy = busy + 1
            self._total_served += 1
            self.env.schedule(entry)
        else:
            self.queue.append(entry)
        return entry

    # simlint: hotpath
    def release(self) -> None:
        """Free one held slot; the next queued visit is granted it now.

        A hand-over keeps the station busy, but a lone slot still closes
        its busy period and opens a new one, so busy time sums the same
        floating-point terms as a free followed by a grant.
        """
        queue = self.queue
        if queue:
            if self._busy == 1:
                now = self.env._now
                self._busy_time += now - self._busy_since
                self._busy_since = now
            self._total_served += 1
            self.env.schedule(queue.popleft())
            return
        busy = self._busy
        if not busy:
            raise RuntimeError(f"release of {self!r}, which holds no slot")
        self._busy = busy - 1
        if busy == 1:
            self._busy_time += self.env._now - self._busy_since
            self._busy_since = None

    def withdraw(self, entry: list) -> None:
        """Take a visit off this station early (a cancelled chain).

        ``entry`` is what :meth:`visit` returned.  Still queued (eid
        ``None``), it leaves the queue and is never granted.  Once
        granted, its ``fn`` is blanked — the visit's ``done`` never
        runs, though the entry still pops — and the slot frees at once.
        """
        if entry[2] is None:
            self._dequeue(entry)
        else:
            entry[3] = _noop
            self.release()

    def _dequeue(self, entry: list) -> None:
        queue = self.queue
        for i, queued in enumerate(queue):
            if queued is entry:
                del queue[i]
                return
        raise RuntimeError(f"{entry!r} is not queued at {self!r}")

    def hold(
        self,
        seconds: float,
        then: Callable[[], None],
        priority: Optional[int] = None,
    ) -> None:
        """Occupy one slot for ``seconds`` once granted, free it, then
        call ``then()``.  ``priority`` is for :class:`PriorityResource`."""

        def done() -> None:
            self.release()
            then()

        if priority is None:
            self.visit(seconds, done)
        else:
            self.visit(seconds, done, priority)  # type: ignore[call-arg]

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
    served first, FIFO within a priority.

    A visit's ``seconds`` is work at unit speed: the station divides it
    by :attr:`speed` at grant, so a visit queued across a speed change
    runs at the speed in force when it is granted.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        #: Service-rate multiplier: a visit of ``work`` holds the
        #: station for ``work / speed``.
        self.speed = 1.0

    # simlint: hotpath
    def visit(  # type: ignore[override]
        self, work: float, done: Callable[[], None], priority: int = 0
    ) -> list:
        entry = [work, NORMAL, None, done]  # simlint: disable=REP104
        busy = self._busy
        if busy < self._capacity:
            if not busy:
                self._busy_since = self.env._now
            self._busy = busy + 1
            self._total_served += 1
            entry[0] = work / self.speed
            self.env.schedule(entry)
            return entry
        # Insert behind every visit of the same or a better priority.
        # The common case appends; the scan only runs when a visit
        # overtakes waiting visits of a worse priority.
        q = self.queue
        if q and q[-1][0] > priority:
            for i, (p, _) in enumerate(q):
                if p > priority:
                    q.insert(i, (priority, entry))
                    return entry
        q.append((priority, entry))
        return entry

    # simlint: hotpath
    def release(self) -> None:
        queue = self.queue
        if queue:
            if self._busy == 1:
                now = self.env._now
                self._busy_time += now - self._busy_since
                self._busy_since = now
            self._total_served += 1
            entry = queue.popleft()[1]
            entry[0] /= self.speed
            self.env.schedule(entry)
        else:
            Resource.release(self)

    def _dequeue(self, entry: list) -> None:
        queue = self.queue
        for i, (_, queued) in enumerate(queue):
            if queued is entry:
                del queue[i]
                return
        raise RuntimeError(f"{entry!r} is not queued at {self!r}")
