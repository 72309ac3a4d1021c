"""Shared resources with queueing: counted resources and level containers.

:class:`Resource` models a server (or pool of ``capacity`` identical
servers) with a FIFO request queue — the building block for CPUs, NICs,
disks and router ports in :mod:`repro.cluster`.  :class:`PriorityResource`
adds a priority to each request.  :class:`Container` models a continuous
level (e.g. buffer space) with put/get semantics.

Usage::

    cpu = Resource(env, capacity=1)
    with cpu.request() as req:
        yield req              # wait until granted
        yield env.timeout(work)
    # released on exiting the with-block
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappush
from typing import Callable, Deque, List, Optional

from .core import Environment, Event, PENDING, _POOL_MAX

try:
    from sys import getrefcount as _refcount
except ImportError:  # pragma: no cover - non-CPython: pooling disabled
    _refcount = None

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Container",
]


class Request(Event):
    """Request to use a :class:`Resource`; triggers once granted.

    Usable as a context manager: exiting the ``with`` block releases the
    resource (or cancels the request if it was never granted).
    """

    __slots__ = ("resource", "usage_since")

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ — requests are the hottest allocation in
        # a simulation run (see docs/KERNEL.md).
        self.env = resource.env
        self.callbacks = []  # simlint: disable=REP104 (fresh-request contract)
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        #: Simulated time the request was granted (None while queued).
        self.usage_since: Optional[float] = None
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel() if self.usage_since is None else self.release()

    def release(self) -> "Release":
        """Release the resource (only valid once granted)."""
        return Release(self.resource, self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._do_cancel(self)


class Release(Event):
    """Event that releases a granted :class:`Request` (fires immediately)."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(request)
        self.succeed()


class Resource:
    """``capacity`` identical servers with a FIFO queue of requests."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = capacity
        self.queue: Deque[Request] = deque()
        self.users: List[Request] = []
        # Cumulative busy time accounting (for utilization metrics).
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0
        self._total_served = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name or id(self):}, {len(self.users)}/"
            f"{self._capacity} busy, {len(self.queue)} queued>"
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of requests currently being served."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def total_served(self) -> int:
        """Number of requests granted so far."""
        return self._total_served

    # simlint: hotpath
    def request(self) -> Request:
        """Create (and enqueue) a new request for this resource.

        Draws from the environment's request free list when pooling is
        enabled; requests enter the pool via :meth:`free` (fast path
        only — the generator-path ``release()`` never recycles).
        """
        pool = self.env._req_pool
        if pool:
            req = pool.pop()
            # Pool-reset contract: recycled request, fresh callbacks.
            req.callbacks = []  # simlint: disable=REP104
            req._value = PENDING
            req._ok = True
            req._defused = False
            req.resource = self
            req.usage_since = None
            # Inlined _do_request (Resource.request is never inherited by
            # subclasses with a different queue discipline).
            if len(self.users) < self._capacity:
                self._grant(req)
            else:
                self.queue.append(req)
            return req
        return Request(self)

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
        if self.users:
            self._busy_since = self.env.now
        else:
            self._busy_since = None

    # -- internals ---------------------------------------------------------

    # simlint: hotpath
    def _grant(self, req: Request) -> None:
        env = self.env
        now = env._now
        users = self.users
        if not users:
            self._busy_since = now
        users.append(req)
        req.usage_since = now
        self._total_served += 1
        # Inlined req.succeed() + env._schedule(req, NORMAL): a grant
        # happens exactly once per request and always fires at the
        # current time, so it goes straight to the NORMAL now queue
        # (kernel v3) unless the sanitizer wants the checked path.
        req._ok = True
        req._value = None
        san = env._san
        if san is None:
            env._eid += 1
            env._now_n.append(req)
            return
        san.on_schedule(req, now)
        eid = env._eid = env._eid + 1
        heappush(env._queue, (now, 1, eid, req))  # NORMAL

    def _do_request(self, req: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(req)
        else:
            self.queue.append(req)

    def _do_cancel(self, req: Request) -> None:
        try:
            self.queue.remove(req)
        except ValueError:
            pass

    # simlint: hotpath
    def _do_release(self, req: Request) -> None:
        users = self.users
        try:
            users.remove(req)
        except ValueError:
            raise RuntimeError(
                f"release of a request that does not hold {self!r}"
            ) from None
        if not users and self._busy_since is not None:
            self._busy_time += self.env._now - self._busy_since
            self._busy_since = None
        # Hand the slot to the next queued request (skipping cancelled).
        queue = self.queue
        while queue:
            nxt = queue.popleft()
            if nxt._value is PENDING:
                self._grant(nxt)
                break
        # Free-list recycling (kernel v3).  A released request goes back
        # to the environment pool only when exactly one reference remains
        # outside this frame (refcount 3 = that reference + the ``req``
        # parameter + getrefcount's argument) — i.e. the fast-path caller
        # whose contract is "free, then overwrite the handle".  The
        # generator path's Release event holds an extra ``.request``
        # reference, so requests released through ``release()`` are never
        # recycled; sanitized environments skip recycling so every event
        # keeps its sanitizer identity.
        env = self.env
        if env._san is None:
            cls = req.__class__
            if cls is Request:
                pool = env._req_pool
            elif cls is PriorityRequest:
                pool = env._preq_pool
            else:
                return
            if (
                pool is not None
                and len(pool) < _POOL_MAX
                and _refcount(req) == 3
            ):
                req._value = PENDING  # poison stale reads
                pool.append(req)

    #: Release a granted request without allocating a Release event — the
    #: callback-chain fast path (see ``docs/KERNEL.md``).  Semantics are
    #: identical to ``request.release()``: the slot is handed to the next
    #: queued request synchronously, minus the bookkeeping event the
    #: generator API needs to have something to yield.  The handle may be
    #: recycled by the call: drop (or overwrite) it immediately after.
    free = _do_release

    def hold(
        self,
        seconds: float,
        then: Callable[[], None],
        priority: Optional[int] = None,
    ) -> None:
        """Occupy one slot for ``seconds`` once granted, free it, then
        call ``then()`` — the callback-chain form of ``with request():
        yield req; yield timeout(seconds)``.  ``priority`` is for
        :class:`PriorityResource`."""
        req = (
            self.request()
            if priority is None
            else self.request(priority)  # type: ignore[call-arg]
        )
        env = self.env

        def held(_e) -> None:
            env.call_later(seconds, done)

        def done(_e) -> None:
            self.free(req)
            then()

        req.callbacks.append(held)

    def withdraw(self, req: Request) -> None:
        """Take a callback chain's request off this resource early.

        The chain twin of an exception leaving a ``with request()``
        block: a queued request leaves the queue, a granted one frees its
        slot at once.  A grant not yet processed loses its callbacks, so
        the chain's continuation never runs.  Drop the handle afterwards,
        as with :meth:`free`.
        """
        if req.usage_since is None:
            self._do_cancel(req)
            return
        if req.callbacks:
            req.callbacks.clear()
        self._do_release(req)


class PriorityRequest(Request):
    """Request with a priority; lower values are served first.

    Ties are broken FIFO via a monotonically increasing sequence number.
    """

    __slots__ = ("priority", "seq", "key")

    _seq = itertools.count()

    def __init__(self, resource: "PriorityResource", priority: int = 0):
        self.priority = priority
        seq = self.seq = next(PriorityRequest._seq)
        #: Sort key; stored (not computed) — the queue scan reads it a lot.
        self.key = (priority, seq)
        # Inlined Request/Event.__init__ (hot allocation; see docs/KERNEL.md).
        self.env = resource.env
        self.callbacks = []  # simlint: disable=REP104 (fresh-request contract)
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.usage_since = None
        resource._do_request(self)


class PriorityResource(Resource):
    """Resource whose queue is ordered by request priority."""

    # simlint: hotpath
    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        pool = self.env._preq_pool
        if pool:
            req = pool.pop()
            req.priority = priority
            seq = req.seq = next(PriorityRequest._seq)
            req.key = (priority, seq)
            # Pool-reset contract: recycled request, fresh callbacks.
            req.callbacks = []  # simlint: disable=REP104
            req._value = PENDING
            req._ok = True
            req._defused = False
            req.resource = self
            req.usage_since = None
            if len(self.users) < self._capacity:
                self._grant(req)
            else:
                self._enqueue(req)
            return req
        return PriorityRequest(self, priority)

    def _do_request(self, req: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(req)
        else:
            self._enqueue(req)

    # simlint: hotpath
    def _enqueue(self, req: Request) -> None:
        # Insert keeping the queue sorted by (priority, seq).  Seq is
        # monotonic, so a request at the tail's priority (or lower)
        # always appends — the common case is O(1) and the scan only
        # runs when a higher-priority request overtakes a queue.
        q = self.queue
        key = req.key  # type: ignore[attr-defined]
        if not q or q[-1].key <= key:  # type: ignore[attr-defined]
            q.append(req)
            return
        for i, other in enumerate(q):
            if other.key > key:  # type: ignore[attr-defined]
                q.insert(i, req)
                return
        q.append(req)


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A continuous level between 0 and ``capacity`` with blocking put/get."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_queue: Deque[ContainerPut] = deque()
        self._get_queue: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; blocks while it would overflow the capacity."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; blocks while the level is insufficient."""
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        # Serve puts then gets repeatedly until neither can progress;
        # strict FIFO within each queue (no overtaking).
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self._capacity:
                    self._put_queue.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
