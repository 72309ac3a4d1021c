"""Core of the discrete-event simulation kernel.

This module provides a small, self-contained, simpy-style kernel:
an :class:`Environment` owning a time-ordered event queue, :class:`Event`
objects with success/failure semantics, and :class:`Process` objects that
drive Python generators, suspending on the events they ``yield``.

The kernel is deterministic: events scheduled for the same simulated time
are processed in (priority, insertion-order) order, so a simulation run is
exactly reproducible from its random seed.

Design notes
------------
The simulator in :mod:`repro.sim` schedules on the order of millions of
events per run, so this module is written for speed as much as clarity
(see ``docs/KERNEL.md`` for the full story):

* ``__slots__`` everywhere on the hot classes;
* one C-accelerated binary heap of ``(time, priority, eid, event)``
  entries, drained by one event loop (:meth:`Environment._dispatch`)
  that :meth:`Environment.run`, :meth:`Environment.step` and sanitized
  runs all share;
* a free-list pool recycling :class:`Timeout` and internal callback
  events once processed (``REPRO_DES_POOL=0`` disables it);
* :meth:`Environment.call_later` / :meth:`Event.succeed_at` fast paths
  so resources and callback chains can schedule completions without
  allocating intermediate events or generator frames;
* zero-delay *now queues* (kernel v3): events scheduled at exactly the
  current simulated time — zero-delay kicks, ``succeed()``, process
  resumption, interrupts — bypass the heap entirely and land in
  two per-priority FIFO deques drained before the clock advances.  The
  drain respects the exact global (time, priority, eid) order (heap
  items at the current time were scheduled earlier and therefore carry
  smaller ids than any now-queue entry), so results are bit-identical
  to routing everything through the heap; it just skips the
  O(log n) push/pop and the entry-tuple allocation for every event
  that fires "now".

All of those fast paths are risky enough that the kernel carries an
optional runtime sanitizer (``Environment(sanitize=True)`` or
``REPRO_DES_SANITIZE=1``): every scheduling entry point and every pop is
then routed through :mod:`repro.des.sanitize`'s invariant checks
(use-after-recycle poisoning, time monotonicity, tie-break order, double
triggers, end-of-run leak accounting).  When the sanitizer is off the
hooks reduce to a single predictable-branch ``None`` check per entry
point, which the bench regression gate shows is free.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .events import Condition

try:
    from sys import getrefcount as _refcount
except ImportError:  # pragma: no cover - non-CPython: pooling disabled
    _refcount = None

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopProcess",
    "EmptySchedule",
    "PENDING",
    "URGENT",
    "NORMAL",
]

#: Sentinel for the value of an event that has not been triggered yet.
PENDING: Any = object()

#: Scheduling priority for events that must run before ordinary events at
#: the same simulated time (used internally when resuming processes).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Upper bound on each per-environment free list (events, not bytes).
_POOL_MAX = 4096

# Bound by repro.des.events at import time (see _lazy_conditions); keeps
# Event.__and__/__or__ and Environment.all_of/any_of free of per-call
# imports without a circular module import.
_AllOf = None
_AnyOf = None


def _lazy_conditions():
    """Bind the condition classes on first use (core imported alone)."""
    global _AllOf, _AnyOf
    if _AllOf is None:
        from .events import AllOf, AnyOf

        _AllOf, _AnyOf = AllOf, AnyOf
    return _AllOf, _AnyOf


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopProcess(Exception):
    """Graceful early exit from a process.

    ``raise StopProcess(value)`` inside a process generator terminates the
    process successfully with ``value`` as its result, mirroring
    ``return value``.  Provided mainly for helper functions that cannot use
    a plain ``return`` because they are not themselves generators.
    """

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The interrupted process may catch the exception and continue; the event
    it was waiting for remains pending and may be re-yielded.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """Whatever was passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Event:
    """An event that may eventually be triggered and carry a value.

    Events move through three states:

    1. *pending* — created, not yet triggered;
    2. *triggered* — a value (or failure) has been set and the event sits in
       the environment's queue;
    3. *processed* — its callbacks have run.

    Processes wait for events by yielding them.  Multiple processes may wait
    on the same event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        #: The environment the event lives in.
        self.env = env
        #: List of callables invoked (with the event) when processed.
        #: ``None`` once the event has been processed.
        # Fresh-event contract: one list per activation; recycled
        # events get theirs back in the pool reset paths below.
        self.callbacks: Optional[list] = []  # simlint: disable=REP104
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        if env._san is not None:
            env._san.on_create(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._value is PENDING
            else ("processed" if self.callbacks is None else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or failure has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).

        Raises :class:`AttributeError` if the event is still pending.
        """
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    # simlint: hotpath
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    # simlint: hotpath
    def succeed_at(self, delay: float, value: Any = None) -> "Event":
        """Trigger successfully, processed ``delay`` time units from now.

        The completion fast path: where ``succeed()`` fires callbacks at
        the current time, ``succeed_at(d)`` fires them at ``now + d``
        without allocating an intermediate :class:`Timeout`.  The event
        reads as *triggered* immediately (its value is set), exactly like
        a :class:`Timeout` between construction and expiry.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Every process waiting on the event will have the exception thrown
        into it.  If no process handles the failure the environment's
        :meth:`Environment.run` re-raises it (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self._defuse_of(event)
            self.fail(event._value)

    @staticmethod
    def _defuse_of(event: "Event") -> None:
        event._defused = True

    def defused(self) -> None:
        """Mark a failed event as handled so ``run()`` won't re-raise it."""
        self._defused = True

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        allof = _AllOf
        if allof is None:
            allof, _ = _lazy_conditions()
        return allof(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        anyof = _AnyOf
        if anyof is None:
            _, anyof = _lazy_conditions()
        return anyof(self.env, [self, other])


class Timeout(Event):
    """An event that fires after a fixed ``delay`` of simulated time.

    Instances created through :meth:`Environment.timeout` are recycled via
    a free list once processed, *if* nothing outside the kernel still
    references them (checked by refcount — see ``docs/KERNEL.md`` for the
    pooling rules).  Retaining a reference to a fired Timeout is therefore
    always safe: the retained object simply is not recycled.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class _Callback(Event):
    """Internal pooled event driving callback chains (never user-visible).

    Created only by :meth:`Environment.call_later`; recycled
    unconditionally after processing, so references must never outlive
    the callback invocation.
    """

    __slots__ = ()


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """A running process: drives a generator, waits on yielded events.

    A process is itself an event that triggers when the generator returns
    (successfully, with the generator's return value) or raises
    (as a failure).  Other processes can therefore wait for it to finish by
    yielding it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: Event the process is currently waiting on (None when running or
        #: terminated).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process({self.name}) at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process resumes immediately (at the current simulated time,
        before ordinary events).  Interrupting a terminated process is an
        error; interrupting a process that is about to resume anyway is
        allowed — the interrupt wins.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event, URGENT)

    # -- generator driving --------------------------------------------------

    # simlint: hotpath
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value/failure of ``event``."""
        if self._value is not PENDING:
            # Already terminated (e.g. interrupted to death while an older
            # wake-up was in flight).  Nothing to do.
            return
        # Detach from the event we were waiting on (the interrupt path
        # resumes us while self._target is still pending).
        target = self._target
        if target is not None and event is not target:
            # Late interrupt: forget the original target's callback so a
            # later trigger does not resume us twice.
            try:
                target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._target = None
        env = self.env
        env._active_proc = self
        # Hot loop: localize the generator methods and the schedule hook;
        # each send() drives the process to its next yield.
        generator = self._generator
        send = generator.send
        schedule = env._schedule

        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                schedule(self, NORMAL)
                break
            except StopProcess as exc:
                generator.close()
                self._ok = True
                self._value = exc.value
                schedule(self, NORMAL)
                break
            except BaseException as exc:
                generator.close()
                self._ok = False
                self._value = exc
                schedule(self, NORMAL)
                break

            if not isinstance(next_event, Event):
                # Cold error branch: a process yielded garbage and is
                # about to die; the diagnostic f-string never runs on
                # the event-stepping fast path.
                exc = RuntimeError(
                    f"process {self.name!r} "  # simlint: disable=REP104
                    f"yielded a non-event: {next_event!r}"
                )
                generator.close()
                self._ok = False
                self._value = exc
                schedule(self, NORMAL)
                break

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: feed its value straight back in.
            event = next_event

        env._active_proc = None


class Environment:
    """Execution environment: simulated clock plus the event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock.
    pool_events:
        Enable the Timeout/callback-event free lists.  ``None`` consults
        ``REPRO_DES_POOL`` (default on; set ``0`` to disable).
    sanitize:
        Route every scheduling entry point and pop through the runtime
        sanitizer (:mod:`repro.des.sanitize`): use-after-recycle
        poisoning, monotonicity/tie-break invariants, double-trigger
        detection, leak accounting.  ``None`` consults
        ``REPRO_DES_SANITIZE`` (default off).  Behaviour (results, event
        order) is identical either way; sanitized runs are slower.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_now_u",
        "_now_n",
        "_eid",
        "_active_proc",
        "_timeout_pool",
        "_cb_pool",
        "_san",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        pool_events: Optional[bool] = None,
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
        # Heap of (time, priority, eid, event).
        self._queue: list = []
        if pool_events is None:
            pool_events = os.environ.get("REPRO_DES_POOL", "1") != "0"
        if _refcount is None:  # pragma: no cover - non-CPython
            pool_events = False
        # The free lists are None when pooling is off, so the hot-path
        # check is a single identity test.
        self._timeout_pool: Optional[list] = [] if pool_events else None
        self._cb_pool: Optional[list] = [] if pool_events else None
        # Zero-delay now queues (kernel v3), one per priority level.
        # Sanitized environments leave them empty: every event then flows
        # through the fully-checked heap path, and the sanitizer's
        # pop-order checks certify exactly the order the now queues
        # reproduce.
        self._now_u: deque = deque()
        self._now_n: deque = deque()
        self._eid = 0
        self._active_proc: Optional[Process] = None

    # -- public API ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def pooling(self) -> bool:
        """True when the event free lists are enabled."""
        return self._timeout_pool is not None

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
        """Total events scheduled so far (the benchmark work metric)."""
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being advanced (None between events)."""
        return self._active_proc

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    # simlint: hotpath
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now.

        Draws from the free list when pooling is enabled; see the class
        docstring for the (narrow) aliasing caveat.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            t = pool.pop()
            if self._san is not None:
                self._san.on_reuse(t)
            # Pool-reset contract: a recycled Timeout needs its own
            # callbacks list (callers append to it).
            t.callbacks = []  # simlint: disable=REP104
            t._value = value
            t._ok = True
            t._defused = False
            t.delay = delay
            self._schedule(t, NORMAL, delay)
            return t
        return Timeout(self, delay, value)

    # simlint: hotpath
    def call_later(
        self,
        delay: float,
        fn: Callable[[Event], None],
        value: Any = None,
        priority: int = NORMAL,
    ) -> Event:
        """Run ``fn(event)`` after ``delay`` — the callback-chain fast path.

        Uses a pooled internal event: no Timeout, no generator, no
        process.  The returned handle is recycled as soon as ``fn`` has
        run and must not be retained afterwards.  ``event.value`` is
        ``value`` (handy for chains that thread a payload through).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._cb_pool
        san = self._san
        if pool:
            ev = pool.pop()
            if san is not None:
                san.on_reuse(ev)
            ev._value = value
            ev._ok = True
            ev._defused = False
        else:
            ev = _Callback(self)
            ev._value = value
        # The single-callback list IS call_later's payload.
        ev.callbacks = [fn]  # simlint: disable=REP104
        # Inlined _schedule (this is the hottest scheduling entry point).
        now = self._now
        t = now + delay
        if san is None:
            if t == now:
                # Zero-delay fast path: FIFO order is eid order.
                self._eid += 1
                (self._now_u if priority == 0 else self._now_n).append(ev)
                return ev
        else:
            san.on_schedule(ev, t)
        eid = self._eid = self._eid + 1
        heappush(self._queue, (t, priority, eid, ev))
        return ev

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> "Condition":
        allof = _AllOf
        if allof is None:
            allof, _ = _lazy_conditions()
        return allof(self, events)

    def any_of(self, events: Iterable[Event]) -> "Condition":
        anyof = _AnyOf
        if anyof is None:
            _, anyof = _lazy_conditions()
        return anyof(self, events)

    def schedule_callback(
        self, delay: float, callback: Callable[[], None]
    ) -> Event:
        """Run ``callback()`` after ``delay`` without creating a process.

        The returned event handle is pooled: it is recycled once the
        callback has run, so do not retain it past that point.
        """
        return self.call_later(delay, lambda _e: callback())

    # -- scheduling ---------------------------------------------------------

    # simlint: hotpath
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        now = self._now
        t = now + delay
        san = self._san
        if san is None:
            if t == now:
                # Zero-delay fast path (kernel v3): the event fires at the
                # current time, so it skips the heap and joins the
                # per-priority now queue.  FIFO order there is eid order,
                # and every heap entry at the current time was pushed
                # earlier (smaller eid), so the drain in _dispatch() keeps
                # the exact (time, priority, eid) total order.
                self._eid += 1
                (self._now_u if priority == 0 else self._now_n).append(event)
                return
        else:
            san.on_schedule(event, t)
        eid = self._eid = self._eid + 1
        heappush(self._queue, (t, priority, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._now_u or self._now_n:
            return self._now
        q = self._queue
        return q[0][0] if q else inf

    # simlint: hotpath
    def step(self) -> None:
        """Process the next event.  Raises :class:`EmptySchedule` if none.

        An event at ``t = inf`` lies beyond every horizon and counts as
        none, exactly as :meth:`run` leaves it unprocessed.
        """
        if not self._dispatch(inf, True):
            raise EmptySchedule()

    # simlint: hotpath
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time; ``until == now`` is a documented
        no-op so sweep drivers can resume in fixed windows), or an
        :class:`Event` (run until it is processed and return its value).
        """
        stop_at = inf
        if until is not None:
            if isinstance(until, Event):
                return self._run_until_event(until)
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be earlier than now "
                    f"({self._now})"
                )
            if stop_at == self._now:
                # No-op: events exactly at `now` stay unprocessed, exactly
                # as a previous run(until=now) left them.
                return None
        self._dispatch(stop_at, False)
        if stop_at is not inf:
            self._now = stop_at
        return None

    # Once per run() call, not per event: the setup allocations are cold.
    # simlint: coldpath
    def _run_until_event(self, stop_event: Event) -> Any:
        """``run(until=event)``: step the shared loop until it fires."""
        if stop_event.callbacks is None:
            # Already processed.
            if stop_event._ok:
                return stop_event._value
            raise stop_event._value
        done = []
        stop_event.callbacks.append(lambda _e: done.append(True))
        dispatch = self._dispatch
        while not done:
            if not dispatch(inf, True):
                raise RuntimeError(
                    "run(until=event): schedule drained before the "
                    "event triggered"
                )
        if stop_event._ok:
            return stop_event._value
        stop_event._defused = True
        raise stop_event._value

    # simlint: hotpath
    def _dispatch(self, stop_at: float, single: bool) -> bool:
        """The event loop: the kernel's one pop/dispatch/recycle body.

        Processes events in exact (time, priority, eid) order until the
        schedule drains or the next event lies at or beyond ``stop_at``
        (the clock never advances to it); with ``single`` it returns
        True after the first event.  Returns False when it stopped
        because nothing was left to process before ``stop_at``.

        The pop merges the heap with the zero-delay now queues: heap
        entries at the current time were scheduled earlier (smaller eid)
        than any now-queue entry, and urgent now-queue entries overtake
        NORMAL heap entries at the current time (priority compares
        first).  Sanitized environments keep the now queues empty and
        take every event off the heap with its full key, so the
        sanitizer can check the order it comes out in.
        """
        q = self._queue
        san = self._san
        timeout_pool = self._timeout_pool
        cb_pool = self._cb_pool
        now_u = self._now_u
        now_n = self._now_n
        pop = heappop
        pop_u = now_u.popleft
        pop_n = now_n.popleft
        # Free-list recycling takes an event only when nothing outside
        # this frame still references it: refcount 2 = the `event` local
        # plus getrefcount's argument (3 when the sanitizer's record
        # holds its extra reference).  A generator that kept the Timeout
        # it yielded, a condition holding its constituents, or a caller
        # retaining a call_later handle all raise the count and (safely)
        # exempt that object from recycling.
        recyclable = 2 if san is None else 3
        now = self._now
        while True:
            if san is None:
                # NB: the heap head is deliberately never bound to a
                # local — a lingering reference to the popped entry tuple
                # would keep the event's refcount above the recycle
                # threshold and silently disable the free lists.
                if now_u:
                    if q and q[0][0] == now and q[0][1] == 0:
                        event = pop(q)[3]
                    else:
                        event = pop_u()
                elif q:
                    t = q[0][0]
                    if t == now:
                        event = pop(q)[3]
                    elif now_n:
                        event = pop_n()
                    elif t >= stop_at:
                        return False
                    else:
                        self._now = now = t
                        event = pop(q)[3]
                elif now_n:
                    event = pop_n()
                else:
                    return False
            else:
                if not q or q[0][0] >= stop_at:
                    return False
                t, priority, eid, event = pop(q)
                san.on_pop(t, priority, eid, event, now)
                self._now = now = t
            callbacks = event.callbacks
            event.callbacks = None
            # Almost every event carries exactly one callback (a chain
            # continuation); skip the iterator for it.
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                # Nobody handled this failure.
                raise event._value
            cls = event.__class__
            if cls is _Callback:
                if (
                    cb_pool is not None
                    and len(cb_pool) < _POOL_MAX
                    and _refcount(event) == recyclable
                ):
                    event._value = PENDING  # poison stale reads
                    cb_pool.append(event)
                    if san is not None:
                        san.on_recycle(event)
                elif san is not None:
                    san.on_processed(event)
            elif cls is Timeout:
                if (
                    timeout_pool is not None
                    and len(timeout_pool) < _POOL_MAX
                    and _refcount(event) == recyclable
                ):
                    event._value = PENDING
                    timeout_pool.append(event)
                    if san is not None:
                        san.on_recycle(event)
                elif san is not None:
                    san.on_processed(event)
            elif san is not None:
                san.on_processed(event)
            if single:
                return True
