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

* the heap schedules *continuations*, not events:
  :meth:`Environment.call_later` pushes one small ``[time, priority,
  eid, fn]`` list and returns it as the handle, and the event loop
  (:meth:`Environment._dispatch`, shared by :meth:`Environment.run`,
  :meth:`Environment.step` and sanitized runs) pops an entry and calls
  ``fn()``.  An :class:`Event` is scheduled as the entry of its
  ``_fire`` method, which runs its callbacks;
* a scheduled continuation is cancelled by blanking its entry's ``fn``
  (the entry still pops, so event counts and order never change), and a
  retained handle is harmless: blanking an entry that has already fired
  does nothing;
* zero-delay *now queues* (kernel v3): entries scheduled at exactly the
  current simulated time — zero-delay kicks, ``succeed()``, process
  resumption, interrupts — bypass the heap entirely and land in
  two per-priority FIFO deques drained before the clock advances.  The
  drain respects the exact global (time, priority, eid) order (heap
  items at the current time were scheduled earlier and therefore carry
  smaller ids than any now-queue entry), so results are bit-identical
  to routing everything through the heap; it just skips the
  O(log n) push/pop for every entry that fires "now".

The kernel carries an optional runtime sanitizer
(``Environment(sanitize=True)`` or ``REPRO_DES_SANITIZE=1``): every
scheduling entry point and every pop is then routed through
:mod:`repro.des.sanitize`'s invariant checks (time monotonicity,
tie-break order, double triggers, end-of-run leak accounting).  When the
sanitizer is off the hooks reduce to a single predictable-branch
``None`` check per entry point.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .events import Condition

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
        # Fresh-event contract: one list per event.
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

    def _fire(self) -> None:
        """Process the event: the continuation its heap entry runs.

        Runs the callbacks, then re-raises a failure nobody handled.
        """
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            raise self._value

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
    """An event that fires after a fixed ``delay`` of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


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
    sanitize:
        Route every scheduling entry point and pop through the runtime
        sanitizer (:mod:`repro.des.sanitize`): monotonicity/tie-break
        invariants, double-trigger detection, leak accounting.  ``None``
        consults ``REPRO_DES_SANITIZE`` (default off).  Behaviour
        (results, event order) is identical either way; sanitized runs
        are slower.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_now_u",
        "_now_n",
        "_eid",
        "_active_proc",
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
        self._active_proc: Optional[Process] = None

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

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being advanced (None between events)."""
        return self._active_proc

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

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

    # -- scheduling ---------------------------------------------------------

    # simlint: hotpath
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` from now."""
        san = self._san
        if san is not None:
            san.on_trigger(event, self._now + delay)
        self.call_later(delay, event._fire, priority)

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
