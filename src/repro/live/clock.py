"""Wall-clock implementation of the policy :class:`~repro.servers.Clock`.

This is the one place in the repository where reading real time is the
*point*: live policies age server sets and timestamp load views against
the seconds actual TCP connections take.  simlint's REP003 explicitly
permits wall-clock reads inside ``repro.live`` (and only here — kernel,
sim, and chaos scopes still forbid them; see ``docs/ANALYSIS.md``).

:class:`Deadline` bounds an ``await`` by the event loop's clock.
"""

from __future__ import annotations

import asyncio
import time

__all__ = ["Deadline", "WallClock"]


class WallClock:
    """Monotonic wall clock reporting seconds since its creation.

    Starting at zero (rather than the raw ``time.monotonic()`` epoch)
    keeps live timestamps in the same "small seconds since the run
    began" range the DES produces, so policy parameters expressed in
    seconds (LARD's 20 s server-set aging, L2S's staleness bounds) mean
    the same thing in both worlds.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0


class Deadline:
    """``with Deadline(s): await ...`` raises :class:`asyncio.TimeoutError`
    when the block runs longer than ``s`` seconds.

    ``asyncio.timeout`` (3.11+) cut down for 3.10: one ``loop.call_at``
    timer cancels the current task and sets :attr:`expired`, and no
    task is created, where ``asyncio.wait_for`` before 3.12 wraps the
    awaited coroutine in one.  A cancellation from elsewhere (a
    ``stop()``) propagates as ``CancelledError``, not as a timeout.  The
    timer is cancelled on exit.
    """

    __slots__ = ("seconds", "expired", "_task", "_timer", "_cancelling")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.expired = False

    def __enter__(self) -> "Deadline":
        self._task = task = asyncio.current_task()
        loop = task.get_loop()
        # Task.cancelling and Task.uncancel exist from 3.11 on.
        self._cancelling = task.cancelling() if hasattr(task, "cancelling") else 0
        self._timer = loop.call_at(loop.time() + self.seconds, self._expire)
        return self

    def _expire(self) -> None:
        self.expired = True
        self._task.cancel()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.cancel()
        if self.expired:
            # A cancellation still counted after ours came from elsewhere
            # and wins; 3.10 cannot tell the two apart.
            outer = hasattr(self._task, "uncancel") and (
                self._task.uncancel() > self._cancelling
            )
            if exc_type is asyncio.CancelledError and not outer:
                raise asyncio.TimeoutError from exc
