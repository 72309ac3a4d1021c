"""FaultInjector: executes a :class:`FaultSchedule` against a simulation.

Timed events run from one ``call_later`` chain (:func:`play_timed`) that
sleeps until each event's time and then applies it; count-triggered
events are applied by the driver's request-completion hook through
:meth:`notify_finished`.
Application itself is delegated back to the simulation driver
(``crash_node`` / ``recover_node`` / ``slow_node``) so the injector
stays a pure scheduler and the recovery semantics live in one place.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

from ..des import Environment
from ..des.core import URGENT
from .schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.driver import Simulation

__all__ = ["FaultInjector", "play_timed"]


def play_timed(
    env: Environment, events: Sequence[Any], apply: Callable[[Any], None]
) -> None:
    """Call ``apply(event)`` for each of ``events`` at its ``at`` time.

    ``events`` must be sorted by ``at``.  The chain starts with an URGENT
    zero-delay kick, so its entries take their place in insertion order
    exactly as a process started here would.  An event already due is
    applied at once; a later one is awaited and applied on wake without
    recomputing its delay, because ``now + (at - now)`` need not equal
    ``at``.
    """
    pending = iter(events)

    def advance() -> None:
        for event in pending:
            delay = event.at - env.now
            if delay > 0:
                env.call_later(delay, partial(wake, event))
                return
            apply(event)

    def wake(event: Any) -> None:
        apply(event)
        advance()

    env.call_later(0.0, advance, URGENT)


class FaultInjector:
    """Executes a fault schedule against a running simulation."""

    def __init__(self, sim: "Simulation", schedule: FaultSchedule):
        schedule.validate(sim.config.nodes)
        self.sim = sim
        self.schedule = schedule
        #: Count-triggered events not yet fired (sorted by trigger).
        self._counted: List[FaultEvent] = list(schedule.counted)
        #: Events actually executed: (time, kind, node).
        self.log: List[Tuple[float, str, int]] = []

    def start(self) -> None:
        """Start the timed-event chain (no-op for count-only schedules)."""
        if self.schedule.timed:
            play_timed(self.sim.env, self.schedule.timed, self._apply)

    def notify_finished(self, finished: int) -> None:
        """Driver hook: fire count-triggered events whose trigger passed."""
        while self._counted and finished >= self._counted[0].after_requests:
            self._apply(self._counted.pop(0))

    def _apply(self, event: FaultEvent) -> None:
        sim = self.sim
        if event.kind == "crash":
            sim.crash_node(event.node)
        elif event.kind == "recover":
            sim.recover_node(event.node)
        else:
            sim.slow_node(event.node, event.factor)
        self.log.append((sim.env.now, event.kind, event.node))
