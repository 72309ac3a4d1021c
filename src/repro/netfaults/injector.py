"""Drives a :class:`NetFaultSchedule` against a running simulation.

The timed twin of :class:`repro.faults.injector.FaultInjector`: one
``call_later`` chain walks the schedule, flips link/partition state on the
:class:`~repro.netfaults.layer.NetFaultLayer`, and tells the
distribution policy when a partition heals so it can re-announce
soft state (see ``DistributionPolicy.on_partition_healed``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..faults.injector import play_timed
from .model import NetFaultEvent

__all__ = ["NetFaultInjector"]


class NetFaultInjector:
    """Applies scheduled fabric events to one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.layer = sim.cluster.net.netfaults
        schedule = self.layer.config.schedule if self.layer is not None else None
        self.events: Tuple[NetFaultEvent, ...] = (
            schedule.events if schedule is not None else ()
        )
        #: (time, kind) pairs of events applied so far.
        self.log: List[Tuple[float, str]] = []

    def start(self) -> None:
        if self.events:
            play_timed(self.sim.env, self.events, self._apply)

    def _apply(self, event: NetFaultEvent) -> None:
        layer = self.layer
        if event.kind == "link_down":
            layer.link_down(event.src, event.dst)
        elif event.kind == "link_up":
            layer.link_up(event.src, event.dst)
        elif event.kind == "partition":
            layer.start_partition(event.group)
        elif event.kind == "heal":
            layer.heal_partition()
            # Soft state diverged while the sides were apart; give the
            # policy a chance to re-announce (L2S re-broadcasts server
            # sets and load vectors).
            self.sim.policy.on_partition_healed()
        self.log.append((self.sim.env.now, event.kind))
