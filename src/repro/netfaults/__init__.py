"""Unreliable-interconnect modeling: fault layer, schedules, reliability.

The paper assumes a perfect intra-cluster fabric.  This package makes it
unreliable — seeded message loss, duplication, delay/jitter, link
outages, partitions — and supplies the ack/retry protocol the policies
use to survive it.  See ``docs/NETFAULTS.md``.
"""

from .injector import NetFaultInjector
from .layer import NetFaultLayer
from .model import (
    ARQ_RETRY,
    DEFAULT_RELIABLE_KINDS,
    NETFAULT_KINDS,
    NetFaultConfig,
    NetFaultEvent,
    NetFaultSchedule,
)
from .protocol import ReliableMessenger

__all__ = [
    "ARQ_RETRY",
    "DEFAULT_RELIABLE_KINDS",
    "NETFAULT_KINDS",
    "NetFaultConfig",
    "NetFaultEvent",
    "NetFaultInjector",
    "NetFaultLayer",
    "NetFaultSchedule",
    "ReliableMessenger",
]
