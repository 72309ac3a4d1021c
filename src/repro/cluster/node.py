"""A cluster node: CPU, duplex network interface, disk, and file cache.

Each hardware component is a FIFO :class:`repro.des.Resource`, so all the
contention the paper simulates "faithfully" (CPU, NI, disk) emerges from
queueing.  The request lifecycle (:mod:`repro.sim.lifecycle`) and the
interconnect's message chains visit and free them directly.
"""

from __future__ import annotations


from ..des import Environment, PriorityResource, Resource
from .cache import LRUFileCache
from .config import ClusterConfig

__all__ = ["Node", "CPU_PROMPT", "CPU_BULK"]

#: CPU priority for short control work: request parsing, forwarding,
#: message overheads.  Event-driven servers (Flash, on which the paper's
#: mu_p is based) accept and parse new requests promptly instead of
#: queueing them behind multi-millisecond reply transmissions.
CPU_PROMPT = 0
#: CPU priority for bulk reply work (1/mu_m).
CPU_BULK = 1


class Node:
    """One workstation of the cluster (Figure 1)."""

    def __init__(self, env: Environment, node_id: int, config: ClusterConfig):
        self.env = env
        self.id = node_id
        self.config = config
        self.cpu = PriorityResource(env, capacity=1, name=f"cpu{node_id}")
        self.ni_in = Resource(env, capacity=1, name=f"ni_in{node_id}")
        self.ni_out = Resource(env, capacity=1, name=f"ni_out{node_id}")
        self.disk = Resource(env, capacity=1, name=f"disk{node_id}")
        from .policies import make_cache

        self.cache = make_cache(config.cache_policy, config.cache_bytes)
        #: Open client connections currently assigned to this node — the
        #: load metric every policy in the paper uses.
        self.open_connections = 0
        #: Requests finished here (counted by the request lifecycle, per
        #: request, including aborts that close a connection here).
        self.completed = 0
        #: Requests this node forwarded elsewhere.
        self.forwarded = 0
        #: Requests rejected at service entry by this node's circuit
        #: breaker; the client backs off and retries, so a shed is load
        #: shedding, not a crash.
        self.shed = 0
        #: True once the node has crashed (failure-injection runs).  The
        #: request lifecycle checks this at stage boundaries and aborts.
        self.failed = False
        #: Incarnation number: bumped on every crash so requests started
        #: against a previous incarnation abort even if the node has since
        #: recovered (their connection died with the old incarnation).
        self.incarnation = 0
        #: Crash / recovery counters (availability reporting).
        self.crashes = 0
        self.recoveries = 0
        #: Configured CPU speed; ``slow`` fault events scale relative to
        #: this and recovery restores it.
        self.base_speed = config.speed_of(node_id)
        self.cpu.speed = self.base_speed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.id} conn={self.open_connections}>"

    # -- load --------------------------------------------------------------

    def connection_opened(self) -> None:
        self.open_connections += 1

    def connection_closed(self) -> None:
        if self.open_connections <= 0:
            raise RuntimeError(f"node {self.id}: closing a connection at zero")
        self.open_connections -= 1

    # -- faults --------------------------------------------------------------

    @property
    def speed(self) -> float:
        """CPU speed multiplier (heterogeneity extension): the CPU
        station runs ``work`` in ``work / speed``."""
        return self.cpu.speed

    @property
    def state(self) -> str:
        """Availability state: "up", "slow" (CPU degraded), or "down"."""
        if self.failed:
            return "down"
        return "slow" if self.speed < self.base_speed else "up"

    def crash(self) -> None:
        """Kill the node.  Idempotent; in-flight requests abort at their
        next stage boundary (they see the incarnation change)."""
        if self.failed:
            return
        self.failed = True
        self.incarnation += 1
        self.crashes += 1

    def recover(self) -> None:
        """Reboot: rejoin with a cold (flushed) cache at base speed.

        Connection accounting is not forced to zero — every in-flight
        request from the dead incarnation aborts and closes its own
        connection, so the count drains to zero through the normal path.
        """
        if not self.failed:
            return
        self.failed = False
        self.cache.clear()
        self.cpu.speed = self.base_speed
        self.recoveries += 1

    def set_speed_factor(self, factor: float) -> None:
        """Scale CPU speed to ``factor`` of the configured base (fail-slow
        injection); ``factor=1.0`` restores full speed."""
        if factor <= 0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        self.cpu.speed = self.base_speed * factor

    # -- cache ---------------------------------------------------------------

    def warm_cache(self, file_id: int, size_bytes: int) -> None:
        """Zero-time cache touch used by warmup passes (no stats)."""
        if not self.cache.touch(file_id):
            self.cache.insert(file_id, size_bytes)

    # -- accounting ----------------------------------------------------------

    def reset_accounting(self) -> None:
        """Discard warmup statistics; cache *contents* are preserved."""
        self.cpu.reset_accounting()
        self.ni_in.reset_accounting()
        self.ni_out.reset_accounting()
        self.disk.reset_accounting()
        self.cache.reset_stats()
        self.completed = 0
        self.forwarded = 0
        self.shed = 0

    def cpu_utilization(self, elapsed: float) -> float:
        return self.cpu.utilization(elapsed)

    def cpu_idle(self, elapsed: float) -> float:
        return 1.0 - self.cpu_utilization(elapsed)
