"""Cluster hardware configuration for the simulator.

The simulator shares its service-time formulas with the analytic model
(:class:`repro.model.ModelParameters`) so that both describe the same
hardware, and adds the communication details the paper simulates
"faithfully" (Section 5.1): M-VIA message costs of 3 microseconds CPU per
side, 6 microseconds NI per side for a 4-byte message, a 1 microsecond
switch latency, and a 1 Gbit/s network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Tuple

from ..model.parameters import MB, ModelParameters
from ..netfaults.model import NetFaultConfig

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware and methodology knobs for one simulated cluster."""

    #: Number of nodes.
    nodes: int = 16
    #: Main-memory file cache per node, in bytes.  The paper's simulations
    #: use 32 MB nodes (vs the model's 128 MB default) so that the traces'
    #: working sets are significant relative to the cache.
    cache_bytes: int = 32 * MB
    #: Service-time formulas (Table 1).  ``nodes``/``cache_bytes`` above
    #: take precedence over the copies inside this object.
    hardware: ModelParameters = field(default_factory=ModelParameters)
    #: CPU overhead per message send or receive (seconds).  M-VIA: 19 us
    #: one-way for 4 bytes = 3 us CPU + 6 us NI per side + 1 us switch.
    cpu_msg_overhead_s: float = 3e-6
    #: Switch fabric latency (seconds); pure delay, no contention
    #: (the paper does not model contention inside the fast switch).
    switch_latency_s: float = 1e-6
    #: Size of a 4-byte-payload control message on the wire, in KB.
    control_kb: float = 0.004
    #: NI occupancy overhead per *control* message, per side (seconds).
    #: M-VIA spends 6 us at each NI for a 4-byte message (19 us one-way
    #: total); bulk transfers use Table 1's 3 us mu_o overhead instead.
    ni_control_overhead_s: float = 6e-6
    #: In-flight client connections per node maintained by the closed-loop
    #: injector (saturation mode: "schedule new requests as soon as the
    #: router and network interface buffers would accept them").  Must sit
    #: below L2S's overload threshold T=20 on average or every node looks
    #: permanently overloaded and replication explodes; 12 saturates the
    #: bottleneck resources while leaving threshold headroom (throughput
    #: rises mildly with deeper buffers as long as the T/MPL ratio holds —
    #: see the MPL ablation benchmark).
    multiprogramming_per_node: int = 16
    #: Per-node CPU speed multipliers (1.0 = the Table-1 baseline).  The
    #: paper assumes "all cluster nodes are equally powerful"; setting
    #: this relaxes that for the heterogeneity extension — a 0.5 node's
    #: CPU work takes twice as long.  None means homogeneous.
    node_speeds: Optional[Tuple[float, ...]] = None
    #: If True every node's disk holds a full replica of the content and
    #: misses are served from the local disk (the model's assumption).  If
    #: False, content is hash-partitioned across disks and remote misses
    #: pay an extra fetch message pair (DFS ablation).
    replicated_disks: bool = True
    #: Cache replacement policy per node: "lru" (the paper's), "gds"
    #: (GreedyDual-Size) or "lfu" — see :mod:`repro.cluster.policies`.
    cache_policy: str = "lru"
    #: The paper simulates all contention "except for the contention
    #: within the network fabric itself".  Setting this True adds an
    #: output-queued switch model (one FIFO port per destination node,
    #: occupied for the transfer time) so the simplification can be
    #: quantified (see the switch ablation benchmark).
    model_switch_contention: bool = False
    #: Unreliable-interconnect description (loss, duplication, delay,
    #: link/partition schedules, retry protocol) — see
    #: :mod:`repro.netfaults`.  None, or an inert config, leaves the
    #: fabric perfect and the legacy code paths untouched.
    net_faults: Optional[NetFaultConfig] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive")
        if self.cpu_msg_overhead_s < 0 or self.switch_latency_s < 0:
            raise ValueError("overheads must be non-negative")
        if self.multiprogramming_per_node < 1:
            raise ValueError("multiprogramming_per_node must be >= 1")
        if self.control_kb <= 0:
            raise ValueError("control_kb must be positive")
        if self.cache_policy.lower() not in ("lru", "gds", "lfu"):
            raise ValueError(f"unknown cache policy {self.cache_policy!r}")
        if self.net_faults is not None and not isinstance(self.net_faults, NetFaultConfig):
            raise TypeError("net_faults must be a NetFaultConfig (or None)")
        if self.node_speeds is not None:
            if len(self.node_speeds) != self.nodes:
                raise ValueError(
                    f"node_speeds has {len(self.node_speeds)} entries for "
                    f"{self.nodes} nodes"
                )
            if any(s <= 0 for s in self.node_speeds):
                raise ValueError("node speeds must be positive")

    def speed_of(self, node_id: int) -> float:
        """CPU speed multiplier of one node (1.0 when homogeneous)."""
        if self.node_speeds is None:
            return 1.0
        return self.node_speeds[node_id]

    def with_(self, **changes: Any) -> "ClusterConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # -- derived timings -----------------------------------------------------

    def ni_control_time(self) -> float:
        """NI occupancy (s) for a small control message, per side."""
        return self.ni_control_overhead_s + self.control_kb / self.hardware.ni_kb_per_s

    def one_way_message_latency(self) -> float:
        """End-to-end latency of an uncontended 4-byte message.

        Should come to ~19 microseconds, matching the M-VIA measurement
        the paper quotes: 3+3 us CPU, 6+6 us NI, 1 us switch.
        """
        return (
            2 * self.cpu_msg_overhead_s
            + 2 * self.ni_control_time()
            + self.switch_latency_s
        )

    def model_parameters(self, replication: float = 0.0, alpha: float = 1.0) -> ModelParameters:
        """Model parameters describing this cluster (for bound comparison)."""
        return self.hardware.with_(
            nodes=self.nodes,
            cache_bytes=self.cache_bytes,
            replication=replication,
            alpha=alpha,
        )
