"""Declarative description of an unreliable interconnect.

The paper's cluster assumes a perfect fabric: every M-VIA message is
delivered, in order, after a fixed switch latency.  This module describes
the ways a real fabric misbehaves — random loss, duplication, extra
delay/jitter, per-link loss hot spots, links going down, and full cluster
partitions — as plain data, mirroring the style of
:mod:`repro.faults.schedule` (node crash/recover schedules).  The runtime
interpretation lives in :mod:`repro.netfaults.layer`.

Everything here is deterministic by construction: the probabilistic
knobs (loss/dup rates) are drawn at message time from the single seeded RNG
owned by the :class:`~repro.netfaults.layer.NetFaultLayer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..faults.schedule import RetryPolicy

__all__ = [
    "ARQ_RETRY",
    "NETFAULT_KINDS",
    "NetFaultEvent",
    "NetFaultSchedule",
    "NetFaultConfig",
    "DEFAULT_RELIABLE_KINDS",
]

#: Event kinds a :class:`NetFaultSchedule` may carry.
NETFAULT_KINDS = ("link_down", "link_up", "partition", "heal")


def _pair(a: int, b: int) -> Tuple[int, int]:
    """Normalized undirected link key."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class NetFaultEvent:
    """One scheduled change to the fabric's health.

    ``link_down``/``link_up`` take an undirected endpoint pair
    (``src``/``dst``); ``partition`` isolates ``group`` from the rest of
    the cluster until a ``heal`` event; ``heal`` reconnects everything.
    """

    kind: str
    at: float
    src: Optional[int] = None
    dst: Optional[int] = None
    group: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in NETFAULT_KINDS:
            raise ValueError(
                f"unknown netfault kind {self.kind!r}; expected one of {NETFAULT_KINDS}"
            )
        if self.at < 0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.kind in ("link_down", "link_up"):
            if self.src is None or self.dst is None:
                raise ValueError(f"{self.kind} event needs src and dst endpoints")
            if self.src == self.dst:
                raise ValueError("link events need two distinct endpoints")
        if self.kind == "partition" and len(self.group) < 1:
            raise ValueError("partition event needs a non-empty node group")

    @staticmethod
    def parse(token: str) -> List["NetFaultEvent"]:
        """Parse one schedule token into its events.

        Grammar (times in simulated seconds)::

            down:A-B@T          link A<->B goes down at T
            up:A-B@T            link A<->B comes back at T
            link:A-B@T1..T2     sugar: down at T1, up at T2
            partition:A+B@T1..T2   nodes {A,B} isolated from the rest
                                   between T1 and T2 (omit ..T2 to never heal)
        """
        try:
            head, at_part = token.split("@", 1)
            kind, spec = head.split(":", 1)
        except ValueError:
            raise ValueError(
                f"malformed netfault token {token!r}; expected kind:spec@time"
            ) from None
        kind = kind.strip().lower()
        if ".." in at_part:
            start_s, end_s = at_part.split("..", 1)
            start, end = float(start_s), float(end_s)
            if end <= start:
                raise ValueError(f"empty interval in netfault token {token!r}")
        else:
            start, end = float(at_part), None
        if kind in ("down", "up", "link"):
            try:
                a_s, b_s = spec.split("-", 1)
                a, b = int(a_s), int(b_s)
            except ValueError:
                raise ValueError(
                    f"malformed link spec in {token!r}; expected A-B"
                ) from None
            if kind == "down":
                return [NetFaultEvent("link_down", start, src=a, dst=b)]
            if kind == "up":
                return [NetFaultEvent("link_up", start, src=a, dst=b)]
            if end is None:
                raise ValueError(f"link token {token!r} needs a T1..T2 interval")
            return [
                NetFaultEvent("link_down", start, src=a, dst=b),
                NetFaultEvent("link_up", end, src=a, dst=b),
            ]
        if kind == "partition":
            try:
                group = tuple(sorted(int(n) for n in spec.split("+")))
            except ValueError:
                raise ValueError(
                    f"malformed partition group in {token!r}; expected A+B+..."
                ) from None
            events = [NetFaultEvent("partition", start, group=group)]
            if end is not None:
                events.append(NetFaultEvent("heal", end))
            return events
        raise ValueError(f"unknown netfault token kind {kind!r} in {token!r}")


@dataclass(frozen=True)
class NetFaultSchedule:
    """A time-ordered list of :class:`NetFaultEvent`."""

    events: Tuple[NetFaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.at))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def validate(self, nodes: int) -> None:
        """Raise if any event references a node outside ``range(nodes)``."""
        for e in self.events:
            ids = list(e.group)
            if e.src is not None:
                ids.append(e.src)
            if e.dst is not None:
                ids.append(e.dst)
            for n in ids:
                if not 0 <= n < nodes:
                    raise ValueError(
                        f"netfault event {e.kind}@{e.at:g} references node {n} "
                        f"outside a {nodes}-node cluster"
                    )
            if e.kind == "partition" and len(e.group) >= nodes:
                raise ValueError(
                    f"partition group {e.group} must leave at least one node "
                    f"on the majority side of a {nodes}-node cluster"
                )

    @staticmethod
    def parse(spec: str) -> "NetFaultSchedule":
        """Parse a comma/space-separated list of schedule tokens."""
        events: List[NetFaultEvent] = []
        for token in spec.replace(",", " ").split():
            events.extend(NetFaultEvent.parse(token))
        return NetFaultSchedule(tuple(events))

    @staticmethod
    def partition(
        group: Sequence[int], start: float, end: Optional[float] = None
    ) -> "NetFaultSchedule":
        """One partition isolating ``group`` between ``start`` and ``end``."""
        events = [NetFaultEvent("partition", start, group=tuple(sorted(group)))]
        if end is not None:
            events.append(NetFaultEvent("heal", end))
        return NetFaultSchedule(tuple(events))


#: Reliability parameters of the stop-and-wait ARQ
#: (:mod:`repro.netfaults.protocol`).  ``timeout_s`` is the ack deadline
#: for one transmission attempt; ``backoff(attempt)`` (1-based) is the
#: capped exponential pause before retransmission number ``attempt``.
#: The unloaded one-way control latency is ~19 us, but the paper's
#: closed-loop saturation methodology keeps NI and CPU queues deep, so
#: real round trips stretch into the milliseconds; a 10 ms deadline keeps
#: spurious retransmissions (which the receiver dedups, but which still
#: cost fabric and CPU time) rare while four attempts still push residual
#: loss below 1e-7 at 1% message loss and detect an unreachable peer
#: within ~100 ms.
ARQ_RETRY = RetryPolicy(
    max_retries=3,
    base_backoff_s=5e-3,
    multiplier=2.0,
    cap_s=50e-3,
    timeout_s=10e-3,
)

#: Message kinds the reliability protocol covers by default: every kind
#: whose loss wedges a policy or loses application state.  Load broadcasts
#: (``l2s_load``) stay fire-and-forget on purpose — L2S's staleness
#: detection is the defense there, matching its soft-state design.
DEFAULT_RELIABLE_KINDS = (
    "handoff",
    "relay",
    "lard_done",
    "lardng_query",
    "lardng_reply",
    "dfs_req",
    "dfs_data",
    "l2s_set",
)


@dataclass(frozen=True)
class NetFaultConfig:
    """Every knob of the unreliable-interconnect layer.

    With every rate at zero and no schedule the config is *inert*
    (:attr:`active` is False) and the interconnect behaves — bit for
    bit — as if no netfault layer existed at all.
    """

    #: Global probability that any message is dropped in the fabric.
    loss_rate: float = 0.0
    #: Probability a delivered message is duplicated (the copy charges the
    #: receiver's NI and CPU again; the effect still fires exactly once).
    dup_rate: float = 0.0
    #: Fixed extra switch delay added to every message (seconds).
    extra_delay_s: float = 0.0
    #: Uniform random jitter in [0, jitter_s) added on top (seconds).
    jitter_s: float = 0.0
    #: Extra per-link loss: ``(a, b, rate)`` triples, undirected; composes
    #: with ``loss_rate`` as independent loss processes.
    link_loss: Tuple[Tuple[int, int, float], ...] = ()
    #: Timed link-down / partition events.
    schedule: Optional[NetFaultSchedule] = None
    #: Seed for the layer's message-time RNG (loss/dup/jitter draws).
    seed: int = 0
    #: Retry parameters for every kind in :data:`DEFAULT_RELIABLE_KINDS`;
    #: ``timeout_s`` is required (it is the ARQ's ack deadline).
    default_spec: RetryPolicy = ARQ_RETRY
    #: When a partitioned-DFS remote fetch exhausts its retries, read a
    #: degraded local-disk replica instead of failing the request.
    dfs_local_fallback: bool = True
    #: How many times the front end may re-run the distribution decision
    #: after a hand-off exhausts its message retries.
    handoff_redispatch: int = 2
    #: Attach the layer and reliability protocol even with every fault
    #: knob at zero.  Nothing is ever dropped, but covered kinds pay for
    #: acks — the protocol-overhead baseline, and the calibration twin
    #: of a timed-schedule run (identical timeline up to the first
    #: scheduled event).
    always_on: bool = False

    def __post_init__(self) -> None:
        for name in ("loss_rate", "dup_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.extra_delay_s < 0 or self.jitter_s < 0:
            raise ValueError("delays must be non-negative")
        for a, b, rate in self.link_loss:
            if a == b:
                raise ValueError(f"link_loss entry ({a}, {b}) is not a link")
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"link loss rate must be in [0, 1), got {rate}")
        if self.handoff_redispatch < 0:
            raise ValueError("handoff_redispatch must be >= 0")
        if self.default_spec.timeout_s is None:
            raise ValueError("default_spec needs an ack timeout_s")

    @property
    def active(self) -> bool:
        """Whether this config perturbs the fabric at all."""
        return bool(
            self.loss_rate > 0.0
            or self.dup_rate > 0.0
            or self.extra_delay_s > 0.0
            or self.jitter_s > 0.0
            or self.link_loss
            or (self.schedule is not None and len(self.schedule) > 0)
            or self.always_on
        )
