"""Transport-neutral policy engine for the live cluster.

:class:`PolicyEngine` takes any :class:`~repro.servers.DistributionPolicy`
and binds it to a *live membership* instead of the simulated cluster: a
duck-typed object exposing exactly the surface policies read —
``num_nodes``, ``node(i).open_connections``, and a ``net`` control plane
(``send_control_cb`` / ``broadcast_control``).  Time comes
from an injected :class:`~repro.servers.Clock` (a wall clock by default).

Control messages the policies emit (L2S load broadcasts, LARD completion
notices) are applied synchronously: on a localhost cluster propagation is
microseconds against multi-millisecond service times, so zero-latency
delivery is the honest model.  The engine still *counts* every message
so ``messages_per_request`` is comparable with the simulator's.

The engine is deliberately transport-neutral: the asyncio front-end calls
:meth:`route` / :meth:`connection_opened` / :meth:`request_completed`,
but nothing here touches sockets — unit tests drive the same methods
directly, and the lifecycle-order tests assert the hook sequence matches
:mod:`repro.sim.lifecycle` call for call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..servers import Clock, Decision, DistributionPolicy, ServiceUnavailable
from .clock import WallClock

__all__ = ["LiveUnsupported", "PolicyEngine", "RouteOutcome"]


class LiveUnsupported(Exception):
    """The policy cannot run on the live substrate (e.g. lard-ng's
    ``async_decide`` protocol needs the DES scheduler)."""


@dataclass(frozen=True)
class RouteOutcome:
    """The engine's answer for one request."""

    #: 0-based arrival index of the request.
    index: int
    #: File id (popularity rank) requested.
    file_id: int
    #: Node the client connection landed on.
    initial: int
    #: Node that will service the request.
    target: int
    #: True when the request was handed off away from ``initial``.
    forwarded: bool
    #: True when the decision replicated the file onto a new server.
    replicated: bool


class _LiveNode:
    """Per-node view the policies read: open-connection count."""

    __slots__ = ("id", "open_connections")

    def __init__(self, node_id: int) -> None:
        self.id = node_id
        self.open_connections = 0


class _LiveControlPlane:
    """Zero-latency local control plane with message accounting.

    Mirrors the subset of :class:`repro.cluster.network.Interconnect`
    the policies call.  Delivery here is always immediate, so no message
    needs the simulator's ack/retry protocol.
    """

    def __init__(self, nodes: List[_LiveNode]) -> None:
        self.nodes = nodes
        self.messages_sent = 0
        self.messages_by_kind: Dict[str, int] = {}

    def _count(self, kind: str) -> None:
        self.messages_sent += 1
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    def send_control_cb(
        self,
        src: int,
        dst: int,
        kind: str = "control",
        done: Optional[Callable[[], None]] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        self._count(kind)
        if done is not None:
            done()

    def broadcast_control(
        self,
        src: int,
        kind: str = "broadcast",
        exclude: Optional[int] = None,
    ) -> None:
        for node in self.nodes:
            if node.id == src or node.id == exclude:
                continue
            self._count(kind)


class _LiveMembership:
    """Duck-typed stand-in for :class:`repro.cluster.Cluster`.

    Policies only read ``num_nodes`` / ``node(i)`` / ``net`` / ``env``
    from their bound cluster; this object provides those against live
    state.  ``env`` doubles as the clock so even a policy that (wrongly)
    reads ``cluster.env.now`` instead of ``self.clock.now`` sees wall
    time rather than crashing — but simlint and the base-class contract
    keep that path dead.
    """

    def __init__(self, num_nodes: int, clock: Clock) -> None:
        self.num_nodes = num_nodes
        self.env = clock
        self.nodes = [_LiveNode(i) for i in range(num_nodes)]
        self.net = _LiveControlPlane(self.nodes)

    def node(self, node_id: int) -> _LiveNode:
        return self.nodes[node_id]


class PolicyEngine:
    """Drives one ``DistributionPolicy`` from live request events.

    The hook sequence per request matches :mod:`repro.sim.lifecycle`:

    1. :meth:`route` — ``initial_node`` then ``decide`` (the simulator
       interposes parse time between the two; live, the HTTP parse has
       already happened when the front-end calls this).
    2. :meth:`connection_opened` at the target — increments the target's
       open-connection count, then fires ``on_connection_change``.
    3. :meth:`request_completed` — decrement, then ``on_connection_change``
       and ``on_connection_end``, in exactly the simulator's close-path
       order.

    Aborts route through :meth:`request_aborted` and failed hand-offs
    through :meth:`handoff_failed`, same as the sim's fault paths.

    All methods take an internal lock: the asyncio front-end is single-
    threaded, but disk reads hop through an executor and the loadtest's
    stats scrape may run off-loop, so the engine stays correct either way.
    """

    def __init__(
        self,
        policy: DistributionPolicy,
        num_nodes: int,
        clock: Optional[Clock] = None,
    ) -> None:
        if getattr(policy, "async_decide", False):
            raise LiveUnsupported(
                f"policy {policy.name!r} decides through a DES message "
                "round-trip "
                "(async_decide=True) and cannot run on the live substrate"
            )
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.policy = policy
        self.clock: Clock = clock if clock is not None else WallClock()
        self.membership = _LiveMembership(num_nodes, self.clock)
        self._lock = threading.Lock()
        # Nodes currently marked failed.  Guards the membership hooks so
        # passive suspicion and active probes (which can race to the
        # same conclusion) produce exactly one on_node_failed per
        # down-transition — mirroring the sim driver's idempotent
        # crash_node/recover_node.
        self._down: set = set()
        # Engine-level accounting (the live analogue of the sim meters).
        self.routed = 0
        self.completed = 0
        self.aborted = 0
        self.unavailable = 0
        self.forwarded = 0
        self.replicated = 0
        self.handoffs_failed = 0
        # bind() accepts any object with the cluster surface; the type
        # annotation on DistributionPolicy.bind names Cluster, but the
        # contract is structural (see servers.base docstring).
        policy.bind(self.membership, clock=self.clock)  # type: ignore[arg-type]

    @property
    def num_nodes(self) -> int:
        return self.membership.num_nodes

    @property
    def net(self) -> _LiveControlPlane:
        return self.membership.net

    # -- request lifecycle -------------------------------------------------

    def route(self, index: int, file_id: int) -> RouteOutcome:
        """Pick the service node for arrival ``index`` requesting ``file_id``.

        Raises :class:`~repro.servers.ServiceUnavailable` when the policy
        cannot service anything (counted in ``unavailable``).
        """
        with self._lock:
            try:
                initial = self.policy.initial_node(index, file_id)
                decision: Decision = self.policy.decide(initial, file_id)
            except ServiceUnavailable:
                self.unavailable += 1
                raise
            self.routed += 1
            if decision.forwarded:
                self.forwarded += 1
            if decision.replicated:
                self.replicated += 1
            return RouteOutcome(
                index=index,
                file_id=file_id,
                initial=initial,
                target=decision.target,
                forwarded=decision.forwarded,
                replicated=decision.replicated,
            )

    def connection_opened(self, node_id: int) -> None:
        """The service connection at ``node_id`` opened."""
        with self._lock:
            self.membership.node(node_id).open_connections += 1
            self.policy.on_connection_change(node_id)

    def request_completed(self, node_id: int) -> None:
        """The request finished at its service node (close-path hooks)."""
        with self._lock:
            node = self.membership.node(node_id)
            node.open_connections -= 1
            assert node.open_connections >= 0, "connection count went negative"
            self.completed += 1
            self.policy.on_connection_change(node_id)
            self.policy.on_connection_end(node_id)

    def request_aborted(self, initial: int, opened: bool, target: Optional[int] = None) -> None:
        """A request died mid-flight (backend error, timeout).

        When the service connection had opened, the close-path hooks fire
        first at ``target`` (mirroring the sim, where the connection close
        precedes the abort notification), then ``on_request_aborted``.
        """
        with self._lock:
            if opened:
                node = self.membership.node(target if target is not None else initial)
                node.open_connections -= 1
                assert node.open_connections >= 0, "connection count went negative"
                self.policy.on_connection_change(node.id)
                self.policy.on_connection_end(node.id)
            self.aborted += 1
            self.policy.on_request_aborted(initial, opened)

    def handoff_failed(self, initial: int, target: int) -> None:
        """The TCP relay from ``initial`` to ``target`` failed."""
        with self._lock:
            self.handoffs_failed += 1
            self.policy.on_handoff_failed(initial, target)

    # -- membership events -------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Mark ``node_id`` failed (idempotent, like the sim driver)."""
        with self._lock:
            if node_id in self._down:
                return
            self._down.add(node_id)
            self.policy.on_node_failed(node_id)

    def recover_node(self, node_id: int) -> None:
        """Mark ``node_id`` recovered (no-op unless currently failed)."""
        with self._lock:
            if node_id not in self._down:
                return
            self._down.discard(node_id)
            self.policy.on_node_recovered(node_id)

    @property
    def down_nodes(self) -> List[int]:
        with self._lock:
            return sorted(self._down)

    # -- reporting ---------------------------------------------------------

    def reset_meters(self) -> None:
        """Zero engine and policy statistics (warmup boundary).

        Policy *state* (LARD server sets, L2S views) survives, exactly
        like the simulator's meter reset.
        """
        with self._lock:
            self.routed = 0
            self.completed = 0
            self.aborted = 0
            self.unavailable = 0
            self.forwarded = 0
            self.replicated = 0
            self.handoffs_failed = 0
            self.net.messages_sent = 0
            self.net.messages_by_kind.clear()
            self.policy.reset_stats()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "routed": self.routed,
                "completed": self.completed,
                "aborted": self.aborted,
                "unavailable": self.unavailable,
                "forwarded": self.forwarded,
                "replicated": self.replicated,
                "handoffs_failed": self.handoffs_failed,
                "control_messages": self.net.messages_sent,
                "control_messages_by_kind": dict(self.net.messages_by_kind),
                "down_nodes": sorted(self._down),
                "open_connections": [
                    node.open_connections for node in self.membership.nodes
                ],
                "policy": self.policy.stats(),
            }

    def check_invariants(self) -> List[str]:
        """Engine + policy structural invariants (empty = healthy)."""
        with self._lock:
            problems = list(self.policy.check_invariants())
            for node in self.membership.nodes:
                if node.open_connections < 0:
                    problems.append(
                        f"node {node.id} open_connections negative "
                        f"({node.open_connections})"
                    )
            return problems
