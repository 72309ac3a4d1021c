"""Request-distribution policy interface.

A policy answers two questions the simulator asks for every request:

1. :meth:`DistributionPolicy.initial_node` — which node does the client's
   connection land on?  (Round-robin DNS for L2S, an idealized
   fewest-connections switch for the traditional server, always the
   front-end for LARD.)
2. :meth:`DistributionPolicy.decide` — which node services the request?
   If it differs from the initial node, the request is handed off and the
   simulator charges the forwarding CPU work plus the message costs.

Policies also get hooks for connection-count changes (L2S piggybacks its
load broadcasts there) and request completions (LARD back-ends batch
completion notices to the front-end there).  Policies emit their control
traffic themselves through ``cluster.net`` so every message they need is
charged to the simulated hardware.

Policies are substrate-neutral: they read time only through the injected
:class:`Clock` (``self.clock.now``) and talk to the world only through
the bound cluster's ``net``/``node``/``num_nodes`` surface.  The DES
driver binds them to the simulated cluster with the DES environment as
the clock; :class:`repro.live.PolicyEngine` binds the *same objects* to
a live asyncio cluster with a wall clock — which is what makes
sim-vs-live divergence a meaningful bug finder.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..cluster import Cluster

__all__ = [
    "Clock",
    "Decision",
    "DistributionPolicy",
    "ShuffledRoundRobin",
    "ServiceUnavailable",
    "least_loaded",
]


def least_loaded(view: Sequence[int], nodes: Iterable[int]) -> int:
    """Node with the smallest ``(view[i], i)`` — i.e. ``min`` with that
    key, minus the per-node lambda/tuple cost.  Every dispatch decision
    runs this scan (often several times per request), which made the
    ``min(..., key=lambda ...)`` idiom one of the hottest non-kernel
    lines in a profile (see ``docs/KERNEL.md``)."""
    it = iter(nodes)
    best = next(it)
    load = view[best]
    for i in it:
        li = view[i]
        if li < load or (li == load and i < best):
            load = li
            best = i
    return best


@runtime_checkable
class Clock(Protocol):
    """Where a policy's notion of "now" comes from.

    Policies age server sets and timestamp load views, but they must not
    care *whose* seconds they are counting: inside the simulator the
    clock is the DES :class:`~repro.des.Environment` (simulated seconds),
    inside :mod:`repro.live` it is a wall clock (real seconds).  Anything
    with a ``now`` attribute/property returning a monotonically
    non-decreasing float satisfies the protocol — the DES ``Environment``
    does so natively, which is why binding without an explicit clock is
    byte-identical to the historical behaviour.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol declaration
        ...


class ServiceUnavailable(Exception):
    """The policy cannot service requests at all (e.g. LARD's front-end
    died).  The simulation driver counts such requests as failed."""


class ShuffledRoundRobin:
    """Balanced but aperiodic arrival sequence (round-robin DNS model).

    Plain ``index % N`` assignment is perfectly periodic: when a trace is
    replayed, every node receives *exactly* the same request subsequence
    each pass, which lets per-node caches memorize their slice — an
    artifact real DNS round-robin does not have (client- and resolver-side
    translation caching randomizes which node a given request reaches).
    This helper deals each consecutive block of N requests to the N nodes
    in a seeded, per-block-shuffled order: still exactly balanced, never
    periodic.
    """

    def __init__(self, nodes: int, seed: int = 0x5EED):
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self.nodes = nodes
        self.seed = seed
        self._block = -1
        self._perm: list = []

    def node_for(self, index: int) -> int:
        if self.nodes == 1:
            return 0
        block, pos = divmod(index, self.nodes)
        if block != self._block:
            rng = random.Random((self.seed << 24) ^ block)
            self._perm = list(range(self.nodes))
            rng.shuffle(self._perm)
            self._block = block
        return self._perm[pos]


@dataclass(frozen=True)
class Decision:
    """Outcome of a distribution decision for one request."""

    #: Node that will service the request.
    target: int
    #: True when the request is handed off away from the initial node.
    forwarded: bool
    #: True when the decision replicated the file onto a new server
    #: (metrics for the replication ablation).
    replicated: bool = False


class DistributionPolicy(ABC):
    """Base class for request-distribution policies."""

    #: Human-readable policy name (used in reports and benchmarks).
    name: str = "base"
    #: True when decisions travel through the messaging layer: the
    #: simulator then calls ``decide_cb(initial, file_id, done, failed)``
    #: instead of :meth:`decide` (lard-ng's dispatcher round-trip).
    async_decide: bool = False

    def __init__(self) -> None:
        self.cluster: Optional[Cluster] = None
        #: Time source (see :class:`Clock`); set by :meth:`bind`.
        self.clock: Optional[Clock] = None
        #: Nodes known dead; populated by :meth:`on_node_failed`.
        self.failed_nodes: set = set()
        #: Optional :class:`~repro.overload.BreakerBoard` consulted by
        #: routing; set by :meth:`attach_breakers` (overload runs only).
        self.breakers = None

    # -- lifecycle wiring ----------------------------------------------------

    def bind(self, cluster: Cluster, clock: Optional[Clock] = None) -> None:
        """Attach to a cluster.  Called once by the driving substrate.

        ``clock`` is the policy's time source.  The default (``None``)
        uses the cluster's DES environment, preserving the historical
        simulator behaviour exactly; :class:`repro.live.PolicyEngine`
        passes a wall clock instead.  Policies must read time *only*
        through ``self.clock`` — reaching into ``cluster.env`` directly
        couples them to the simulator and blocks reuse in the live
        substrate.
        """
        self.cluster = cluster
        self.clock = clock if clock is not None else cluster.env
        self._setup()

    def _setup(self) -> None:
        """Policy-specific state initialization after binding."""

    def _require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a cluster")
        return self.cluster

    # -- required decisions ----------------------------------------------------

    @abstractmethod
    def initial_node(self, index: int, file_id: int) -> int:
        """Node on which the ``index``-th client connection arrives."""

    @abstractmethod
    def decide(self, initial: int, file_id: int) -> Decision:
        """Pick the service node for a request parsed at ``initial``."""

    # -- optional hooks ---------------------------------------------------------

    def on_connection_change(self, node_id: int) -> None:
        """Called after a node's open-connection count changes."""

    def on_complete(self, node_id: int, file_id: int) -> None:
        """Called after a request finishes at its service node."""

    def on_connection_end(self, node_id: int) -> None:
        """Called when a client connection closes at ``node_id``.

        Under HTTP/1.0 this fires once per request (connection ==
        request); under persistent connections once per connection.
        Policies whose dispatcher counts *connections* (the traditional
        fewest-connections switch) hook their decrement here.
        """

    def on_node_failed(self, node_id: int) -> None:
        """A node crashed: stop routing anything to it.

        Subclasses extend this to repair their own structures (server
        sets, load views, hash rings).  Availability semantics per
        design: the distributed policies keep serving on the survivors;
        LARD survives back-end deaths but not its front-end's.

        Callers: the sim's :class:`~repro.faults.injector.FaultInjector`
        fires this at the crash instant; live, the
        :class:`~repro.live.faultproxy.HealthMonitor` fires it on the
        mark-down transition (a failed probe streak or a suspected
        request failure) — both through an idempotent guard, so a
        policy sees exactly one call per down-transition either way.
        """
        self.failed_nodes.add(node_id)

    def on_node_recovered(self, node_id: int) -> None:
        """A crashed node rebooted and rejoined (cold cache, no state).

        The base behaviour re-admits it to routing; subclasses extend
        this to rebuild their distributed views of the node (L2S resets
        and rebroadcasts its load, LARD re-admits the back-end or
        restarts the front-end's tables cold, consistent hashing
        restores the ring points).

        Live, a respawned worker is a *new incarnation*: the health
        monitor fires ``on_node_failed``/``on_node_recovered`` as a
        pair even when the restart was too fast for any probe to miss,
        so policy state tied to the dead incarnation is always flushed
        (mirroring the sim's incarnation counter).
        """
        self.failed_nodes.discard(node_id)

    def usable_nodes(self) -> int:
        """How many nodes the policy currently routes to."""
        cluster = self._require_cluster()
        return cluster.num_nodes - len(self.failed_nodes)

    def on_request_aborted(self, node_id: int, opened: bool) -> None:
        """A request aborted mid-flight (crash or client timeout).

        ``node_id`` is the initial node; ``opened`` says whether a
        service connection had been opened (in which case the normal
        ``on_connection_end`` hook already fired from the close path).
        Policies whose dispatcher counts assignments from arrival (the
        traditional fewest-connections switch) decrement here when the
        request died before opening a connection.
        """

    def on_handoff_failed(self, initial: int, target: int) -> None:
        """A hand-off from ``initial`` to ``target`` was abandoned — the
        message (and its retries, if a reliability protocol is active)
        never arrived.  Policies that optimistically charged ``target``
        in a load view at decide time roll that charge back here; the
        lifecycle then either re-runs :meth:`decide` (bounded by
        ``NetFaultConfig.handoff_redispatch``) or aborts the request.
        """

    def on_partition_healed(self) -> None:
        """The network partition just healed (all links restored).

        Soft state exchanged over the fabric diverged while the sides
        were apart; policies that gossip state (L2S) re-announce their
        server sets and load vectors here.  Fired by the
        :class:`~repro.netfaults.injector.NetFaultInjector`.
        """

    def attach_breakers(self, board) -> None:
        """Attach a :class:`~repro.overload.BreakerBoard` so routing can
        steer around open breakers.  Called by the driving substrate
        (not by :meth:`bind` — overload control is per-run opt-in, like
        fault injection)."""
        self.breakers = board

    def routable_nodes(self, nodes: Sequence[int]) -> Sequence[int]:
        """Filter candidate nodes through the breaker board.

        Open-breaker nodes are dropped *unless that would empty the
        candidate set* — when every breaker is open, routing somewhere
        beats refusing everywhere (the service-entry breaker gate will
        shed, and its half-open probes are what discover recovery).
        Without a board this is the identity, costing one attribute
        check on the hot path.
        """
        board = self.breakers
        if board is None:
            return nodes
        now = self.clock.now
        allowed = [i for i in nodes if board.routable(i, now)]
        return allowed if allowed else nodes

    def _next_alive(self, node_id: int) -> int:
        """The given node, or the next alive one after it (wrap-around).

        With a breaker board attached, alive nodes whose breakers are
        open are passed over too — falling back to the first alive node
        when every alive breaker is open (same degrade-don't-refuse rule
        as :meth:`routable_nodes`).
        """
        cluster = self._require_cluster()
        n = cluster.num_nodes
        if len(self.failed_nodes) >= n:
            raise ServiceUnavailable("every node has failed")
        board = self.breakers
        if board is None:
            for step in range(n):
                candidate = (node_id + step) % n
                if candidate not in self.failed_nodes:
                    return candidate
            raise AssertionError("unreachable")  # pragma: no cover
        now = self.clock.now
        first_alive = -1
        for step in range(n):
            candidate = (node_id + step) % n
            if candidate in self.failed_nodes:
                continue
            if board.routable(candidate, now):
                return candidate
            if first_alive < 0:
                first_alive = candidate
        return first_alive

    def reset_stats(self) -> None:
        """Discard warmup-phase statistics (policy state is kept)."""

    def stats(self) -> Dict[str, Any]:
        """Policy-specific statistics for reports."""
        return {}

    def check_invariants(self) -> List[str]:
        """Structural invariants of the policy's internal state.

        Returns a list of problem descriptions (empty = healthy).  The
        chaos oracle calls this both mid-run and post-run, so the checks
        must be cheap and must only assert properties that hold at
        *every* quiescent instant — not merely at the end of a clean
        run.  Base policies keep no distributed state; subclasses with
        load views or server sets (LARD, L2S) override.
        """
        return []
