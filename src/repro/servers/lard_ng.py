"""Dispatcher-based "scalable LARD" (Aron et al. 2000; paper §6).

The LARD authors' follow-up design, which this paper's related-work
section analyzes: client connections are accepted by *all* serving
nodes (a load-balancing switch or round-robin DNS), the accepting node
queries a dedicated **dispatcher** that runs the LARD/R algorithm, and
then hands the connection off to whichever node the dispatcher chose —
possibly itself, saving the hand-off.

Relative to front-end LARD this moves the per-request cost from
"parse + hand-off at one node" to "a query/reply message pair + a small
decision", so the saturation point is much higher; but, as the paper
argues, (a) the dispatcher is still a single point of failure, (b) its
cache space is still wasted, and (c) every request pays a two-way
communication.  L2S has none of these.  This policy exists to check
that analysis.

Failover extension (fault-injection runs): with ``failover_s`` set, a
dispatcher crash triggers an **election** after that delay — the
lowest-id alive serving node promotes itself to dispatcher, rebuilding
the LARD tables from scratch (they died with the old dispatcher's
memory), and announces the result with a broadcast.  Until the election
completes every request fails, which is the outage window the
availability timeline measures.  Without ``failover_s`` a dispatcher
crash is a total outage until the node itself recovers — the paper's
single-point-of-failure claim in its starkest form.
"""

from __future__ import annotations

from typing import Callable, Optional

from .base import Decision, DistributionPolicy, ServiceUnavailable, ShuffledRoundRobin
from .lard import LARDPolicy

__all__ = ["DispatcherLARDPolicy"]


class DispatcherLARDPolicy(LARDPolicy):
    """LARD/R run at a dedicated dispatcher, queried per request."""

    name = "lard-ng"
    #: The simulator must obtain decisions through :meth:`decide_cb`,
    #: which charges the query round-trip.
    async_decide = True
    # ``decide_once`` is inherited: one query per persistent connection,
    # whose later requests the accepting node relays to the chosen one.

    def __init__(
        self,
        decision_cpu_s: float = 20e-6,
        failover_s: Optional[float] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if decision_cpu_s < 0:
            raise ValueError("decision_cpu_s must be non-negative")
        if failover_s is not None and failover_s < 0:
            raise ValueError("failover_s must be non-negative")
        #: Dispatcher CPU time per distribution decision (a table lookup
        #: plus bookkeeping; Aron et al. measured tens of microseconds).
        self.decision_cpu_s = decision_cpu_s
        #: Election delay after a dispatcher crash (None = no failover).
        self.failover_s = failover_s
        self.queries = 0
        self.elections = 0

    @property
    def dispatcher(self) -> int:
        return self._dispatcher

    @property
    def front_end(self) -> int:
        """The current dispatcher — keeps the inherited LARD notice and
        recovery paths pointed at whoever holds the tables now."""
        return self._dispatcher

    def _setup(self) -> None:
        self._dispatcher = 0
        super()._setup()
        self._rr = ShuffledRoundRobin(max(1, self._require_cluster().num_nodes - 1))

    def initial_node(self, index: int, file_id: int) -> int:
        """Connections land directly on serving nodes (1..N-1)."""
        if self._single_node:
            return 0
        # Round-robin over the serving nodes, skipping the original
        # dispatcher slot (an elected dispatcher keeps its arrivals).
        node = 1 + self._rr.node_for(index)
        return self._next_alive_serving(node)

    def _next_alive_serving(self, node: int) -> int:
        cluster = self._require_cluster()
        n = cluster.num_nodes
        for step in range(n - 1):
            candidate = 1 + (node - 1 + step) % (n - 1)
            if candidate not in self.failed_nodes:
                return candidate
        raise ServiceUnavailable("every serving node has failed")

    # -- failure / failover -----------------------------------------------------

    def on_node_failed(self, node_id: int) -> None:
        """Prune the dead node from the serving structures and, if it was
        the dispatcher and failover is enabled, schedule an election.

        Unlike front-end LARD, the dispatcher here may itself be a
        serving node (after a previous election), so the serving-pool
        repair runs unconditionally.
        """
        DistributionPolicy.on_node_failed(self, node_id)
        if self._single_node:
            return
        if node_id in self._back_ends:
            self._back_ends.remove(node_id)
        for file_id in list(self._server_sets):
            sset = self._server_sets[file_id]
            if node_id in sset:
                sset.remove(node_id)
            if not sset:
                del self._server_sets[file_id]
                self._set_modified.pop(file_id, None)
        if node_id == self._dispatcher and self.failover_s is not None:
            self._require_cluster().env.call_later(self.failover_s, self._elect)

    def _elect(self) -> None:
        """Promote the lowest-id alive serving node to dispatcher.

        The promoted node rebuilds the LARD tables from scratch — the
        old ones died with the old dispatcher's memory — and announces
        the election with a (charged) broadcast.  A no-op if the old
        dispatcher already recovered, or if nobody is left to elect.
        """
        if self._dispatcher not in self.failed_nodes:
            return
        cluster = self._require_cluster()
        n = cluster.num_nodes
        alive = [i for i in range(1, n) if i not in self.failed_nodes]
        if not alive:
            return
        self._dispatcher = alive[0]
        self._view = [0] * n
        self._server_sets.clear()
        self._set_modified.clear()
        self._pending_notice = [0] * n
        self._table_gen += 1
        self.elections += 1
        cluster.net.broadcast_control(self._dispatcher, kind="lardng_elect")

    # -- decisions ---------------------------------------------------------------

    def decide_cb(
        self,
        initial: int,
        file_id: int,
        done: Callable[[Decision], None],
        failed: Callable[[], None],
    ) -> None:
        """Query round-trip to the dispatcher, then the LARD/R decision.

        Charged: control message initial -> dispatcher, decision CPU at
        the dispatcher, control message back (both messages skipped when
        the accepting node *is* the dispatcher — possible after an
        election).  ``done(decision)`` receives the :class:`Decision`
        (``forwarded`` only when the dispatcher picked a different node
        than the accepting one); ``failed()`` fires when the dispatcher
        could not be reached or had no back-end left.  Raises
        :class:`ServiceUnavailable` at once when the dispatcher is down.
        """
        cluster = self._require_cluster()
        if self._single_node:
            done(Decision(target=0, forwarded=False))
            return
        if self._dispatcher in self.failed_nodes:
            raise ServiceUnavailable("the dispatcher has failed")
        self.queries += 1
        cfg = cluster.config

        def control(src: int, dst: int, kind: str, then) -> None:
            # A dispatcher that is itself the accepting node (possible
            # after an election) skips the message: src == dst.
            cluster.net.transmit_cb(
                src, dst, cfg.control_kb, kind, then,
                ni_time_s=cfg.ni_control_time(),
            )

        def queried(ok: bool) -> None:
            if not ok:
                # The dispatcher is unreachable (lost query after
                # retries, crash, partition): the accepting node times
                # out and the client retries — the request aborts.
                failed()
                return
            if self.decision_cpu_s > 0:
                cluster.node(self._dispatcher).cpu.hold(
                    self.decision_cpu_s, decide
                )
            else:
                decide()

        def decide() -> None:
            try:
                decision = LARDPolicy.decide(self, initial, file_id)
            except ServiceUnavailable:
                failed()
                return

            def replied(ok: bool) -> None:
                if not ok:
                    # The decision never reached the accepting node: undo
                    # the dispatcher's optimistic view charge and abort.
                    self.on_handoff_failed(initial, decision.target)
                    failed()
                    return
                done(decision)

            control(self._dispatcher, initial, "lardng_reply", replied)

        # Each step reads the dispatcher afresh: an election that lands
        # mid-query moves the remaining steps to the new dispatcher.
        control(initial, self._dispatcher, "lardng_query", queried)

    def decide(self, initial: int, file_id: int) -> Decision:
        raise RuntimeError(
            "lard-ng decisions require the messaging round-trip; drive it "
            "through decide_cb (async_decide=True)"
        )

    def stats(self):
        s = super().stats()
        s["queries"] = self.queries
        s["elections"] = self.elections
        s["dispatcher"] = self._dispatcher
        return s

