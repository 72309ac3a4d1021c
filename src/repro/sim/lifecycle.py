"""The life of one client request through the simulated cluster.

Mirrors Figure 2's path and Section 5.1's methodology:

1. the request enters through the **router** and the initial node's
   **NI-in** (request-sized transfers);
2. the initial node's **CPU parses** it (1/mu_p);
3. the policy picks the service node; a hand-off costs forwarding CPU
   work (1/mu_f) plus a request-sized M-VIA message (CPU and NI charges
   on both sides, switch latency in between);
4. the service node opens the connection (its load metric), brings the
   file into memory — free on a cache hit, a DFS/disk read on a miss —
   and spends reply CPU time (1/mu_m);
5. the reply leaves through the service node's **NI-out** (1/mu_o) and
   the **router**, directly to the client (TCP hand-off: no detour
   through the initial node).

Connection accounting and the policy hooks around it drive L2S's load
broadcasts and LARD's completion notices.

Failure semantics (fault-injection runs): a node involved in the
request crashing aborts the request at the next stage boundary.  The
check is *incarnation-aware* — a request that started against a node
which crashed and already recovered still aborts, because its
connection died with the old incarnation.  A client-side timeout (the
driver cancels the request's chain) aborts at once: the request leaves
the station queue it waits in, or frees the station it holds.  Aborts
fire ``on_failed(index)``; the driver decides whether to retry.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cluster import Cluster
from ..cluster.node import CPU_BULK, CPU_PROMPT
from ..des.core import URGENT
from ..servers import DistributionPolicy
from ..servers.base import ServiceUnavailable

__all__ = ["start_fast_request", "NodeFailedError"]


class NodeFailedError(Exception):
    """A request aborted with no ``on_failed`` handler to take it."""

    def __init__(self, node_id: int):  # simlint: coldpath (only raised)
        super().__init__(f"node {node_id} failed")
        self.node_id = node_id


def _breaker_allows(cluster: Cluster, node_id: int) -> bool:
    """Service-entry breaker gate (claims a half-open probe slot)."""
    ov = cluster.overload
    if ov is None or ov.breakers is None:
        return True
    return ov.breakers.allow(node_id, cluster.env.now)


def _breaker_failure(cluster: Cluster, node_id: int) -> None:
    ov = cluster.overload
    if ov is not None and ov.breakers is not None:
        ov.breakers.record_failure(node_id, cluster.env.now)


def _breaker_success(cluster: Cluster, node_id: int) -> None:
    ov = cluster.overload
    if ov is not None and ov.breakers is not None:
        ov.breakers.record_success(node_id, cluster.env.now)


class _FastRequest:
    """One client request as a callback chain.

    Walks the stage sequence — router, NI-in, parse, decide, (forward +
    hand-off), connection open, fetch, reply, NI-out, router — with the
    incarnation-aware abort checks at the stage boundaries, driven by
    event callbacks and pooled holds: no generator process, and no
    ``Timeout`` or ``Release`` event per stage.

    A stage holds at most one station, in ``_req``; while the chain
    waits on anything else (the hand-off, a dispatcher round-trip, a
    remote DFS read) ``_req`` is None.  :meth:`cancel` relies on that to
    leave the queue or free the station at once; every later callback of
    the chain then sees ``ended`` and does nothing.  Messages the request
    already sent, and work it handed to other nodes (a dispatcher's
    decision, a DFS home's disk read), run to their end regardless.
    """

    __slots__ = (
        "cluster",
        "policy",
        "index",
        "file_id",
        "size_bytes",
        "size_kb",
        "on_done",
        "on_failed",
        "env",
        "hw",
        "start",
        "initial",
        "initial_node",
        "initial_inc",
        "decision",
        "service_node",
        "service_inc",
        "opened",
        "ended",
        "redispatched",
        "misses_before",
        "_req",
        "_san_tok",
    )

    def __init__(
        self,
        cluster: Cluster,
        policy: DistributionPolicy,
        index: int,
        file_id: int,
        size_bytes: int,
        on_done: Optional[Callable[[int, float, bool, bool], None]],
        on_failed: Optional[Callable[[int], None]],
    ):
        self.cluster = cluster
        self.policy = policy
        self.index = index
        self.file_id = file_id
        self.size_bytes = size_bytes
        self.size_kb = size_bytes / 1024.0
        self.on_done = on_done
        self.on_failed = on_failed
        self.env = cluster.env
        self.hw = cluster.config.hardware
        self.initial: Optional[int] = None
        self.opened = False
        self.ended = False
        self.redispatched = 0
        self._req = None
        # Sanitized runs track each chain as one in-flight operation so
        # a stalled request (no pending event to leak) is still reported.
        san = self.env._san
        self._san_tok = None if san is None else san.op_begin(
            "fast-request", f"request #{index}, file {file_id}"
        )
        # The urgent zero-delay kick runs the first stage before any
        # ordinary event at this instant.
        self.env.call_later(0.0, self._start, priority=URGENT)

    def cancel(self) -> None:
        """Abort the request now (a client timeout).

        At an urgent zero-delay event the request leaves the station
        queue it waits in, or frees the station it holds, closes its
        connection if one is open, and fails like any other abort
        (``on_failed``; no breaker is fed).  A no-op once it has ended.
        """
        if not self.ended:
            self.env.call_later(0.0, self._cancelled, priority=URGENT)

    def _cancelled(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        req = self._req
        if req is not None:
            self._req = None
            req.resource.withdraw(req)
        if self.opened:
            self._close_connection()
        self._abort()

    # -- failure plumbing --------------------------------------------------

    def _initial_dead(self) -> bool:
        node = self.initial_node
        return node.failed or node.incarnation != self.initial_inc

    def _service_dead(self) -> bool:
        node = self.service_node
        return node.failed or node.incarnation != self.service_inc

    def _end(self) -> None:
        self.ended = True
        if self._san_tok is not None:
            self.env._san.op_end(self._san_tok)
            self._san_tok = None

    def _abort(self) -> None:
        self._end()
        if self.initial is not None:
            # Give dispatcher-style policies a chance to balance their
            # assignment counters for requests that never reached (or
            # never finished at) a service node.
            self.policy.on_request_aborted(self.initial, self.opened)
        if self.on_failed is None:
            raise NodeFailedError(self.initial if self.initial is not None else -1)
        self.on_failed(self.index)

    def _close_connection(self) -> None:
        self.service_node.connection_closed()
        policy = self.policy
        target = self.decision.target
        policy.on_connection_change(target)
        policy.on_complete(target, self.file_id)
        policy.on_connection_end(target)

    # -- inbound -----------------------------------------------------------

    def _start(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.start = self.env.now
        try:
            self.initial = self.policy.initial_node(self.index, self.file_id)
        except ServiceUnavailable:
            self._abort()
            return
        self.initial_node = node = self.cluster.node(self.initial)
        self.initial_inc = node.incarnation
        req = self._req = self.cluster.net.router.request()
        req.callbacks.append(self._route_in_held)

    def _route_in_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.hw.route_time(self.hw.request_kb), self._route_in_done
        )

    def _route_in_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.cluster.net.router.free(self._req)
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        req = self._req = self.initial_node.ni_in.request()
        req.callbacks.append(self._ni_in_held)

    def _ni_in_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.hw.ni_message_time(self.hw.request_kb), self._ni_in_done
        )

    def _ni_in_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.initial_node.ni_in.free(self._req)
        req = self._req = self.initial_node.cpu.request(CPU_PROMPT)
        req.callbacks.append(self._parse_held)

    def _parse_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.hw.parse_time() / self.initial_node.speed, self._parse_done
        )

    # -- decide + hand-off -------------------------------------------------

    def _parse_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.initial_node.cpu.free(self._req)
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        self._decide()

    def _decide(self) -> None:
        policy = self.policy
        try:
            if policy.async_decide:
                # Dispatcher-style policies decide through the messaging
                # layer (lard-ng's query round-trip).
                self._req = None
                policy.decide_cb(
                    self.initial, self.file_id, self._decided, self._undecided
                )
                return
            decision = policy.decide(self.initial, self.file_id)
        except ServiceUnavailable:
            self._undecided()
            return
        self._decided(decision)

    def _decided(self, decision) -> None:
        if self.ended:
            return
        self.decision = decision
        if decision.forwarded:
            node = self.initial_node
            node.forwarded += 1
            req = self._req = node.cpu.request(CPU_PROMPT)
            req.callbacks.append(self._forward_held)
        else:
            self._at_service()

    def _undecided(self) -> None:
        """No decision (no node can serve, or the dispatcher is
        unreachable): blame the initial node and abort."""
        if self.ended:
            return
        _breaker_failure(self.cluster, self.initial)
        self._abort()

    def _forward_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.hw.forward_time() / self.initial_node.speed, self._forward_done
        )

    def _forward_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.initial_node.cpu.free(self._req)
        self._req = None
        self.cluster.net.transmit_cb(
            self.initial,
            self.decision.target,
            self.hw.request_kb,
            "handoff",
            self._handed_off,
        )

    def _handed_off(self, ok: bool) -> None:  # simlint: hotpath
        if self.ended:
            # A cancelled request ignores the fate of its hand-off.
            return
        if ok:
            self._at_service()
            return
        # The hand-off (and all its retries) died in the fabric: the
        # policy rolls back its optimistic view charge, then the front
        # end either re-dispatches (partition tolerance on an unreliable
        # fabric) or gives up.
        target = self.decision.target
        self.policy.on_handoff_failed(self.initial, target)
        net = self.cluster.net
        budget = (
            net.netfaults.config.handoff_redispatch
            if net.netfaults is not None
            else 0
        )
        if self.redispatched >= budget or self._initial_dead():
            _breaker_failure(self.cluster, target)
            self._abort()
            return
        self.redispatched += 1
        if net.protocol is not None:
            net.protocol.redispatches += 1
        self._decide()

    # -- service node: fetch + reply ---------------------------------------

    def _at_service(self) -> None:
        target = self.decision.target
        self.service_node = node = self.cluster.node(target)
        if node.failed:
            # Dead on arrival: the hand-off reached a crashed node, so no
            # connection will ever open there and no completion notice
            # will ever acknowledge the decide-time view charge.
            self.policy.on_handoff_failed(self.initial, target)
            _breaker_failure(self.cluster, target)
            self._abort()
            return
        threshold = self.cluster.config.admission_threshold
        if (
            threshold is not None and node.open_connections >= threshold
        ) or not _breaker_allows(self.cluster, target):
            # Admission control (the connection queue is full) or an open
            # circuit breaker (or a spent half-open probe budget, checked
            # second so a queue shed never wastes a probe slot): the node
            # sheds the request and the client backs off and retries
            # (the driver's RetryPolicy is the retry-after).  A shed
            # connection never opens, so the view charge rolls back too.
            # Sheds never feed the breakers: counting them as failures
            # would let an overloaded-but-healthy node's breaker trip and
            # then stay open on its own rejections.
            self.policy.on_handoff_failed(self.initial, target)
            self.cluster.note_shed(node)
            self._abort()
            return
        self.service_inc = node.incarnation
        node.connection_opened()
        self.opened = True
        self.policy.on_connection_change(target)
        self.misses_before = node.cache.misses
        # Memory or disk: a hit is free, a miss reads the local disk or,
        # under the partitioned DFS layout, the file's remote home.
        if node.cache.lookup(self.file_id):
            self._after_fetch()
            return
        self._req = None
        self.cluster.dfs.read_cb(
            target,
            self.file_id,
            self.size_kb,
            self._read_disk,
            self._read_remote_done,
            self._read_remote_failed,
        )

    def _read_remote_done(self) -> None:
        if not self.ended:
            self._fetched()

    def _read_remote_failed(self) -> None:
        if self.ended:
            return
        self._close_connection()
        self._abort()

    def _read_disk(self) -> None:
        if self.ended:
            # A remote read gave up after the request was cancelled.
            return
        req = self._req = self.service_node.disk.request()
        req.callbacks.append(self._disk_held)

    def _disk_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(self.hw.disk_time(self.size_kb), self._disk_done)

    def _disk_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.service_node.disk.free(self._req)
        self._fetched()

    def _fetched(self) -> None:
        self.service_node.cache.insert(self.file_id, self.size_bytes)
        self._after_fetch()

    def _after_fetch(self) -> None:
        if self._service_dead():
            _breaker_failure(self.cluster, self.decision.target)
            self._close_connection()
            self._abort()
            return
        req = self._req = self.service_node.cpu.request(CPU_BULK)
        req.callbacks.append(self._reply_held)

    def _reply_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.hw.reply_time(self.size_kb) / self.service_node.speed,
            self._reply_done,
        )

    def _reply_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.service_node.cpu.free(self._req)
        if self._service_dead():
            _breaker_failure(self.cluster, self.decision.target)
            self._close_connection()
            self._abort()
            return
        req = self._req = self.service_node.ni_out.request()
        req.callbacks.append(self._ni_out_held)

    def _ni_out_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(
            self.hw.ni_reply_time(self.size_kb), self._ni_out_done
        )

    def _ni_out_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.service_node.ni_out.free(self._req)
        req = self._req = self.cluster.net.router.request()
        req.callbacks.append(self._route_out_held)

    def _route_out_held(self, _e) -> None:  # simlint: hotpath
        self.env.call_later(self.hw.route_time(self.size_kb), self._route_out_done)

    def _route_out_done(self, _e) -> None:  # simlint: hotpath
        if self.ended:
            return
        self.cluster.net.router.free(self._req)
        self._close_connection()
        _breaker_success(self.cluster, self.decision.target)
        self._end()
        if self.on_done is not None:
            was_miss = self.service_node.cache.misses > self.misses_before
            self.on_done(self.index, self.start, self.decision.forwarded, was_miss)


def start_fast_request(
    cluster: Cluster,
    policy: DistributionPolicy,
    index: int,
    file_id: int,
    size_bytes: int,
    on_done: Optional[Callable[[int, float, bool, bool], None]] = None,
    on_failed: Optional[Callable[[int], None]] = None,
) -> _FastRequest:
    """Launch one client request; returns its chain.

    ``on_done(index, start_time, forwarded, was_miss)`` is invoked after
    the reply has fully left the cluster.  If a node involved crashes
    mid-flight, or the caller cancels the chain (client timeout), the
    request aborts and ``on_failed(index)`` fires instead; without an
    ``on_failed`` handler the abort raises :class:`NodeFailedError` out
    of the event loop.
    """
    return _FastRequest(
        cluster, policy, index, file_id, size_bytes, on_done, on_failed
    )
