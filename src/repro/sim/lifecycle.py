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

A chain is one client *connection*: under HTTP/1.0 it carries one
request, under persistent connections (HTTP/1.1, a
:class:`~repro.workload.SessionTrace`) several.  When a reply leaves the
router the connection's next request enters at the node holding it, or
the connection closes.  An L2S-style policy decides each request at the
holding node and *migrates* the connection with the same forward +
hand-off as a first request; a ``decide_once`` policy (LARD) decides the
first request only and relays the rest from the accepting node to the
holding one (message CPU work plus a ``"relay"`` message, then the parse
at the holder).  A one-request connection runs exactly the HTTP/1.0
chain.

Failure semantics (fault-injection runs): a node involved in the
request crashing aborts the request at the next stage boundary.  The
check is *incarnation-aware* — a request that started against a node
which crashed and already recovered still aborts, because its
connection died with the old incarnation.  A client-side timeout (the
driver cancels the request's chain) aborts at once: the request leaves
the station queue it waits in, or frees the station it holds.  Aborts
fire ``on_failed(pos)`` and end the connection; the driver decides
whether to retry.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..cluster import Cluster
from ..cluster.node import CPU_BULK, CPU_PROMPT
from ..des.core import URGENT
from ..servers import DistributionPolicy
from ..servers.base import Decision, ServiceUnavailable

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


class _Rest:
    """What a connection needs for its requests after the current one.

    The connection carries requests up to ``last - 1`` of the arrival
    sequence ``ids`` (file sizes in ``sizes``).  ``timer`` is the
    current request's client timeout, re-armed for each request when
    ``timeout_s`` is set; ``relaying`` is True once a ``decide_once``
    policy's accepting node relays the requests to another node.
    """

    __slots__ = ("last", "ids", "sizes", "timeout_s", "timer", "relaying")

    def __init__(self, last: int, ids: Any, sizes: Any, timeout_s: Optional[float]):
        self.last = last
        self.ids = ids
        self.sizes = sizes
        self.timeout_s = timeout_s
        self.timer: Any = None
        self.relaying = False


class _FastRequest:
    """One client connection as a callback chain.

    Each request walks the stage sequence — router, NI-in, parse,
    decide, (forward + hand-off), connection open, fetch, reply, NI-out,
    router — with the incarnation-aware abort checks at the stage
    boundaries, driven by event callbacks: no generator process, and one
    kernel event — the completion — per station visit.

    Connection ``index`` (what ``policy.initial_node`` sees) carries
    requests ``pos .. last - 1`` of the arrival sequence; request ``p``
    asks for file ``ids[p]`` of ``sizes[ids[p]]`` bytes, and a request
    after the first enters at the node holding the connection (see the
    module docstring).  ``on_done(p, start, forwarded, was_miss)`` fires
    when request ``p``'s reply has left the cluster and the connection
    has closed; when the connection stays open for its next request it
    fires with a fifth argument, ``False`` (the connection is not
    closed).  ``on_failed(p)`` fires when request ``p`` aborts, which
    ends the connection (without a handler the abort raises
    :class:`NodeFailedError`).  ``timeout_s`` is the client's timeout on
    each request, or None.  ``rest`` keeps what the later requests need;
    a one-request connection has none.

    A stage visits at most one station, ``_at``; ``_visit`` is the
    visit's entry (what ``Resource.visit`` returned): queued while it
    waits there, the scheduled completion once it holds the station.
    While the chain waits on anything else (the hand-off, a relay, a
    dispatcher round-trip, a remote DFS read) ``_at`` is None.
    :meth:`cancel` hands ``_visit`` to ``Resource.withdraw``, which
    leaves the queue or frees the station at once and drops the
    completion, so no station stage runs after a cancel; every other
    later callback of the chain sees ``ended`` and does nothing.
    Messages the request already sent, and work it handed to other
    nodes (a dispatcher's decision, a DFS home's disk read), run to
    their end regardless.
    """

    __slots__ = (
        "cluster",
        "policy",
        "index",
        "pos",
        "rest",
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
        "_at",
        "_visit",
        "_san_tok",
    )

    def __init__(
        self,
        cluster: Cluster,
        policy: DistributionPolicy,
        index: int,
        pos: int,
        last: int,
        ids: Any,
        sizes: Any,
        on_done: Optional[Callable[..., None]],
        on_failed: Optional[Callable[[int], None]],
        timeout_s: Optional[float],
    ):
        self.cluster = cluster
        self.policy = policy
        self.index = index
        self.pos = pos
        self.rest = None if last == pos + 1 else _Rest(last, ids, sizes, timeout_s)
        self.file_id = file_id = int(ids[pos])
        self.size_bytes = int(sizes[file_id])
        self.size_kb = self.size_bytes / 1024.0
        self.on_done = on_done
        self.on_failed = on_failed
        self.env = cluster.env
        self.hw = cluster.config.hardware
        self.initial: Optional[int] = None
        self.opened = False
        self.ended = False
        self.redispatched = 0
        self._at = None
        self._visit = None
        # Sanitized runs track each chain as one in-flight operation so
        # a stalled request (no pending event to leak) is still reported.
        san = self.env._san
        self._san_tok = None if san is None else san.op_begin(
            "fast-request", f"request #{index}, file {file_id}"
        )
        # The urgent zero-delay kick runs the first stage before any
        # ordinary event at this instant.
        self.env.call_later(0.0, self._start, priority=URGENT)
        if timeout_s is not None:
            # The client timeout: the client gives up on the request,
            # which aborts into the normal failure path (a no-op once the
            # request has completed or failed on its own).
            timer = self.env.call_later(timeout_s, self.cancel)
            if self.rest is not None:
                self.rest.timer = timer

    def cancel(self) -> None:
        """Abort the current request now (a client timeout).

        At an urgent zero-delay event the request leaves the station
        queue it waits in, or frees the station it holds, closes its
        connection if one is open, and fails like any other abort
        (``on_failed``; no breaker is fed).  A no-op once it has ended.
        """
        if not self.ended:
            self.env.call_later(0.0, self._cancelled, priority=URGENT)

    def _cancelled(self) -> None:  # simlint: hotpath
        if self.ended:
            return
        station = self._at
        if station is not None:
            visit = self._visit
            self._at = self._visit = None
            station.withdraw(visit)
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
        """End the connection: close it where it is open, then fail the
        current request."""
        if self.opened:
            self._close_connection()
        self._end()
        if self.initial is not None:
            # Give dispatcher-style policies a chance to balance their
            # assignment counters for requests that never reached (or
            # never finished at) a service node.
            self.policy.on_request_aborted(self.initial, self.opened)
        if self.on_failed is None:
            raise NodeFailedError(self.initial if self.initial is not None else -1)
        self.on_failed(self.pos)

    def _close_connection(self) -> None:
        """The connection closes at (or migrates away from) its node.

        No request completes here: a served request is counted where
        its reply leaves (:meth:`_route_out_done`, :meth:`_keep_alive`),
        and an aborted one is not counted at all.
        """
        node = self.service_node
        node.connection_closed()
        policy = self.policy
        policy.on_connection_change(node.id)
        policy.on_connection_end(node.id)

    # -- inbound -----------------------------------------------------------

    def _start(self) -> None:  # simlint: hotpath
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
        station = self._at = self.cluster.net.router
        self._visit = station.visit(
            self.hw.route_time(self.hw.request_kb), self._route_in_done
        )

    def _next_request(self) -> None:  # simlint: hotpath
        """The connection's next request enters at the node holding it."""
        rest = self.rest
        self.pos = pos = self.pos + 1
        self.file_id = file_id = int(rest.ids[pos])
        self.size_bytes = int(rest.sizes[file_id])
        self.size_kb = self.size_bytes / 1024.0
        self.redispatched = 0
        self.start = self.env.now
        if rest.timeout_s is not None:
            # The finished request's timeout no longer applies.
            rest.timer[3] = _noop
            rest.timer = self.env.call_later(rest.timeout_s, self.cancel)
        node = self.service_node
        if self.policy.decide_once:
            # Later requests keep entering at the accepting node, which
            # relays them to the holder without a decision.
            rest.relaying = node is not self.initial_node
            if self.decision.forwarded:
                self.decision = Decision(target=node.id, forwarded=False)
        else:
            self.initial = node.id
            self.initial_node = node
            self.initial_inc = self.service_inc
        station = self._at = self.cluster.net.router
        self._visit = station.visit(
            self.hw.route_time(self.hw.request_kb), self._route_in_done
        )

    def _route_in_done(self) -> None:  # simlint: hotpath
        self.cluster.net.router.release()
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        station = self._at = self.initial_node.ni_in
        self._visit = station.visit(
            self.hw.ni_message_time(self.hw.request_kb), self._ni_in_done
        )

    def _ni_in_done(self) -> None:  # simlint: hotpath
        self.initial_node.ni_in.release()
        station = self._at = self.initial_node.cpu
        if self.opened and self.rest.relaying:
            self._visit = station.visit(
                self.cluster.config.cpu_msg_overhead_s, self._relay_out, CPU_PROMPT
            )
            return
        self._visit = station.visit(
            self.hw.parse_time(), self._parse_done, CPU_PROMPT
        )

    # -- relay (decide_once policies, after the first request) --------------

    def _relay_out(self) -> None:  # simlint: hotpath
        self.initial_node.cpu.release()
        self._at = self._visit = None
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        self.cluster.net.transmit_cb(
            self.initial,
            self.service_node.id,
            self.hw.request_kb,
            "relay",
            self._relayed,
        )

    def _relayed(self, ok: bool) -> None:  # simlint: hotpath
        if self.ended:
            return
        if not ok or self._service_dead():
            _breaker_failure(self.cluster, self.service_node.id)
            self._abort()
            return
        station = self._at = self.service_node.cpu
        self._visit = station.visit(
            self.hw.parse_time(), self._relay_parsed, CPU_PROMPT
        )

    def _relay_parsed(self) -> None:  # simlint: hotpath
        self.service_node.cpu.release()
        self._at = self._visit = None
        self._at_service()

    # -- decide + hand-off -------------------------------------------------

    def _parse_done(self) -> None:  # simlint: hotpath
        self.initial_node.cpu.release()
        self._at = self._visit = None
        if self._initial_dead():
            _breaker_failure(self.cluster, self.initial)
            self._abort()
            return
        if self.opened and self.policy.decide_once:
            # The connection stays where its first request was decided.
            self._at_service()
            return
        self._decide()

    def _decide(self) -> None:
        policy = self.policy
        try:
            if policy.async_decide:
                # Dispatcher-style policies decide through the messaging
                # layer (lard-ng's query round-trip).
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
            station = self._at = node.cpu
            self._visit = station.visit(
                self.hw.forward_time(), self._forward_done, CPU_PROMPT
            )
        else:
            self._at_service()

    def _undecided(self) -> None:
        """No decision (no node can serve, or the dispatcher is
        unreachable): blame the initial node and abort."""
        if self.ended:
            return
        _breaker_failure(self.cluster, self.initial)
        self._abort()

    def _forward_done(self) -> None:  # simlint: hotpath
        self.initial_node.cpu.release()
        self._at = self._visit = None
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
        # fabric) or gives up.  A connection being migrated stays where
        # it is until then.
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
        node = self.cluster.node(target)
        if not self.opened or node is not self.service_node:
            # The connection opens here: the first request's service
            # node, or an L2S-style migration away from its holder.
            if node.failed:
                # Dead on arrival: the hand-off reached a crashed node,
                # so no connection will ever open there and no
                # completion notice will ever acknowledge the
                # decide-time view charge.
                self.policy.on_handoff_failed(self.initial, target)
                _breaker_failure(self.cluster, target)
                self._abort()
                return
            if not _breaker_allows(self.cluster, target):
                # An open circuit breaker (or a spent half-open probe
                # budget): the node sheds the request and the client
                # backs off and retries (the driver's RetryPolicy is the
                # retry-after).  A shed connection never opens, so the
                # view charge rolls back too.
                # Sheds never feed the breakers: counting them as
                # failures would let an overloaded-but-healthy node's
                # breaker trip and then stay open on its own rejections.
                self.policy.on_handoff_failed(self.initial, target)
                self.cluster.note_shed(node)
                self._abort()
                return
            if self.opened:
                self._close_connection()
            self.service_node = node
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
        if not self.ended:
            self._abort()

    def _read_disk(self) -> None:
        if self.ended:
            # A remote read gave up after the request was cancelled.
            return
        station = self._at = self.service_node.disk
        self._visit = station.visit(self.hw.disk_time(self.size_kb), self._disk_done)

    def _disk_done(self) -> None:  # simlint: hotpath
        self.service_node.disk.release()
        self._at = self._visit = None
        self._fetched()

    def _fetched(self) -> None:
        self.service_node.cache.insert(self.file_id, self.size_bytes)
        self._after_fetch()

    def _after_fetch(self) -> None:
        if self._service_dead():
            _breaker_failure(self.cluster, self.decision.target)
            self._abort()
            return
        station = self._at = self.service_node.cpu
        self._visit = station.visit(
            self.hw.reply_time(self.size_kb), self._reply_done, CPU_BULK
        )

    def _reply_done(self) -> None:  # simlint: hotpath
        self.service_node.cpu.release()
        if self._service_dead():
            _breaker_failure(self.cluster, self.decision.target)
            self._abort()
            return
        station = self._at = self.service_node.ni_out
        self._visit = station.visit(
            self.hw.ni_reply_time(self.size_kb), self._ni_out_done
        )

    def _ni_out_done(self) -> None:  # simlint: hotpath
        self.service_node.ni_out.release()
        station = self._at = self.cluster.net.router
        self._visit = station.visit(
            self.hw.route_time(self.size_kb), self._route_out_done
        )

    def _route_out_done(self) -> None:  # simlint: hotpath
        self.cluster.net.router.release()
        self._at = self._visit = None
        if self.rest is not None and self.pos + 1 < self.rest.last:
            self._keep_alive()
            return
        self.service_node.completed += 1
        self._close_connection()
        _breaker_success(self.cluster, self.decision.target)
        self._end()
        if self.on_done is not None:
            was_miss = self.service_node.cache.misses > self.misses_before
            self.on_done(self.pos, self.start, self.decision.forwarded, was_miss)

    def _keep_alive(self) -> None:  # simlint: hotpath
        """The reply left and the connection stays open for its next
        request."""
        node = self.service_node
        node.completed += 1
        _breaker_success(self.cluster, node.id)
        if self.on_done is not None:
            was_miss = node.cache.misses > self.misses_before
            self.on_done(
                self.pos, self.start, self.decision.forwarded, was_miss, False
            )
        self._next_request()


def _noop() -> None:
    """Stands in for a disarmed timeout."""


def start_fast_request(
    cluster: Cluster,
    policy: DistributionPolicy,
    index: int,
    file_id: int,
    size_bytes: int,
    on_done: Optional[Callable[[int, float, bool, bool], None]] = None,
    on_failed: Optional[Callable[[int], None]] = None,
) -> _FastRequest:
    """Launch one HTTP/1.0 client request (a one-request connection);
    returns its chain.

    ``on_done(index, start_time, forwarded, was_miss)`` is invoked after
    the reply has fully left the cluster.  If a node involved crashes
    mid-flight, or the caller cancels the chain (client timeout), the
    request aborts and ``on_failed(index)`` fires instead; without an
    ``on_failed`` handler the abort raises :class:`NodeFailedError` out
    of the event loop.
    """
    ids, sizes = {index: file_id}, {file_id: size_bytes}
    return _FastRequest(
        cluster, policy, index, index, index + 1, ids, sizes, on_done, on_failed, None
    )
