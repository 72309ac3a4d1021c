"""Persistent-connection (HTTP/1.1) simulation.

Extends the paper's HTTP/1.0 evaluation to keep-alive connections, the
regime its Section 4 defers to Aron et al.:

* **L2S / traditional / round-robin / consistent hashing** — the
  connection lives on one node at a time; each request is decided at the
  node currently holding it, and a differing target *migrates* the
  connection (one hand-off message + forwarding CPU work).  Mean
  connection length 1 reduces exactly to the HTTP/1.0 lifecycle.
* **LARD** — the front-end decides where a connection lives when it
  arrives (by its first request) and hands it off once; subsequent
  requests still enter through the front-end, which relays them to the
  owning back-end at L4 (NI + message cost, no distribution decision).
  The back-end serves every relayed request locally, so locality decays
  with connection length — the effect that motivated Aron et al.'s
  PHTTP work.

The load metric stays "open connections", so L2S's T/t thresholds and
LARD's view keep their meaning; the closed-loop multiprogramming level
now counts *connections* in flight.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import Cluster, ClusterConfig
from ..cluster.dfs import RemoteFetchFailed
from ..cluster.node import CPU_BULK, CPU_PROMPT
from ..des import Environment, Tally
from ..des.core import URGENT
from ..servers import DistributionPolicy
from ..servers.base import ServiceUnavailable
from ..workload import Trace
from ..workload.sessions import SessionTrace, sessionize
from .results import SimResult

__all__ = ["PersistentSimulation", "run_persistent_simulation"]

#: LARD's front-end node.
FRONT_END = 0


class PersistentSimulation:
    """Closed-loop saturation run over persistent connections."""

    def __init__(
        self,
        sessions: SessionTrace,
        policy: DistributionPolicy,
        config: ClusterConfig,
        passes: int = 2,
    ):
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.sessions = sessions
        self.trace = sessions.trace
        self.policy = policy
        self.config = config
        self.passes = passes

        self.env = Environment()
        self.cluster = Cluster(self.env, config)
        policy.bind(self.cluster, clock=self.env)

        self._conns_per_pass = sessions.num_connections
        self._total_conns = self._conns_per_pass * passes
        self._reqs_per_pass = len(self.trace)
        self._total_reqs = self._reqs_per_pass * passes
        self._warmup_reqs = self._reqs_per_pass * (passes - 1)
        self._next_conn = 0
        self._completed_reqs = 0
        self._completed_conns = 0
        self._measured = 0
        self._measured_migrations = 0
        self._measure_start: Optional[float] = None
        self._last_completion = 0.0
        self._response = Tally()
        #: Per-node measured request completions (per-request, unlike the
        #: nodes' own per-connection counters).
        self._node_requests = [0] * config.nodes

    def _move_connection(self, src: int, dst: int) -> None:
        cluster = self.cluster
        cluster.node(src).connection_closed()
        self.policy.on_connection_change(src)
        # Moving away is not a completed request; undo the per-connection
        # completion tick (per-request counts live in _node_requests).
        cluster.node(src).completed -= 1
        cluster.node(dst).connection_opened()
        self.policy.on_connection_change(dst)

    # -- bookkeeping -------------------------------------------------------------

    def _request_done(self, start: float, migrated: bool, node_id: int) -> None:
        self._completed_reqs += 1
        self._last_completion = self.env.now
        if self._measure_start is not None:
            self._measured += 1
            self._measured_migrations += 1 if migrated else 0
            self._node_requests[node_id] += 1
            self._response.record(self.env.now - start)
        if self._completed_reqs == self._warmup_reqs:
            self._begin_measurement()

    def _connection_done(self) -> None:
        self._completed_conns += 1
        self._spawn_next()

    def _begin_measurement(self) -> None:
        self._measure_start = self.env.now
        self.cluster.reset_accounting()
        self.policy.reset_stats()
        self._response.reset()
        self._node_requests = [0] * self.config.nodes

    def _spawn_next(self) -> bool:
        i = self._next_conn
        if i >= self._total_conns:
            return False
        self._next_conn += 1
        _Connection(self, i)
        return True

    # -- run ------------------------------------------------------------------------

    def run(self) -> SimResult:
        if self._warmup_reqs == 0:
            self._begin_measurement()
        mpl = self.config.multiprogramming_per_node * self.config.nodes
        for _ in range(min(mpl, self._total_conns)):
            self._spawn_next()
        self.env.run()

        if self._completed_reqs != self._total_reqs:
            raise RuntimeError(
                f"simulation ended early: {self._completed_reqs}/"
                f"{self._total_reqs} requests"
            )
        assert self._measure_start is not None
        elapsed = self._last_completion - self._measure_start
        if elapsed <= 0:
            raise RuntimeError("measurement window is empty")

        cluster = self.cluster
        return SimResult(
            policy=self.policy.name,
            trace=self.trace.name,
            nodes=self.config.nodes,
            cache_bytes=self.config.cache_bytes,
            requests_measured=self._measured,
            requests_warmup=self._warmup_reqs,
            sim_seconds=elapsed,
            throughput_rps=self._measured / elapsed,
            miss_rate=cluster.overall_miss_rate(),
            forwarded_fraction=(
                self._measured_migrations / self._measured if self._measured else 0.0
            ),
            cpu_utilizations=[n.cpu_utilization(elapsed) for n in cluster.nodes],
            mean_response_s=self._response.mean,
            messages_per_request=(
                cluster.net.messages_sent / self._measured if self._measured else 0.0
            ),
            node_completions=list(self._node_requests),
            policy_stats=self.policy.stats(),
        )


class _Connection:
    """One persistent connection as a callback chain.

    Loops over the connection's requests; each walks router, entry
    NI-in, parse (and decide, or relay), an optional hand-off, fetch,
    reply, NI-out and router, holding one station at a time.
    """

    def __init__(self, sim: PersistentSimulation, conn_index: int):
        self.sim = sim
        self.cluster = sim.cluster
        self.policy = sim.policy
        self.hw = sim.config.hardware
        self.ids = sim.trace.file_ids
        self.sizes = sim.trace.fileset.sizes
        self.index = conn_index
        k = conn_index % sim._conns_per_pass
        self.r, self.last = sim.sessions.connection_span(k)
        self.is_lard = self.policy.name == "lard" and self.cluster.num_nodes > 1
        #: LARD: the back-end holding the connection once handed off.
        self.owner: Optional[int] = None
        sim.env.call_later(0.0, self._open, priority=URGENT)

    def _cpu(self, node_id: int, seconds: float, then, priority=CPU_PROMPT):
        self.cluster.node(node_id).cpu.hold(seconds, then, priority)

    def _open(self) -> None:
        current = self.policy.initial_node(self.index, int(self.ids[self.r]))
        self.current = current
        self.entry = current  # where client packets enter (LARD: front-end)
        self.cluster.node(current).connection_opened()
        self.policy.on_connection_change(current)
        self._next_request()

    def _next_request(self) -> None:
        if self.r >= self.last:
            self._close()
            return
        self.fid = int(self.ids[self.r])
        self.r += 1
        self.size_kb = int(self.sizes[self.fid]) / 1024.0
        self.start = self.sim.env.now
        self.migrated = False
        # The request reaches the entry node.
        hw = self.hw
        self.cluster.net.router.hold(
            hw.route_time(hw.request_kb),
            lambda: self.cluster.node(self.entry).ni_in.hold(
                hw.ni_message_time(hw.request_kb), self._arrived
            ),
        )

    def _arrived(self) -> None:
        hw = self.hw
        if not self.is_lard:
            self._cpu(self.current, hw.parse_time(), self._decide)
        elif self.owner is None:
            # First request: the front-end parses and decides.
            self._cpu(FRONT_END, hw.parse_time(), self._lard_decide)
        else:
            # Relay: L4 forward through the front-end, no distribution
            # decision.
            self._cpu(FRONT_END, self.sim.config.cpu_msg_overhead_s, self._relay)

    def _lard_decide(self) -> None:
        self.owner = self.policy.decide(FRONT_END, self.fid).target
        self._hand_off(FRONT_END, self.owner)

    def _relay(self) -> None:
        self._send(
            FRONT_END,
            self.owner,
            "relay",
            lambda: self._cpu(self.owner, self.hw.parse_time(), self._fetch),
        )

    def _decide(self) -> None:
        if self.policy.async_decide:
            self.policy.decide_cb(
                self.current, self.fid, self._decided, self._undecided
            )
        else:
            self._decided(self.policy.decide(self.current, self.fid))

    def _undecided(self) -> None:
        raise ServiceUnavailable("dispatcher round-trip failed")

    def _decided(self, decision) -> None:
        if decision.target == self.current:
            self._fetch()
        else:
            self._hand_off(self.current, decision.target)

    def _hand_off(self, src: int, dst: int) -> None:
        """Forwarding CPU work, the hand-off message, and the move."""

        def moved() -> None:
            self.sim._move_connection(src, dst)
            self.current = dst
            if not self.is_lard:
                self.entry = dst
            self.migrated = True
            self._fetch()

        self.cluster.node(src).forwarded += 1
        self._cpu(
            src, self.hw.forward_time(), lambda: self._send(src, dst, "handoff", moved)
        )

    def _send(self, src: int, dst: int, kind: str, then) -> None:
        """A request-sized message the connection waits on (a drop is
        not modelled here: either outcome continues)."""
        self.cluster.net.send_message_inline(
            src, dst, self.hw.request_kb, kind, None, then, then
        )

    def _fetch(self) -> None:
        if self.cluster.node(self.current).cache.lookup(self.fid):
            self._reply()
            return
        self.cluster.dfs.read_cb(
            self.current,
            self.fid,
            self.size_kb,
            self._read_disk,
            self._fetched,
            self._fetch_failed,
        )

    def _fetch_failed(self) -> None:
        raise RemoteFetchFailed(self.current, self.cluster.dfs.home_of(self.fid))

    def _read_disk(self) -> None:
        self.cluster.node(self.current).disk.hold(
            self.hw.disk_time(self.size_kb), self._fetched
        )

    def _fetched(self) -> None:
        size_bytes = int(self.sizes[self.fid])
        self.cluster.node(self.current).cache.insert(self.fid, size_bytes)
        self._reply()

    def _reply(self) -> None:
        hw = self.hw
        size_kb = self.size_kb
        net = self.cluster.net
        ni_out = self.cluster.node(self.current).ni_out
        self._cpu(
            self.current,
            hw.reply_time(size_kb),
            lambda: ni_out.hold(
                hw.ni_reply_time(size_kb),
                lambda: net.router.hold(hw.route_time(size_kb), self._replied),
            ),
            CPU_BULK,
        )

    def _replied(self) -> None:
        self.policy.on_complete(self.current, self.fid)
        self.sim._request_done(self.start, self.migrated, self.current)
        self._next_request()

    def _close(self) -> None:
        current = self.current
        self.cluster.node(current).connection_closed()
        self.policy.on_connection_change(current)
        self.policy.on_connection_end(current)
        self.sim._connection_done()


def run_persistent_simulation(
    trace: Trace,
    policy: DistributionPolicy,
    nodes: int = 16,
    mean_requests_per_connection: float = 4.0,
    cache_bytes: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    passes: int = 2,
    seed: int = 0,
) -> SimResult:
    """One persistent-connection run (see :class:`PersistentSimulation`)."""
    from .runner import DEFAULT_SIM_CACHE_BYTES

    if config is None:
        config = ClusterConfig(
            nodes=nodes,
            cache_bytes=cache_bytes if cache_bytes is not None else DEFAULT_SIM_CACHE_BYTES,
        )
    sessions = sessionize(trace, mean_requests_per_connection, seed=seed)
    sim = PersistentSimulation(sessions, policy, config, passes=passes)
    return sim.run()
