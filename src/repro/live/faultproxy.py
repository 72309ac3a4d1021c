"""Live fault injection: chaos proxies, health probes, and the injector.

This is the live twin of :mod:`repro.faults`/:mod:`repro.netfaults`,
executing the *same* serializable :class:`~repro.chaos.spec.Scenario`
plan against a real cluster of worker subprocesses:

* :class:`ChaosProxy` — a tiny HTTP proxy interposed in front of each
  back-end.  The front-end and the health prober talk to the proxy
  port (which never changes), the proxy talks to whichever worker
  incarnation currently backs the node.  Netfaults live here, judged
  per request so pooled keep-alive connections see them too:
  ``link_down`` severs carried connections and refuses new ones,
  ``loss`` severs the connection before a seeded fraction of requests
  is forwarded, and ``delay``/``jitter`` hold each request back — the
  stream analog of the sim's per-message perturbation.

* :class:`HealthMonitor` — mark-down/mark-up state per node, fed by
  periodic ``GET /health`` probes (through the proxy, so it sees what
  clients see) and by passive suspicion from the front-end's request
  failures.  Only state *transitions* reach the policy, via
  ``engine.fail_node``/``recover_node`` — the same membership hooks
  the sim's :class:`~repro.faults.injector.FaultInjector` fires.  A
  changed incarnation on a node never observed down forces a
  fail/recover cycle so policies flush per-node state exactly as they
  do for a sim crash-reboot.

* :class:`LiveFaultInjector` — executes the scenario's
  :meth:`~repro.chaos.spec.Scenario.live_schedule` actions
  (kill/respawn via SIGKILL + fresh incarnation, suspend/resume via
  SIGSTOP/SIGCONT, link down/up via the proxies) when the *loadtest
  progress fraction* crosses each action's trigger point.  Progress
  fractions, not wall seconds: the sim and live runs then perturb the
  same fraction of the workload, which is what makes their
  availability numbers comparable.

* :class:`ResilienceConfig` — the front-end's resilience knobs.  The
  retry budget and capped-exponential backoff are the sim client's
  :class:`~repro.faults.schedule.RetryPolicy` class, so live retries
  follow the sim's re-issue schedule by construction rather than by
  keeping two sets of constants in sync.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..faults.schedule import RetryPolicy
from . import http11
from .clock import Deadline

__all__ = [
    "ChaosProxy",
    "HealthMonitor",
    "LiveFaultInjector",
    "ResilienceConfig",
]

#: Per-probe timeout of the health monitor (seconds).
_PROBE_TIMEOUT_S = 1.0
#: Admission shedding floor: with fewer healthy back-ends than this, new
#: requests are shed with ``X-Shed: 1`` instead of queued onto a cluster
#: that cannot serve them.
MIN_HEALTHY = 1


@dataclass
class ResilienceConfig:
    """Front-end resilience knobs (live twin of the sim's fault knobs)."""

    #: Retry budget + capped-exponential backoff, shared *class* with the
    #: sim driver so live retries follow the sim client's schedule.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-attempt back-end fetch timeout at the front-end.
    request_timeout_s: float = 10.0
    #: Seconds between health-probe sweeps.
    probe_interval_s: float = 0.2
    #: Consecutive probe failures before an up node is marked down.
    fail_threshold: int = 2

    def __post_init__(self) -> None:
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")


class ChaosProxy(http11.Server):
    """HTTP proxy in front of one back-end: stable port, injected faults.

    The proxy is the node's *address* for the rest of the system; a
    respawned worker gets a fresh ephemeral port, and
    :meth:`set_upstream` repoints the proxy without the front-end ever
    learning about it — exactly how a sim node keeps its id across an
    incarnation bump.

    Faults are judged per *request*, not per connection, so pooled
    keep-alive hops see the same fault rates as one-shot connections:
    the proxy is an :class:`~repro.live.http11.Server`, each request is
    framed by its parser, ``loss`` severs the connection before
    forwarding it, and ``delay``/``jitter`` hold it back (both draws are
    made as the request arrives, so they follow arrival order).
    Requests go upstream over the proxy's own
    :class:`~repro.live.http11.ConnectionPool`.  Setting
    :attr:`link_down` severs every carried connection and refuses new
    ones.
    """

    def __init__(
        self,
        node_id: int,
        upstream_port: int,
        host: str = "127.0.0.1",
        seed: int = 0,
        loss: float = 0.0,
        delay_s: float = 0.0,
        jitter_s: float = 0.0,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        if delay_s < 0 or jitter_s < 0:
            raise ValueError("delay_s/jitter_s must be >= 0")
        self.node_id = node_id
        self.host = host
        self.upstream_port = upstream_port
        self.loss = loss
        self.delay_s = delay_s
        self.jitter_s = jitter_s
        self._link_down = False
        # Seeded per-proxy: fault decisions replay for a fixed seed and
        # request order (REP001 — no unseeded RNG, even live).
        self._rng = random.Random((seed << 8) ^ node_id)
        #: Connections being carried (a dict for its deterministic order).
        self._carried: Dict[http11.ServerConnection, None] = {}
        self._upstream = http11.ConnectionPool(host)
        self.connections = 0
        self.requests = 0
        self.refused = 0
        self.dropped = 0
        self.delay_injected_s = 0.0

    @property
    def link_down(self) -> bool:
        """While True, inbound connections are refused (link_out).

        Setting it severs every connection the proxy carries.
        """
        return self._link_down

    @link_down.setter
    def link_down(self, down: bool) -> None:
        self._link_down = down
        if down:
            self._sever()

    def set_upstream(self, port: int) -> None:
        self.upstream_port = port

    async def stop(self) -> None:
        self._sever()
        self._upstream.close()
        await self._stop_listening()

    def stats(self) -> Dict[str, Any]:
        return {
            "node": self.node_id,
            "connections": self.connections,
            "requests": self.requests,
            "refused": self.refused,
            "dropped": self.dropped,
            "delay_injected_s": self.delay_injected_s,
        }

    def _sever(self) -> None:
        """Cut every carried connection; :meth:`closed` then drops it."""
        for connection in self._carried:
            connection.transport.abort()

    # -- connection handling ------------------------------------------------

    def opened(self, connection: http11.ServerConnection) -> None:
        self.connections += 1
        if self._link_down:
            self.refused += 1
            connection.transport.close()
        else:
            self._carried[connection] = None

    def closed(self, connection: http11.ServerConnection) -> None:
        self._carried.pop(connection, None)
        if connection.task is not None:
            connection.task.cancel()

    def received(
        self, connection: http11.ServerConnection, request: http11.Request
    ) -> None:
        if self._link_down:
            connection.fail()
            return
        self.requests += 1
        if self.loss > 0.0 and self._rng.random() < self.loss:
            # Sever before the request is forwarded: the client sees the
            # connection close with no response, the message-loss analog
            # for a stream.
            self.dropped += 1
            connection.fail()
            return
        delay = self.delay_s
        if self.jitter_s > 0.0:
            delay += self._rng.random() * self.jitter_s
        self.delay_injected_s += delay
        connection.spawn(self._forward(connection, request, delay))

    async def _forward(
        self,
        connection: http11.ServerConnection,
        request: http11.Request,
        delay: float,
    ) -> None:
        if delay > 0.0:
            await asyncio.sleep(delay)
        try:
            # The worker behind the node now: a respawn repoints it.
            response = await self._upstream.request(
                self.upstream_port, request.encode()
            )
        except ConnectionRefusedError:
            self.refused += 1
            connection.fail()
            return
        except (OSError, http11.HTTPError):
            connection.fail()
            return
        connection.reply(
            response.encode(), request.keep_alive and response.keep_alive
        )


class HealthMonitor:
    """Per-node up/down state feeding the policy's membership hooks.

    Two information sources, one state machine:

    * **passive** — :meth:`suspect` from the front-end when a request to
      the node dies on a transport error.  One strike marks the node
      down immediately (a failed *request* is stronger evidence than a
      failed probe, and the sim's injector likewise fails the node at
      the crash instant, not a probe interval later).
    * **active** — the :meth:`run` sweep probes every node's ``/health``
      through its public (proxy) address.  ``fail_threshold``
      consecutive failures mark an up node down; a single success marks
      a down node back up and resets the strike count.

    Only transitions call into the engine, and the engine's own
    idempotency guard makes stray duplicate calls harmless.
    """

    def __init__(
        self,
        engine,
        ports: List[int],
        host: str = "127.0.0.1",
        config: Optional[ResilienceConfig] = None,
    ) -> None:
        self.engine = engine
        #: Shared, live-updated list of probe addresses (proxy ports in
        #: chaos mode, so probes traverse the same faults clients do).
        self.ports = ports
        self.host = host
        self.config = config or ResilienceConfig()
        n = len(ports)
        self._up = [True] * n
        self._fails = [0] * n
        self._incarnation: List[Optional[int]] = [None] * n
        self._task: Optional[asyncio.Task] = None
        self.markdowns = 0
        self.markups = 0
        self.incarnation_flips = 0
        self.probes = 0
        self.probe_failures = 0

    # -- state queries -------------------------------------------------------

    def is_up(self, node: int) -> bool:
        return self._up[node]

    def healthy_count(self) -> int:
        return sum(self._up)

    def stats(self) -> Dict[str, int]:
        return {
            "markdowns": self.markdowns,
            "markups": self.markups,
            "incarnation_flips": self.incarnation_flips,
            "probes": self.probes,
            "probe_failures": self.probe_failures,
        }

    # -- transitions ---------------------------------------------------------

    def suspect(self, node: int) -> None:
        """Passive mark-down: a live request to ``node`` just failed."""
        if self._up[node]:
            self._mark_down(node)

    def _mark_down(self, node: int) -> None:
        self._up[node] = False
        self.markdowns += 1
        self.engine.fail_node(node)

    def _mark_up(self, node: int) -> None:
        self._up[node] = True
        self._fails[node] = 0
        self.markups += 1
        self.engine.recover_node(node)

    def note_incarnation(self, node: int, incarnation: int) -> None:
        """A probe reported ``incarnation`` for ``node``.

        A bump on a node we never observed down means the worker died
        and respawned between sweeps: policies still hold state for the
        dead incarnation (LARD server sets, cached load views), so force
        the same fail/recover cycle a sim crash-reboot produces.
        """
        seen = self._incarnation[node]
        self._incarnation[node] = incarnation
        if seen is None or seen == incarnation:
            return
        self.incarnation_flips += 1
        if self._up[node]:
            self.engine.fail_node(node)
            self.engine.recover_node(node)

    # -- probing -------------------------------------------------------------

    def start(self) -> None:
        assert self._task is None, "monitor already started"
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            await self.probe_all()
            await asyncio.sleep(self.config.probe_interval_s)

    async def probe_all(self) -> None:
        for node in range(len(self.ports)):
            await self._probe(node)

    async def _probe(self, node: int) -> None:
        self.probes += 1
        try:
            # A deadline, not ``wait_for``: on 3.11 ``wait_for`` drops a
            # cancellation that lands as the probe completes, and then
            # :meth:`stop` never returns.
            with Deadline(_PROBE_TIMEOUT_S):
                payload = await self._fetch_health(node)
        except (OSError, http11.HTTPError, asyncio.TimeoutError, ValueError):
            self.probe_failures += 1
            self._fails[node] += 1
            if self._up[node] and self._fails[node] >= self.config.fail_threshold:
                self._mark_down(node)
            return
        self._fails[node] = 0
        self.note_incarnation(node, int(payload.get("incarnation", 0)))
        if not self._up[node]:
            self._mark_up(node)

    async def _fetch_health(self, node: int) -> Dict[str, Any]:
        # A fresh connection per probe: the probe tests that the node
        # accepts connections.
        response = await http11.roundtrip(
            self.host, self.ports[node], "GET", "/health"
        )
        if response.status != 200:
            raise http11.HTTPError(f"health probe status {response.status}")
        return json.loads(response.body)


class LiveFaultInjector:
    """Executes a scenario's live actions against the running cluster.

    The schedule is :meth:`Scenario.live_schedule` output: ``(frac,
    action, params)`` triples where ``frac`` is a fraction of the run.
    The injector polls a progress callable (requests finished / total)
    and fires every action whose trigger the progress has crossed, in
    schedule order.  :meth:`finish` forces any stragglers (e.g. a
    recovery scheduled at the very end of the horizon) so a run never
    leaks a suspended or link-downed node past its own teardown.
    """

    def __init__(
        self,
        cluster,
        schedule: List[Tuple[float, str, Dict[str, Any]]],
        progress: Callable[[], float],
        poll_interval_s: float = 0.02,
        on_event: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.cluster = cluster
        self._pending = sorted(schedule, key=lambda a: a[0])
        self._progress = progress
        self.poll_interval_s = poll_interval_s
        self._on_event = on_event
        self._force = False
        self._task: Optional[asyncio.Task] = None
        #: Actions actually executed, in order: (frac, action, node).
        self.executed: List[Tuple[float, str, int]] = []

    @property
    def done(self) -> bool:
        return not self._pending

    def start(self) -> None:
        assert self._task is None, "injector already started"
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def finish(self, timeout_s: float = 30.0) -> None:
        """Execute any remaining actions immediately, then stop."""
        if self._task is None:
            return
        self._force = True
        try:
            await asyncio.wait_for(self._task, timeout=timeout_s)
        except asyncio.TimeoutError:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        self._task = None

    async def stop(self) -> None:
        """Cancel without executing stragglers (error-path teardown)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while self._pending:
            frac = 1.0 if self._force else self._progress()
            while self._pending and self._pending[0][0] <= frac:
                trigger, action, params = self._pending.pop(0)
                await self._execute(trigger, action, params)
            if self._pending:
                await asyncio.sleep(self.poll_interval_s)

    async def _execute(
        self, trigger: float, action: str, params: Dict[str, Any]
    ) -> None:
        node = int(params["node"])
        if action == "kill":
            await self.cluster.kill_backend(node)
        elif action == "respawn":
            await self.cluster.respawn_backend(node)
        elif action == "suspend":
            self.cluster.suspend_backend(node)
        elif action == "resume":
            self.cluster.resume_backend(node)
        elif action == "link_down":
            self.cluster.proxies[node].link_down = True
        elif action == "link_up":
            self.cluster.proxies[node].link_down = False
        else:
            raise ValueError(f"unknown live action {action!r}")
        self.executed.append((trigger, action, node))
        if self._on_event is not None:
            self._on_event(action, node)
