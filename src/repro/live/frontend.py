"""The live front-end: HTTP/1.1 in, PolicyEngine routing, back-ends out.

The front-end is an :class:`~repro.live.http11.Server`: each client
request (``GET /f/<fid>``) is parsed in ``data_received`` and served by
one task, which assigns it the next arrival index and asks the
:class:`~repro.live.engine.PolicyEngine` where it goes — the same
``initial_node``/``decide`` calls, in the same order, as the simulator's
request lifecycle.  The response is written with ``transport.write``
and no ``drain()``: a client connection carries one request, so at most
one response is ever buffered on it.

Dispatch mirrors the simulator's hand-off model with real sockets:

* not forwarded — fetch directly from the target back-end;
* forwarded — fetch from the *initial* back-end with an
  ``X-Forward-Port`` header naming the target, so the initial node
  fetches from the target and relays the bytes.  The forwarding work
  and extra hop land on the initial node, the cache work on the target,
  exactly as the sim charges them.

Both hops run over pooled keep-alive connections
(:class:`~repro.live.http11.ConnectionPool`), the live twin of the
paper's messages over already-open connections; client connections stay
one request each.

The engine's ``connection_opened``/``request_completed`` bracketing
reproduces the sim's open-connection accounting, which is what the
fewest-connections and L2S policies feed on.

Resilience (mirrors the sim driver's fault paths — see docs/LIVE.md):

* every back-end fetch runs under a per-attempt deadline
  (:class:`~repro.live.clock.Deadline`: one ``loop.call_at`` timer,
  no extra task);
* a transport failure or timeout aborts the attempt through the sim's
  exact hook order (``handoff_failed`` → ``request_aborted``), tells the
  :class:`~repro.live.faultproxy.HealthMonitor` to suspect the node,
  then **re-routes** the request — a fresh ``route()`` call, so the
  policy redispatches around nodes marked down in the meantime — after
  the :class:`~repro.faults.schedule.RetryPolicy` capped backoff, until
  the retry budget is spent (the sim's client re-issue semantics);
* non-200 responses are terminal, never retried (a logical error is not
  a fault);
* when fewer than ``MIN_HEALTHY`` back-ends are up, new requests are
  shed with a 503 tagged ``X-Shed: 1`` before touching the policy —
  graceful degradation the client accounts as failed *and* shed,
  keeping the ``SimResult`` conservation identity intact.

Overload control (``overload=`` an :class:`~repro.overload.
OverloadControl`, see docs/OVERLOAD.md): the ad-hoc ``MIN_HEALTHY``
shed above is subsumed by the *same* :class:`~repro.overload.
AdmissionController` object model the DES driver uses (health feeds in
as its ``capacity_ok`` input), dispatch attempts pass through the
per-back-end circuit breakers, and completed-request latencies drive
the adaptive concurrency limit — byte-identical control logic on both
substrates, only the clock and transport differ.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from ..servers import ServiceUnavailable
from . import http11
from .clock import Deadline
from .engine import PolicyEngine, RouteOutcome
from .faultproxy import MIN_HEALTHY, HealthMonitor, ResilienceConfig

__all__ = ["FrontEnd"]


class FrontEnd(http11.Server):
    """Accepts client requests and routes them through the engine."""

    def __init__(
        self,
        engine: PolicyEngine,
        backend_ports: List[int],
        host: str = "127.0.0.1",
        monitor: Optional[HealthMonitor] = None,
        resilience: Optional[ResilienceConfig] = None,
        overload=None,
    ) -> None:
        if len(backend_ports) != engine.num_nodes:
            raise ValueError(
                f"engine expects {engine.num_nodes} nodes, "
                f"got {len(backend_ports)} backend ports"
            )
        self.engine = engine
        self.backend_ports = list(backend_ports)
        self.host = host
        self.monitor = monitor
        self.resilience = resilience or ResilienceConfig()
        #: :class:`~repro.overload.OverloadControl` for this run, or
        #: ``None``.  The *same object model* the DES driver wires in:
        #: the admission controller replaces the ad-hoc ``MIN_HEALTHY``
        #: shed (which feeds in as its ``capacity_ok`` input), and the
        #: breaker board gates dispatch attempts and steers routing.
        self.overload = overload
        if overload is not None and overload.breakers is not None:
            engine.policy.attach_breakers(overload.breakers)
        #: Optional timeline instrument; when set, retries are recorded
        #: onto it (completions/failures are recorded client-side).
        self.timeline = None
        self._arrival = 0
        #: Keep-alive connections to the back-ends.
        self.pool = http11.ConnectionPool(host)
        self.requests = 0
        self.completed = 0
        self.failed = 0
        self.handoffs = 0
        # Run-wide resilience counters (NOT zeroed at the warmup
        # boundary — the sim's requests_retried/requests_shed are
        # likewise whole-run totals).
        self.retried = 0
        self.shed = 0
        self.timeouts = 0

    async def stop(self) -> None:
        self.pool.close()
        await self._stop_listening()

    def reset_meters(self) -> None:
        """Warmup boundary: zero front-end counters (arrival index keeps
        counting — the policies' round-robin state must not rewind; the
        retried/shed/timeouts totals stay run-wide like the sim's)."""
        self.requests = 0
        self.completed = 0
        self.failed = 0
        self.handoffs = 0

    # -- client connection handling ---------------------------------------

    def received(
        self, connection: http11.ServerConnection, request: http11.Request
    ) -> None:
        connection.spawn(self._respond(connection, request))

    async def _respond(
        self, connection: http11.ServerConnection, request: http11.Request
    ) -> None:
        try:
            response = await self._serve(request)
        except BaseException:
            connection.fail()
            raise
        connection.reply(response, keep_alive=False)

    async def _serve(self, request: http11.Request) -> bytes:
        if request.method != "GET" or not request.path.startswith("/f/"):
            return http11.render_response(404, b"not found")
        try:
            fid = int(request.path[len("/f/"):])
        except ValueError:
            return http11.render_response(400, b"bad file id")
        index = self._arrival
        self._arrival += 1
        self.requests += 1
        healthy_ok = not (
            self.monitor is not None
            and self.monitor.healthy_count() < MIN_HEALTHY
        )
        admission = self.overload.admission if self.overload is not None else None
        if admission is None:
            if not healthy_ok:
                # Admission shedding (ad-hoc form, no OverloadControl
                # attached): the cluster cannot serve anything useful,
                # so reject up front instead of queueing the request
                # onto dead back-ends.  The client counts this as failed
                # (conservation) and shed (the graceful-degradation
                # sub-counter), same split as the sim's admission control.
                self.shed += 1
                self.failed += 1
                return http11.render_response(
                    503, b"shedding load", {"X-Shed": "1"}
                )
            _, response = await self._dispatch(index, fid)
            return response
        # Unified admission control: the identical AdmissionController
        # object model the DES driver gates its front door with (see
        # docs/OVERLOAD.md).  The MIN_HEALTHY health check feeds in as
        # capacity_ok so "cluster cannot serve" sheds flow through the
        # same books as queue-full and deadline sheds.
        verdict = admission.try_admit(
            self.engine.clock.now, capacity_ok=healthy_ok
        )
        if not verdict.admitted:
            self.shed += 1
            self.failed += 1
            return http11.render_response(
                503, b"shedding load", {"X-Shed": "1"}
            )
        start = self.engine.clock.now
        ok = False
        try:
            ok, response = await self._dispatch(index, fid)
            return response
        finally:
            # Always release the admission slot (even on cancellation);
            # only a completed request's latency feeds the limiter.
            end = self.engine.clock.now
            admission.release(end, (end - start) if ok else None)

    async def _dispatch(self, index: int, fid: int) -> Tuple[bool, bytes]:
        """Route + fetch with retries; True iff a 200 completed."""
        breakers = self.overload.breakers if self.overload is not None else None
        retry = self.resilience.retry
        attempt = 0
        while True:
            try:
                outcome = self.engine.route(index, fid)
            except ServiceUnavailable:
                self.failed += 1
                return False, http11.render_response(503, b"service unavailable")
            if breakers is None or breakers.allow(
                outcome.target, self.engine.clock.now
            ):
                result = await self._attempt(outcome)
                if result is not None:
                    ok, response = result
                    if breakers is not None:
                        # Any response is liveness (a non-200 is a
                        # logical error, not a crash signal).
                        breakers.record_success(
                            outcome.target, self.engine.clock.now
                        )
                    return ok, response
                if breakers is not None:
                    breakers.record_failure(
                        outcome.target, self.engine.clock.now
                    )
                if self.monitor is not None:
                    # A transport failure implicates the *service target*:
                    # for a direct fetch that is the node we dialed; for a
                    # hand-off the local relay leg to the initial node is
                    # healthy localhost TCP, so the broken leg is almost
                    # always initial->target.  Suspecting the initial node
                    # instead would mark down LARD's front-end on every
                    # failed relay — a self-inflicted total outage.  A rare
                    # misattribution (the initial node itself died) is
                    # corrected by the next probe sweep.
                    self.monitor.suspect(outcome.target)
            else:
                # The target's breaker refused at the service door: roll
                # back the decide-time view charge like the sim's breaker
                # shed, count it on the shed books, and re-route after
                # backoff (breaker-aware routing steers the fresh
                # route() around open breakers).
                self.engine.handoff_failed(outcome.initial, outcome.target)
                self.engine.request_aborted(
                    outcome.initial, opened=False, target=outcome.target
                )
                self.shed += 1
                if self.timeline is not None:
                    self.timeline.record_shed()
            if attempt >= retry.max_retries:
                self.failed += 1
                return False, http11.render_response(502, b"backend unreachable")
            attempt += 1
            self.retried += 1
            if self.timeline is not None:
                self.timeline.record_retry()
            # Sim client re-issue semantics: capped-exponential pause,
            # then a *fresh* route() — incarnation-aware redispatch
            # happens because the monitor's mark-down landed between
            # attempts and the policy no longer offers the dead node.
            await asyncio.sleep(retry.backoff(attempt))

    async def _attempt(
        self, outcome: RouteOutcome
    ) -> Optional[Tuple[bool, bytes]]:
        """One dispatch attempt: ``None`` means retryable transport
        failure, otherwise ``(completed_200, rendered_response)``."""
        fetch_node = outcome.initial if outcome.forwarded else outcome.target
        headers: Dict[str, str] = {}
        if outcome.forwarded:
            headers["X-Forward-Port"] = str(self.backend_ports[outcome.target])
            self.handoffs += 1
        self.engine.connection_opened(outcome.target)
        try:
            with Deadline(self.resilience.request_timeout_s):
                response = await self.pool.request(
                    self.backend_ports[fetch_node],
                    http11.render_request(
                        "GET", f"/f/{outcome.file_id}", headers, keep_alive=True
                    ),
                )
        except asyncio.TimeoutError:
            self.timeouts += 1
            self._abort(outcome)
            return None
        except (OSError, http11.HTTPError):
            self._abort(outcome)
            return None
        if response.status != 200:
            self.engine.request_aborted(
                outcome.initial, opened=True, target=outcome.target
            )
            self.failed += 1
            return False, http11.render_response(response.status, response.body)
        self.engine.request_completed(outcome.target)
        self.completed += 1
        relay_headers = {
            "X-Cache": response.headers.get("x-cache", "MISS"),
            "X-Node": response.headers.get("x-node", "?"),
        }
        if outcome.forwarded:
            relay_headers["X-Handoff"] = "1"
        return True, http11.render_response(200, response.body, relay_headers)

    def _abort(self, outcome: RouteOutcome) -> None:
        """Transport-failure bookkeeping, in the sim's hook order."""
        if outcome.forwarded:
            self.engine.handoff_failed(outcome.initial, outcome.target)
        self.engine.request_aborted(
            outcome.initial, opened=True, target=outcome.target
        )
