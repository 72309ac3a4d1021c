"""Replay a trace against a live cluster; emit a ``SimResult``.

The loadtest drives the *identical* arrival sequence the simulation
driver injects — both sides consume :meth:`repro.workload.Trace.replay_ids`
(the parity tests pin this) — as a closed-loop client pool with a fixed
multiprogramming level, mirroring the paper's saturation methodology.

Warmup follows the sim's ``passes`` semantics: with ``passes > 1`` the
first ``passes - 1`` trace replays warm the caches and policy state,
then every meter (engine, front-end, back-end caches) is reset and the
final pass is measured.  One honest difference from the DES, documented
in ``docs/LIVE.md``: the live warmup boundary *drains* in-flight
requests before resetting meters (a running TCP transfer cannot be
retroactively reassigned to the measured window), whereas the simulator
resets mid-flight.  For the structural metrics compared (hit ratio,
hand-off fraction) the drain is invisible.

The result is a genuine :class:`~repro.sim.results.SimResult` — same
fields, same conservation identity (``verify()`` passes) — so every
existing report/compare path consumes live runs unchanged.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..sim.results import SimResult
from ..workload.traces import Trace
from . import http11
from .clock import Deadline
from .cluster import LiveCluster

__all__ = ["LoadTestConfig", "Replay", "run_loadtest"]


@dataclass
class LoadTestConfig:
    """Client-side shape of a live replay."""

    #: Closed-loop multiprogramming level (simultaneous clients).
    concurrency: int = 16
    #: Trace replays; first ``passes - 1`` are warmup (sim semantics).
    passes: int = 2
    #: With ``passes == 1``: fraction of requests treated as warmup.
    warmup_fraction: float = 0.3
    #: Open-loop mode: measured-pass Poisson arrivals at this rate
    #: (req/s) instead of the closed-loop window.  ``None`` = closed loop.
    arrival_rate: Optional[float] = None
    #: Seed for the open-loop arrival process.
    seed: int = 0
    #: Per-request client timeout, seconds.
    request_timeout_s: float = 30.0
    #: Zero-time cache prewarm (every back-end replays the trace once
    #: before the run).  ``None`` = the sim's default: only for the
    #: strictly-local policies, where each cache sees the whole stream.
    prewarm: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")


class Replay:
    """One loadtest run against an already-started cluster.

    Public because the live chaos bridge drives it directly: it wires a
    timeline onto :attr:`timeline` and hands :meth:`progress` to the
    :class:`~repro.live.faultproxy.LiveFaultInjector` as the fault
    trigger (faults fire at workload-progress fractions, matching how
    the sim schedules them inside the horizon).
    """

    def __init__(self, cluster: LiveCluster, trace: Trace, config: LoadTestConfig):
        self.cluster = cluster
        self.trace = trace
        self.config = config
        self.ids = trace.replay_ids(config.passes)
        self.total = int(self.ids.size)
        if config.passes > 1:
            self.warmup_count = len(trace) * (config.passes - 1)
        else:
            self.warmup_count = int(self.total * config.warmup_fraction)
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self.failed_warmup = 0
        #: Client-observed shed responses (503 + ``X-Shed``), run-wide.
        #: Each one is *also* counted in ``failed`` — shed is a
        #: sub-counter, not a third conservation bucket, exactly like
        #: the sim's ``requests_shed``.
        self.shed = 0
        #: Requests that hit the client-side ``request_timeout_s``.
        #: Counted as failed (the client gave up; whatever the cluster
        #: eventually does with the socket no longer matters), so the
        #: conservation identity still balances under faults.
        self.timed_out = 0
        self.client_hits = 0
        self.client_handoffs = 0
        self.latencies: List[float] = []
        self.measuring = False
        #: Optional LiveAvailabilityTimeline recording this run.
        self.timeline = None

    def progress(self) -> float:
        """Fraction of the whole replay (warmup included) finished."""
        return (self.completed + self.failed) / self.total if self.total else 1.0

    async def run(self) -> SimResult:
        """Drive the load, then build the result."""
        return await self.result(await self.drive())

    async def drive(self) -> float:
        """Warm up, reset the meters, replay the measured window.

        Returns the measured window's wall seconds.
        """
        host = self.cluster.config.host
        port = self.cluster.frontend_port

        prewarm = self.config.prewarm
        if prewarm is None:
            # Match Simulation: zero-time prewarm is exactly right only
            # for strictly-local policies.
            prewarm = self.cluster.engine.policy.local_prewarm
        if prewarm:
            await self.cluster.prewarm(self.trace.file_ids)

        # Phase 1: warmup — closed-loop, then drain (see module docstring).
        if self.warmup_count:
            await self._closed_loop(host, port, self.warmup_count)
            self.failed_warmup = self.failed
        await self.cluster.reset_meters()

        # Phase 2: the measured window.
        self.measuring = True
        t0 = time.monotonic()
        if self.config.arrival_rate is None:
            await self._closed_loop(host, port, self.total)
        else:
            await self._open_loop(host, port, self.total)
        return time.monotonic() - t0

    async def _closed_loop(self, host: str, port: int, limit: int) -> None:
        """``concurrency`` workers each: take the next index, run it."""

        async def worker() -> None:
            while True:
                i = self.issued
                if i >= limit:
                    return
                self.issued += 1
                await self._one_request(host, port, i)

        workers = min(self.config.concurrency, max(1, limit - self.issued))
        await asyncio.gather(*(worker() for _ in range(workers)))

    async def _open_loop(self, host: str, port: int, limit: int) -> None:
        """Poisson arrivals: spawn each request at its scheduled offset."""
        rng = np.random.default_rng(self.config.seed)
        mean_gap = 1.0 / float(self.config.arrival_rate)
        tasks = []
        while self.issued < limit:
            i = self.issued
            self.issued += 1
            tasks.append(asyncio.ensure_future(self._one_request(host, port, i)))
            await asyncio.sleep(float(rng.exponential(mean_gap)))
        await asyncio.gather(*tasks)

    async def _one_request(self, host: str, port: int, i: int) -> None:
        fid = int(self.ids[i])
        start = time.monotonic()
        try:
            with Deadline(self.config.request_timeout_s):
                response = await http11.roundtrip(host, port, "GET", f"/f/{fid}")
        except asyncio.TimeoutError:
            # The client's patience ran out: record a failed request and
            # move on — the replay must survive faulted back-ends, and
            # conservation counts what the *client* observed.
            self.timed_out += 1
            self.failed += 1
            if self.timeline is not None:
                self.timeline.record_failure()
            return
        except (ConnectionError, OSError, http11.HTTPError):
            self.failed += 1
            if self.timeline is not None:
                self.timeline.record_failure()
            return
        if response.status != 200:
            self.failed += 1
            if response.headers.get("x-shed") == "1":
                self.shed += 1
                if self.timeline is not None:
                    self.timeline.record_shed()
            if self.timeline is not None:
                self.timeline.record_failure()
            return
        self.completed += 1
        if self.timeline is not None:
            self.timeline.record_completion(
                was_miss=response.headers.get("x-cache") != "HIT"
            )
        if self.measuring:
            self.latencies.append(time.monotonic() - start)
            if response.headers.get("x-cache") == "HIT":
                self.client_hits += 1
            if response.headers.get("x-handoff") == "1":
                self.client_handoffs += 1

    async def result(self, elapsed: float) -> SimResult:
        """The run's ``SimResult``: client books, back-end and cluster meters."""
        engine = self.cluster.engine
        backends = await self.cluster.backend_stats()
        hits = sum(b["cache_hits"] for b in backends)
        misses = sum(b["cache_misses"] for b in backends)
        lookups = hits + misses
        measured = self.completed - (self.warmup_count - self.failed_warmup)
        # Engine counters were reset at the boundary, so they cover
        # exactly the measured window.
        stats = engine.stats()
        control = stats["control_messages"]
        handoffs = sum(b["relayed"] for b in backends)
        return SimResult(
            policy=engine.policy.name,
            trace=self.trace.name,
            nodes=self.cluster.config.nodes,
            cache_bytes=self.cluster.config.cache_bytes,
            requests_measured=measured,
            requests_warmup=self.warmup_count,
            sim_seconds=elapsed,
            throughput_rps=measured / elapsed if elapsed > 0 else 0.0,
            miss_rate=misses / lookups if lookups else 0.0,
            forwarded_fraction=(
                stats["forwarded"] / stats["routed"] if stats["routed"] else 0.0
            ),
            cpu_utilizations=[],
            mean_response_s=(
                float(np.mean(self.latencies)) if self.latencies else 0.0
            ),
            messages_per_request=(
                (control + handoffs) / measured if measured else 0.0
            ),
            node_completions=[b["served"] for b in backends],
            policy_stats=stats["policy"],
            requests_failed=self.failed,
            requests_retried=getattr(
                self.cluster.frontend, "retried", 0
            ) if self.cluster.frontend is not None else 0,
            requests_shed=self.shed,
            latency_percentiles=self._percentiles(),
            requests_generated=self.issued,
            requests_failed_warmup=self.failed_warmup,
            netfault_summary={
                "live": {
                    "client_timeouts": self.timed_out,
                    **self.cluster.live_summary(),
                }
            },
        )

    def _percentiles(self) -> Dict[str, float]:
        if not self.latencies:
            return {}
        lat = np.asarray(self.latencies)
        return {
            "p50": float(np.percentile(lat, 50)),
            "p90": float(np.percentile(lat, 90)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat.max()),
        }


async def run_loadtest(
    cluster: LiveCluster,
    trace: Trace,
    config: Optional[LoadTestConfig] = None,
) -> SimResult:
    """Replay ``trace`` against a started ``cluster``; return the result."""
    return await Replay(cluster, trace, config or LoadTestConfig()).run()
