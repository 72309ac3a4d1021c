"""Closed-loop saturation driver.

The paper measures *maximum* throughput: "we disregarded the timing
information in the traces and scheduled new requests as soon as the
router and network interface buffers would accept them".  We implement
this as closed-loop injection with a fixed multiprogramming level (MPL):
``multiprogramming_per_node * nodes`` requests are always in flight; the
moment one completes, the next trace entry is injected.  Once the MPL
exceeds what the bottleneck needs, the measured completion rate is the
saturation throughput and is insensitive to the exact MPL (the MPL
ablation benchmark demonstrates this).

Warmup: the first ``warmup_fraction`` of completions warms caches and
policy state (server sets, load views); at the warmup boundary every
meter is reset — cache *contents* and policy state survive — and
measurement covers the remainder, following the paper's warm-cache
methodology.  Admission control likewise *arms* at the boundary: the
warmup exists to reach the pre-crowd steady state, and a front door
shedding warmup traffic starves the very caches whose misses then keep
its latency signal high (see the ``_admission_armed`` comment).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Cluster, ClusterConfig
from ..des import Environment, Tally
from ..faults import AvailabilityTimeline, FaultInjector, FaultSchedule, RetryPolicy
from ..netfaults import NetFaultInjector
from ..servers import DistributionPolicy
from ..workload import Trace
from .lifecycle import start_fast_request
from .results import SimResult

__all__ = ["Simulation"]


class Simulation:
    """One trace-driven, closed-loop run of a server design."""

    def __init__(
        self,
        trace: Trace,
        policy: DistributionPolicy,
        config: ClusterConfig,
        warmup_fraction: float = 0.3,
        passes: int = 1,
        prewarm_local_caches: Optional[bool] = None,
        failures: Optional[Sequence[Tuple[int, int]]] = None,
        record_timeline: bool = False,
        arrival_rate: Optional[float] = None,
        record_latencies: bool = False,
        seed: int = 0,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        timeline_interval_s: Optional[float] = None,
        overload=None,
        sanitize: Optional[bool] = None,
    ):
        if len(trace) == 0:
            raise ValueError("trace is empty")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.trace = trace
        self.policy = policy
        self.config = config
        self.warmup_fraction = warmup_fraction
        #: With ``passes > 1`` the trace is replayed that many times and
        #: only the *last* pass is measured — the paper's methodology
        #: ("we warm the node caches by simulating the accesses in each
        #: trace once before starting our measurements"), which removes
        #: first-touch misses from the measurement window.  With
        #: ``passes == 1`` the first ``warmup_fraction`` of completions is
        #: the warmup instead.
        self.passes = passes
        if prewarm_local_caches is None:
            # Zero-time pre-warm is exactly right only for strictly-local
            # policies, where each cache sees the whole request stream.
            prewarm_local_caches = policy.name in ("traditional", "round-robin")
        self.prewarm_local_caches = prewarm_local_caches

        self.env = Environment(sanitize=sanitize)
        self.cluster = Cluster(self.env, config)
        # Time reaches the policy only through the Clock interface: the
        # DES environment satisfies it natively (simulated seconds), and
        # repro.live binds the same policy objects to a wall clock.
        policy.bind(self.cluster, clock=self.env)

        self._sizes = trace.fileset.sizes
        self._trace_len = len(trace)
        #: The full arrival sequence (file id per 0-based arrival index),
        #: shared verbatim with the live loadtest (Trace.replay_ids).
        self._ids = trace.replay_ids(passes)
        self._total = self._trace_len * passes
        if passes > 1:
            self._warmup_count = self._trace_len * (passes - 1)
        else:
            self._warmup_count = int(self._total * warmup_fraction)
        self._next = 0
        self._completed = 0
        self._failed = 0
        #: Terminal failures seen before the measurement boundary
        #: (snapshotted in :meth:`_begin_measurement`); feeds the
        #: conservation identity in :meth:`SimResult.verify`.
        self._failed_at_measure = 0
        self._measured = 0
        self._measured_forwarded = 0
        self._measure_start: Optional[float] = None
        self._last_completion = 0.0
        self._response = Tally()
        #: (node_id, trigger) pairs: node_id crashes when the finished
        #: request count (completed + failed) reaches the trigger.
        self._pending_failures: List[Tuple[int, int]] = sorted(
            failures or [], key=lambda f: f[1]
        )
        for node_id, trigger in self._pending_failures:
            if not 0 <= node_id < config.nodes:
                raise ValueError(f"failure node {node_id} out of range")
            if trigger < 0:
                raise ValueError("failure trigger must be non-negative")
        self.record_timeline = record_timeline
        #: Completion timestamps of measured requests (when recording).
        self.completion_times: List[float] = []
        if arrival_rate is not None and arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        #: Open-loop mode: Poisson arrivals at this rate (req/s) instead
        #: of the closed-loop multiprogramming window.  Use for latency
        #: studies below saturation; the paper's throughput methodology
        #: is the closed-loop default.
        self.arrival_rate = arrival_rate
        self.seed = seed
        self.record_latencies = record_latencies
        self._latencies: List[float] = []

        #: Fault-injection schedule (timed and count-triggered events);
        #: the legacy ``failures`` parameter remains as a shorthand for
        #: count-triggered crashes and both may be used together.
        self.faults = faults
        self._injector = (
            FaultInjector(self, faults) if faults is not None else None
        )
        #: Timed link-down/partition events (``config.net_faults``).
        self._net_injector = (
            NetFaultInjector(self)
            if self.cluster.net.netfaults is not None
            and self.cluster.net.netfaults.config.schedule is not None
            else None
        )
        #: Per-kind in-flight message levels at the warmup boundary, for
        #: the sent/delivered/dropped reconciliation in message_stats.
        self._inflight_at_measure: Dict[str, int] = {}
        #: The built result, kept for callers that tolerate short runs.
        self._result: Optional[SimResult] = None
        #: Client retry behaviour for aborted requests.  ``None`` keeps
        #: the historical semantics: an abort is a terminal failure.
        self.retry = retry
        self._attempts: Dict[int, int] = {}
        self._retried = 0
        #: Availability timeline (sampled goodput / failures / node
        #: states); enabled by passing a sampling interval.
        self.timeline = (
            AvailabilityTimeline(self.env, self.cluster, timeline_interval_s)
            if timeline_interval_s is not None
            else None
        )
        #: :class:`~repro.overload.OverloadControl` for this run, or
        #: ``None``.  The admission controller gates *new arrivals* at
        #: the front door (retries of already-admitted requests are
        #: re-issues, not new admissions); the breaker board is consulted
        #: by the lifecycles at service entry and by breaker-aware
        #: routing.  The identical object model drives the live
        #: front-end — see docs/OVERLOAD.md.
        self.overload = overload
        self.cluster.overload = overload
        self._admission = overload.admission if overload is not None else None
        #: Admission control arms at the warmup boundary, like every
        #: other meter: the warmup pass is a cache-warming device that
        #: models the server's pre-crowd steady state, and a front door
        #: that sheds warmup traffic starves the caches it is trying to
        #: protect — the measured pass then runs disk-bound and the
        #: controller's own sheds "confirm" the overload it created.
        #: (Worse, closed-loop warmup sheds are instantaneous, so one
        #: shed chains into shedding the whole remaining warmup at a
        #: single sim instant.)
        self._admission_armed = False
        #: Indices admitted through the front door (so completions of
        #: requests spawned before arming never release a slot they
        #: never took).
        self._admitted_idx: set = set()
        if overload is not None and overload.breakers is not None:
            policy.attach_breakers(overload.breakers)
        #: Requests shed at the front door (terminal, never retried —
        #: the live substrate's 503 with no client retry).
        self._shed_front = 0
        if self.timeline is not None:
            self.cluster.shed_listener = self.timeline.record_shed

    # -- injection -------------------------------------------------------------

    def _spawn_next(self) -> bool:
        """Inject the next trace request; False when the trace is spent."""
        i = self._next
        if i >= self._total:
            return False
        self._next += 1
        if self._admission is not None and self._admission_armed:
            verdict = self._admission.try_admit(self.env.now)
            if not verdict.admitted:
                # Front-door shed: terminal, resolved in microseconds —
                # the whole point of admission control is failing fast
                # instead of queueing past the deadline.  Deferred one
                # zero-delay event so a closed-loop shed burst unrolls
                # as a chain of events instead of recursing through
                # _after_request to trace depth.
                self._shed_front += 1
                self.env.schedule_callback(0.0, self._front_shed)
                return True
            self._admitted_idx.add(i)
        self._spawn_index(i)
        return True

    def _front_shed(self) -> None:
        """Terminal accounting for one front-door shed."""
        self._failed += 1
        if self.timeline is not None:
            self.timeline.record_shed()
            self.timeline.record_failure()
        self._after_request()

    def _spawn_index(self, i: int) -> None:
        fid = int(self._ids[i])
        request = start_fast_request(
            self.cluster,
            self.policy,
            i,
            fid,
            int(self._sizes[fid]),
            self._on_done,
            self._on_failed,
        )
        if self.retry is not None and self.retry.timeout_s is not None:
            # Client timeout: the client gives up on the request, which
            # aborts into the normal failure/retry path (a no-op once it
            # has completed or failed on its own).
            self.env.schedule_callback(self.retry.timeout_s, request.cancel)

    @property
    def _finished(self) -> int:
        return self._completed + self._failed

    def _on_done(self, index: int, start: float, forwarded: bool, was_miss: bool) -> None:
        self._attempts.pop(index, None)
        self._completed += 1
        self._last_completion = self.env.now
        if self._admission is not None and index in self._admitted_idx:
            # Release the admission slot; the observed latency feeds the
            # queue-wait estimate and the adaptive concurrency limit.
            self._admitted_idx.remove(index)
            self._admission.release(self.env.now, self.env.now - start)
        if self.timeline is not None:
            self.timeline.record_completion(was_miss)
        if self._measure_start is not None:
            self._measured += 1
            self._measured_forwarded += 1 if forwarded else 0
            self._response.record(self.env.now - start)
            if self.record_timeline:
                self.completion_times.append(self.env.now)
            if self.record_latencies:
                self._latencies.append(self.env.now - start)
        self._after_request()

    def _on_failed(self, index: int) -> None:
        if self.retry is not None:
            attempt = self._attempts.get(index, 0) + 1
            if attempt <= self.retry.max_retries:
                # Client retry: back off (capped exponential) and re-issue
                # the same request.  Not terminal — the closed-loop slot
                # stays occupied by this request until it resolves.
                self._attempts[index] = attempt
                self._retried += 1
                if self.timeline is not None:
                    self.timeline.record_retry()
                self.env.schedule_callback(
                    self.retry.backoff(attempt),
                    lambda i=index: self._spawn_index(i),
                )
                return
            self._attempts.pop(index, None)
        if self._admission is not None and index in self._admitted_idx:
            # Terminal failure of an admitted request: free the slot but
            # feed no latency (a fault says nothing about service rate).
            self._admitted_idx.remove(index)
            self._admission.release(self.env.now, None)
        self._failed += 1
        if self.timeline is not None:
            self.timeline.record_failure()
        self._after_request()

    def _after_request(self) -> None:
        if self._finished == self._warmup_count:
            self._begin_measurement()
        self._check_failures()
        if self._injector is not None:
            self._injector.notify_finished(self._finished)
        if self.arrival_rate is None:
            # Closed loop: a completion frees a slot for the next request.
            self._spawn_next()
        elif self._next < self._warmup_count:
            # Open-loop runs still *warm up* closed-loop — flooding a
            # cold cache with Poisson arrivals above its disk-bound cold
            # capacity would build an unbounded backlog before the
            # measurement even starts.
            self._spawn_next()

    def _check_failures(self) -> None:
        while self._pending_failures and self._finished >= self._pending_failures[0][1]:
            node_id, _ = self._pending_failures.pop(0)
            self.fail_node(node_id)

    def crash_node(self, node_id: int) -> None:
        """Crash a node now: in-flight requests there abort (at their next
        stage boundary, against the bumped incarnation), the policy repairs
        its structures, nothing is routed to it again.  Idempotent."""
        node = self.cluster.node(node_id)
        if node.failed:
            return
        node.crash()
        self.policy.on_node_failed(node_id)
        if self.timeline is not None:
            self.timeline.mark_event("crash", node_id)

    #: Backwards-compatible name for :meth:`crash_node`.
    fail_node = crash_node

    def recover_node(self, node_id: int) -> None:
        """Reboot a crashed node: cold (flushed) cache, base speed, zero
        connections (in-flight aborts drain naturally), and the policy
        re-admits it per its own rejoin semantics.  Idempotent."""
        node = self.cluster.node(node_id)
        if not node.failed:
            return
        node.recover()
        self.policy.on_node_recovered(node_id)
        if self.timeline is not None:
            self.timeline.mark_event("recover", node_id)

    def slow_node(self, node_id: int, factor: float) -> None:
        """Degrade (or restore, with ``factor=1``) a node's CPU speed."""
        self.cluster.node(node_id).set_speed_factor(factor)
        if self.timeline is not None:
            self.timeline.mark_event("slow", node_id)

    def _begin_measurement(self) -> None:
        """Reset all meters at the warmup boundary (state survives)."""
        self._measure_start = self.env.now
        self._admission_armed = True
        self.cluster.reset_accounting()
        self.policy.reset_stats()
        self._response.reset()
        self._inflight_at_measure = dict(self.cluster.net.in_flight_counts)
        self._failed_at_measure = self._failed
        if self.arrival_rate is not None:
            # Open loop: the measured pass is driven by Poisson arrivals.
            self.env.process(self._poisson_arrivals(), name="arrivals")

    def _poisson_arrivals(self):
        """Open-loop injector: exponential inter-arrival gaps."""
        rng = np.random.default_rng(self.seed)
        mean_gap = 1.0 / float(self.arrival_rate)
        while self._spawn_next():
            yield self.env.timeout(rng.exponential(mean_gap))

    def _prewarm(self) -> None:
        """Paper-style zero-time cache warm for strictly-local policies.

        Every node's cache replays the whole trace once (under
        fewest-connections all nodes converge to caching the same hot
        content), so the timed run starts from the LRU steady state.
        """
        sizes = self._sizes
        one_pass = self._ids[: self._trace_len]
        nodes = self.cluster.nodes
        first = nodes[0]
        src = first.cache
        src_started_empty = len(src) == 0
        warm = first.warm_cache
        for fid in one_pass:
            warm(int(fid), int(sizes[fid]))
        for node in nodes[1:]:
            dst = node.cache
            if src_started_empty and dst.capacity == src.capacity and len(dst) == 0:
                # Identical replay into an identical empty cache yields
                # an identical LRU state: clone instead of re-replaying
                # the trace N-1 more times.
                dst.clone_state_from(src)
            else:  # pragma: no cover - heterogeneous/pre-seeded caches
                warm = node.warm_cache
                for fid in one_pass:
                    warm(int(fid), int(sizes[fid]))

    # -- run ---------------------------------------------------------------------

    def run(self) -> SimResult:
        """Execute the whole trace and return the measured results."""
        if self.prewarm_local_caches:
            self._prewarm()
        if self._injector is not None:
            self._injector.start()
        if self._net_injector is not None:
            self._net_injector.start()
        if self.timeline is not None:
            self.timeline.start(lambda: self._finished >= self._total)
        if self._warmup_count == 0:
            self._begin_measurement()

        if self.arrival_rate is not None and self._warmup_count == 0:
            # No warmup at all: purely open-loop from the start.  (The
            # warmup boundary otherwise starts the arrival process.)
            if self._measure_start is None:
                self._begin_measurement()
        else:
            mpl = self.config.multiprogramming_per_node * self.config.nodes
            limit = self._warmup_count if self.arrival_rate is not None else self._total
            for _ in range(min(mpl, max(1, limit), self._total)):
                self._spawn_next()
        self.env.run()

        if self._finished != self._total:
            raise RuntimeError(
                f"simulation ended early: {self._finished}/{self._total} requests"
            )
        assert self._measure_start is not None
        elapsed = self._last_completion - self._measure_start
        if elapsed <= 0:
            raise RuntimeError("measurement window is empty; lower warmup_fraction")

        cluster = self.cluster
        throughput = self._measured / elapsed
        util = [n.cpu_utilization(elapsed) for n in cluster.nodes]
        completions = [n.completed for n in cluster.nodes]
        n_alive = max(1, sum(1 for n in cluster.nodes if not n.failed))

        def node_mean(attr: str) -> float:
            return (
                sum(
                    getattr(n, attr).utilization(elapsed)
                    for n in cluster.nodes
                    if not n.failed
                )
                / n_alive
            )

        stations = {
            "router": cluster.net.router.utilization(elapsed),
            "cpu": node_mean("cpu"),
            "disk": node_mean("disk"),
            "ni_in": node_mean("ni_in"),
            "ni_out": node_mean("ni_out"),
        }
        self._result = SimResult(
            policy=self.policy.name,
            trace=self.trace.name,
            nodes=self.config.nodes,
            cache_bytes=self.config.cache_bytes,
            requests_measured=self._measured,
            requests_warmup=self._warmup_count,
            sim_seconds=elapsed,
            throughput_rps=throughput,
            miss_rate=cluster.overall_miss_rate(),
            forwarded_fraction=(
                self._measured_forwarded / self._measured if self._measured else 0.0
            ),
            cpu_utilizations=util,
            mean_response_s=self._response.mean,
            messages_per_request=(
                cluster.net.messages_sent / self._measured if self._measured else 0.0
            ),
            node_completions=completions,
            policy_stats=self.policy.stats(),
            requests_failed=self._failed,
            requests_retried=self._retried,
            latency_percentiles=self._percentiles(),
            station_utilizations=stations,
            requests_shed=sum(n.shed for n in cluster.nodes) + self._shed_front,
            overload_stats=(
                self.overload.snapshot() if self.overload is not None else {}
            ),
            message_stats=self._message_stats(),
            netfault_summary=self._netfault_summary(),
            requests_generated=self._next,
            requests_failed_warmup=self._failed_at_measure,
        )
        return self._result

    def _message_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind message accounting over the measured window.

        Only populated under an active netfault layer — the legacy
        counters stay the report of record otherwise.  ``in_flight`` is
        the level change across the window, so the per-kind identity
        ``sent == delivered + dropped + in_flight`` holds even though
        the level itself is never reset.
        """
        net = self.cluster.net
        if net.netfaults is None:
            return {}
        proto = net.protocol
        kinds = set(net.message_counts)
        kinds.update(net.delivered_counts, net.dropped_counts, net.dup_counts)
        kinds.update(net.in_flight_counts, self._inflight_at_measure)
        if proto is not None:
            kinds.update(proto.retries, proto.acks, proto.dedups, proto.failures)
        stats: Dict[str, Dict[str, int]] = {}
        for kind in sorted(kinds):
            row = {
                "sent": net.message_counts.get(kind, 0),
                "delivered": net.delivered_counts.get(kind, 0),
                "dropped": net.dropped_counts.get(kind, 0),
                "dup": net.dup_counts.get(kind, 0),
                "in_flight": net.in_flight_counts.get(kind, 0)
                - self._inflight_at_measure.get(kind, 0),
            }
            if proto is not None:
                row["retries"] = proto.retries.get(kind, 0)
                row["acks"] = proto.acks.get(kind, 0)
                row["dedups"] = proto.dedups.get(kind, 0)
                row["send_failures"] = proto.failures.get(kind, 0)
            stats[kind] = row
        return stats

    def _netfault_summary(self) -> Dict[str, Any]:
        net = self.cluster.net
        nf = net.netfaults
        if nf is None:
            return {}
        summary: Dict[str, Any] = {
            "drop_causes": {
                cause: net.drop_causes.get(cause, 0)
                for cause in sorted(net.drop_causes)
            },
            "link_downs": nf.link_downs,
            "partitions": nf.partitions,
            "heals": nf.heals,
            "requests_shed": sum(n.shed for n in self.cluster.nodes),
        }
        if net.protocol is not None:
            summary["redispatches"] = net.protocol.redispatches
        dfs = self.cluster.dfs
        summary["dfs_remote_failures"] = dfs.remote_failures
        summary["dfs_local_fallbacks"] = dfs.local_fallbacks
        return summary

    @property
    def latencies(self) -> List[float]:
        """Measured per-request latencies (``record_latencies`` runs)."""
        return list(self._latencies)

    def _percentiles(self) -> Dict[str, float]:
        if not self.record_latencies or not self._latencies:
            return {}
        lat = np.asarray(self._latencies)
        return {
            "p50": float(np.percentile(lat, 50)),
            "p90": float(np.percentile(lat, 90)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat.max()),
        }
