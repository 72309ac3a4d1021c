"""Simulation outputs: the measurements the paper's figures report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SimResult"]


@dataclass(frozen=True)
class SimResult:
    """Measured behaviour of one simulated server configuration."""

    #: Policy name ("l2s", "lard", "traditional", ...).
    policy: str
    #: Trace name the run was driven by.
    trace: str
    #: Cluster size.
    nodes: int
    #: Per-node memory, bytes.
    cache_bytes: int
    #: Requests completed inside the measurement window.
    requests_measured: int
    #: Requests completed during warmup (excluded from all metrics).
    requests_warmup: int
    #: Simulated seconds spanned by the measurement window.
    sim_seconds: float
    #: Completed requests per simulated second — the figures' y-axis.
    throughput_rps: float
    #: Cluster-wide cache miss rate inside the window.
    miss_rate: float
    #: Fraction of measured requests handed off to another node.
    forwarded_fraction: float
    #: Per-node CPU utilization inside the window.
    cpu_utilizations: List[float]
    #: Mean response time per request (simulated seconds).
    mean_response_s: float
    #: Intra-cluster messages per measured request (control + handoff).
    messages_per_request: float
    #: Per-node completed-request counts (load balance view).
    node_completions: List[int]
    #: Policy-specific counters (replications, broadcasts, ...).
    policy_stats: Dict[str, Any] = field(default_factory=dict)
    #: Requests aborted by node failures (failure-injection runs only).
    requests_failed: int = 0
    #: Client retries issued after aborts (fault runs with a RetryPolicy).
    requests_retried: int = 0
    #: Response-time percentiles in seconds (p50/p90/p95/p99/max),
    #: populated only when the driver records latencies.
    latency_percentiles: Dict[str, float] = field(default_factory=dict)
    #: Measured utilization of every hardware station inside the window:
    #: "router" plus per-node-averaged "cpu", "disk", "ni_in", "ni_out".
    station_utilizations: Dict[str, float] = field(default_factory=dict)
    #: Requests rejected by admission control — node-level
    #: circuit-breaker sheds and front-door
    #: :class:`~repro.overload.AdmissionController` sheds.
    requests_shed: int = 0
    #: Per-message-kind delivery accounting, populated on runs with an
    #: active netfault layer.  Each kind maps to sent / delivered /
    #: dropped / dup / retries / acks / dedups / send_failures /
    #: in_flight, where ``sent == delivered + dropped + in_flight``.
    message_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Run-wide netfault summary (drop causes, link/partition events,
    #: DFS fallbacks, hand-off re-dispatches), same runs.
    netfault_summary: Dict[str, Any] = field(default_factory=dict)
    #: Total requests the driver generated, warmup included (0 on
    #: results built by older code paths; :meth:`verify` then skips the
    #: conservation identity).
    requests_generated: int = 0
    #: Terminal failures that happened *before* the measurement
    #: boundary.  The warmup boundary triggers on *finished* requests
    #: (completed + failed), so ``requests_warmup`` includes these;
    #: ``requests_failed`` is the run-wide failure total.
    requests_failed_warmup: int = 0
    #: Overload-control snapshot (admission / limiter / breaker books),
    #: populated only on runs driven with an OverloadControl attached.
    overload_stats: Dict[str, Any] = field(default_factory=dict)

    def verify(self) -> List[str]:
        """Check the result's books; returns problem strings (empty = ok).

        Opt-in (the driver never calls it): ``repro simulate --verify``
        and the chaos oracle do.  Checked:

        * request conservation — every generated request completed or
          failed: ``generated == (warmup completions) + (measured
          completions) + (failures before and after the boundary)``;
        * non-negative counters and a sane measurement window;
        * per-kind message reconciliation residuals are all zero (only
          meaningful on runs that populated ``message_stats``).
        """
        problems: List[str] = []
        if self.requests_generated > 0:
            # requests_warmup counts *finished* warmup requests
            # (completions and failures both advance the boundary), so
            # warmup failures must not be double-counted against the
            # run-wide requests_failed total.
            accounted = (
                (self.requests_warmup - self.requests_failed_warmup)
                + self.requests_measured
                + self.requests_failed
            )
            if self.requests_generated != accounted:
                problems.append(
                    f"request conservation: generated "
                    f"{self.requests_generated} != warmup completions "
                    f"{self.requests_warmup - self.requests_failed_warmup} "
                    f"+ measured {self.requests_measured} + failed "
                    f"{self.requests_failed} = {accounted}"
                )
            if self.requests_failed_warmup > self.requests_failed:
                problems.append(
                    f"warmup failures {self.requests_failed_warmup} exceed "
                    f"the run-wide failure total {self.requests_failed}"
                )
            if self.requests_failed_warmup > self.requests_warmup:
                problems.append(
                    f"warmup failures {self.requests_failed_warmup} exceed "
                    f"finished warmup requests {self.requests_warmup}"
                )
        for name in (
            "requests_measured",
            "requests_warmup",
            "requests_failed",
            "requests_failed_warmup",
            "requests_retried",
            "requests_shed",
        ):
            value = getattr(self, name)
            if value < 0:
                problems.append(f"negative counter: {name} = {value}")
        if self.sim_seconds < 0.0:
            problems.append(
                f"negative measurement window: {self.sim_seconds!r}s"
            )
        for kind, residual in sorted(self.message_reconciliation().items()):
            if residual != 0:
                problems.append(
                    f"message books for kind {kind!r}: sent - delivered - "
                    f"dropped - in_flight = {residual}"
                )
        return problems

    def message_reconciliation(self) -> Dict[str, int]:
        """Per-kind ``sent - delivered - dropped - in_flight`` residuals.

        All-zero means every counted message is accounted for; anything
        else is a bookkeeping bug.  Empty when no netfault layer ran.
        """
        return {
            kind: row["sent"] - row["delivered"] - row["dropped"] - row["in_flight"]
            for kind, row in self.message_stats.items()
        }

    def bottleneck_station(self) -> str:
        """The most utilized station type (empty string if unknown)."""
        if not self.station_utilizations:
            return ""
        return max(self.station_utilizations, key=self.station_utilizations.get)

    @property
    def requests_completed(self) -> int:
        """Requests served over the whole run, warmup included."""
        warmup_completed = self.requests_warmup - self.requests_failed_warmup
        return warmup_completed + self.requests_measured

    @property
    def requests_stranded(self) -> int:
        """Generated requests that neither completed nor failed: the
        conservation gap :meth:`verify` reports (0 on a whole run)."""
        if self.requests_generated <= 0:
            return 0
        return self.requests_generated - self.requests_completed - self.requests_failed

    @property
    def mean_cpu_utilization(self) -> float:
        if not self.cpu_utilizations:
            return 0.0
        return sum(self.cpu_utilizations) / len(self.cpu_utilizations)

    @property
    def mean_cpu_idle(self) -> float:
        """Mean CPU idle fraction — the paper's load-balance metric."""
        return 1.0 - self.mean_cpu_utilization

    @property
    def load_imbalance(self) -> float:
        """Max/mean ratio of per-node completions (1.0 = perfectly even)."""
        if not self.node_completions or sum(self.node_completions) == 0:
            return 1.0
        mean = sum(self.node_completions) / len(self.node_completions)
        return max(self.node_completions) / mean if mean > 0 else 1.0

    def summary_row(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.policy:>14s} {self.trace:>9s} N={self.nodes:<2d} "
            f"{self.throughput_rps:9.1f} req/s  miss={self.miss_rate:6.2%}  "
            f"fwd={self.forwarded_fraction:6.2%}  idle={self.mean_cpu_idle:6.2%}"
        )
