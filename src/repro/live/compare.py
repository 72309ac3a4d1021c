"""Run sim and live on the same point; report structural divergence.

The comparison deliberately scores *structural* metrics — cache hit
ratio and hand-off fraction — not absolute throughput.  The simulator
models 1999-era hardware (300 MHz CPUs, Table-1 service times); a
localhost asyncio cluster is a different machine entirely, so req/s
cannot agree and both numbers are reported side by side without a
threshold.  Hit ratio and hand-off fraction, by contrast, are decided
by the policy + LRU + trace interplay that both substrates share — if
they diverge beyond the thresholds, one of the two worlds has a bug.

Default thresholds are deliberately loose (±0.12 hit ratio, ±0.15
hand-off fraction): the live run's concurrency can reorder arrivals
within a multiprogramming window, which perturbs LRU state slightly
(see ``docs/LIVE.md`` for the full gap list).
"""

from __future__ import annotations

import asyncio
import contextlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..cluster import ClusterConfig
from ..servers import make_policy
from ..sim.driver import Simulation
from ..sim.results import SimResult
from ..workload.traces import Trace
from .cluster import LiveCluster, LiveClusterConfig
from .loadtest import LoadTestConfig, run_loadtest

__all__ = ["CompareReport", "run_compare"]

#: Default divergence thresholds (absolute deltas).
HIT_RATIO_THRESHOLD = 0.12
HANDOFF_THRESHOLD = 0.15


@dataclass(frozen=True)
class CompareReport:
    """Side-by-side sim-vs-live verdict for one configuration point."""

    sim: SimResult
    live: SimResult
    hit_ratio_threshold: float = HIT_RATIO_THRESHOLD
    handoff_threshold: float = HANDOFF_THRESHOLD
    problems: tuple = field(default_factory=tuple)
    #: When set (fault runs), availability is scored against this
    #: absolute-delta threshold; ``None`` = availability not compared
    #: (clean runs have availability 1.0 on both sides anyway).
    availability_threshold: Optional[float] = None
    #: When set (overload runs), the shed fraction — requests shed per
    #: request offered — is scored against this absolute-delta
    #: threshold.  Together with availability (which, on these books,
    #: *is* the goodput fraction: completions per offered request) this
    #: checks that both substrates degrade the same way, not merely
    #: that both degrade.
    shed_threshold: Optional[float] = None

    @property
    def hit_ratio_delta(self) -> float:
        """live - sim cluster-wide cache hit ratio."""
        return (1.0 - self.live.miss_rate) - (1.0 - self.sim.miss_rate)

    @property
    def handoff_delta(self) -> float:
        """live - sim hand-off (forwarded) fraction."""
        return self.live.forwarded_fraction - self.sim.forwarded_fraction

    @staticmethod
    def availability_of(result: SimResult) -> float:
        """Whole-run availability: 1 - failed/generated (1.0 if unknown)."""
        if result.requests_generated <= 0:
            return 1.0
        return 1.0 - result.requests_failed / result.requests_generated

    @property
    def sim_availability(self) -> float:
        return self.availability_of(self.sim)

    @property
    def live_availability(self) -> float:
        return self.availability_of(self.live)

    @property
    def availability_delta(self) -> float:
        """live - sim whole-run availability."""
        return self.live_availability - self.sim_availability

    @staticmethod
    def shed_fraction_of(result: SimResult) -> float:
        """Requests shed per request offered (0.0 if none generated)."""
        if result.requests_generated <= 0:
            return 0.0
        return result.requests_shed / result.requests_generated

    @property
    def sim_shed_fraction(self) -> float:
        return self.shed_fraction_of(self.sim)

    @property
    def live_shed_fraction(self) -> float:
        return self.shed_fraction_of(self.live)

    @property
    def shed_delta(self) -> float:
        """live - sim shed fraction."""
        return self.live_shed_fraction - self.sim_shed_fraction

    def within_thresholds(self) -> bool:
        if self.availability_threshold is not None and (
            abs(self.availability_delta) > self.availability_threshold
        ):
            return False
        if self.shed_threshold is not None and (
            abs(self.shed_delta) > self.shed_threshold
        ):
            return False
        return (
            abs(self.hit_ratio_delta) <= self.hit_ratio_threshold
            and abs(self.handoff_delta) <= self.handoff_threshold
            and not self.problems
        )

    def render(self) -> str:
        """Human-readable side-by-side report."""
        sim, live = self.sim, self.live

        def row(label: str, s: str, l: str, note: str = "") -> str:
            return f"  {label:<22s} {s:>12s} {l:>12s}  {note}"

        def scored(label, s, l, delta, threshold) -> str:
            verdict = "OK" if abs(delta) <= threshold else "DIVERGED"
            return row(
                label, f"{s:.3f}", f"{l:.3f}",
                f"delta {delta:+.3f} (|x| <= {threshold}) {verdict}",
            )

        lines = [
            f"sim vs live: policy={sim.policy} trace={sim.trace} "
            f"nodes={sim.nodes} cache={sim.cache_bytes // (1024 * 1024)}MB",
            row("metric", "sim", "live"),
            scored(
                "cache hit ratio", 1.0 - sim.miss_rate, 1.0 - live.miss_rate,
                self.hit_ratio_delta, self.hit_ratio_threshold,
            ),
            scored(
                "hand-off fraction", sim.forwarded_fraction,
                live.forwarded_fraction, self.handoff_delta,
                self.handoff_threshold,
            ),
        ]
        if self.availability_threshold is not None:
            lines.append(scored(
                "availability", self.sim_availability, self.live_availability,
                self.availability_delta, self.availability_threshold,
            ))
        if self.shed_threshold is not None:
            lines.append(scored(
                "shed fraction", self.sim_shed_fraction,
                self.live_shed_fraction, self.shed_delta, self.shed_threshold,
            ))
        lines += [
            row(
                "throughput (req/s)",
                f"{sim.throughput_rps:.1f}",
                f"{live.throughput_rps:.1f}",
                "informational (different hardware)",
            ),
            row(
                "msgs per request",
                f"{sim.messages_per_request:.2f}",
                f"{live.messages_per_request:.2f}",
                "informational",
            ),
            *(
                row(
                    f"latency {key} (s)",
                    (
                        f"{sim.latency_percentiles[key]:.4f}"
                        if key in sim.latency_percentiles else "-"
                    ),
                    (
                        f"{live.latency_percentiles[key]:.4f}"
                        if key in live.latency_percentiles else "-"
                    ),
                    "informational (different hardware)",
                )
                for key in ("p50", "p95", "p99")
                if key in sim.latency_percentiles
                or key in live.latency_percentiles
            ),
            row(
                "requests measured",
                str(sim.requests_measured),
                str(live.requests_measured),
            ),
        ]
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        lines.append(
            "verdict: "
            + ("WITHIN THRESHOLDS" if self.within_thresholds() else "DIVERGED")
        )
        return "\n".join(lines)


def run_compare(
    trace: Trace,
    policy_name: str,
    nodes: int = 4,
    cache_bytes: int = 32 * 1024 * 1024,
    passes: int = 2,
    concurrency: int = 16,
    backend_mode: str = "process",
    root: Optional[Path] = None,
    hit_ratio_threshold: float = HIT_RATIO_THRESHOLD,
    handoff_threshold: float = HANDOFF_THRESHOLD,
    **policy_kwargs,
) -> CompareReport:
    """Run the sim and the live cluster on one point; return the report.

    Each substrate gets its *own* policy instance (binding is one-shot),
    both built by :func:`repro.servers.make_policy` with identical
    arguments, and both replay the identical ``Trace.replay_ids(passes)``
    arrival sequence.  The sim's multiprogramming level is set from the
    loadtest ``concurrency`` so both worlds run at the same nominal load
    — load-aware policies (L2S's overload thresholds) otherwise compare
    different operating points.
    """
    sim = Simulation(
        trace,
        make_policy(policy_name, **policy_kwargs),
        ClusterConfig(
            nodes=nodes,
            cache_bytes=cache_bytes,
            multiprogramming_per_node=max(1, concurrency // nodes),
        ),
        passes=passes,
        record_latencies=True,
    ).run()
    live = asyncio.run(
        _run_live(
            trace,
            make_policy(policy_name, **policy_kwargs),
            nodes,
            cache_bytes,
            passes,
            concurrency,
            backend_mode,
            root,
        )
    )
    problems = tuple(live.verify())
    return CompareReport(
        sim=sim,
        live=live,
        hit_ratio_threshold=hit_ratio_threshold,
        handoff_threshold=handoff_threshold,
        problems=problems,
    )


async def _run_live(
    trace, policy, nodes, cache_bytes, passes, concurrency, backend_mode, root
) -> SimResult:
    with contextlib.ExitStack() as stack:
        if root is None:
            root = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-live-")
            )
        cluster = LiveCluster(
            policy,
            trace,
            LiveClusterConfig(
                nodes=nodes,
                cache_bytes=cache_bytes,
                backend_mode=backend_mode,
                root=Path(root),
            ),
        )
        await cluster.start()
        try:
            return await run_loadtest(
                cluster,
                trace,
                LoadTestConfig(concurrency=concurrency, passes=passes),
            )
        finally:
            await cluster.stop()
