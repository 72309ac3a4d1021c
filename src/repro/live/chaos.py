"""Run a chaos :class:`~repro.chaos.spec.Scenario` on the live cluster.

The bridge between :mod:`repro.chaos` and :mod:`repro.live`: one
serializable scenario file drives *both* substrates —

* the **sim** side runs exactly what ``repro chaos replay`` runs
  (same trace synthesis + flash rewrite, same policy construction,
  same fault/netfault expansion, same retry budget), with the
  multiprogramming level aligned to the loadtest concurrency the way
  ``repro live compare`` aligns clean runs;
* the **live** side boots a process cluster in chaos mode (proxies,
  health probes, resilience front-end), replays the same arrival
  sequence, and lets a :class:`~repro.live.faultproxy.LiveFaultInjector`
  execute the plan's live actions at matching workload-progress points;

then scores measured availability, hit ratio, and hand-off fraction
against the sim's prediction through the same
:class:`~repro.live.compare.CompareReport`.  Divergence beyond the
thresholds means one of the two worlds mis-models failure — the
ROADMAP's sim-to-real bug-finder, now covering the faulted regime.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from ..chaos.runner import (
    build_overload,
    build_policy,
    build_simulation,
    build_trace,
)
from ..faults import RetryPolicy
from ..sim.results import SimResult
from .cluster import MB, LiveCluster, LiveClusterConfig
from .compare import CompareReport
from .engine import LiveUnsupported
from .faultproxy import LiveFaultInjector, ResilienceConfig
from .loadtest import LoadTestConfig, Replay
from .timeline import LiveAvailabilityTimeline

__all__ = ["LiveChaosOutcome", "run_live_scenario"]

#: Acceptance threshold on |live - sim| whole-run availability (which,
#: on these books, is the goodput fraction: completions per offered
#: request).
AVAILABILITY_THRESHOLD = 0.15

#: Acceptance threshold on |live - sim| shed fraction (overload runs).
SHED_THRESHOLD = 0.15

#: Per-attempt front-end fetch timeout under chaos.  Short enough that
#: a SIGSTOPped worker burns one attempt, not the client's patience.
CHAOS_ATTEMPT_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class LiveChaosOutcome:
    """One scenario executed on both substrates, scored side by side."""

    scenario: object
    report: CompareReport
    timeline: LiveAvailabilityTimeline
    #: Live fault actions actually executed: (trigger_frac, action, node).
    executed: Tuple[Tuple[float, str, int], ...]

    @property
    def sim(self) -> SimResult:
        return self.report.sim

    @property
    def live(self) -> SimResult:
        return self.report.live

    @property
    def passed(self) -> bool:
        return self.report.within_thresholds()

    def render(self) -> str:
        lines = [self.scenario.describe()]
        if self.executed:
            acts = ", ".join(
                f"{action}({node})@{frac:.2f}"
                for frac, action, node in self.executed
            )
            lines.append(f"live actions executed: {acts}")
        else:
            lines.append("live actions executed: (none)")
        summary = self.live.netfault_summary.get("live", {})
        lines.append(
            "live resilience: "
            f"retries={self.live.requests_retried} "
            f"shed={self.live.requests_shed} "
            f"client_timeouts={summary.get('client_timeouts', 0)} "
            f"markdowns={summary.get('health', {}).get('markdowns', 0)} "
            f"markups={summary.get('health', {}).get('markups', 0)}"
        )
        lines.append(self.report.render())
        lines.append("")
        lines.append("availability timeline (live):")
        lines.append(self.timeline.render())
        return "\n".join(lines)


def run_sim_side(scenario, concurrency: int = 16) -> SimResult:
    """The sim's prediction for this scenario at the live operating point:
    :func:`repro.chaos.runner.run_scenario`'s simulation, with the
    multiprogramming level mirroring the loadtest concurrency, exactly
    as the clean-run compare does.
    """
    return build_simulation(
        scenario,
        build_trace(scenario),
        multiprogramming_per_node=max(1, concurrency // scenario.nodes),
    ).run()


async def run_live_side(
    scenario,
    root: Path,
    concurrency: int = 16,
) -> Tuple[SimResult, LiveAvailabilityTimeline, Tuple]:
    """Execute the scenario against a real process cluster."""
    trace = build_trace(scenario)
    rates = scenario.live_rates()
    cluster = LiveCluster(
        build_policy(scenario),
        trace,
        LiveClusterConfig(
            nodes=scenario.nodes,
            cache_bytes=scenario.cache_mb * MB,
            backend_mode="process",
            root=root,
        ),
    )
    cluster.enable_chaos(
        seed=scenario.seed,
        loss=rates["loss"],
        delay_s=rates["delay_s"],
        jitter_s=rates["jitter_s"],
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_retries=scenario.retries),
            request_timeout_s=CHAOS_ATTEMPT_TIMEOUT_S,
        ),
    )
    # A *fresh* controller (never the sim side's instance — both
    # accumulate counters), built from the same spec scalars.
    cluster.overload = build_overload(scenario)
    await cluster.start()
    timeline = LiveAvailabilityTimeline(cluster)
    replay = Replay(
        cluster,
        trace,
        # Mirror the chaos runner's single-pass, 10%-warmup shape so the
        # fault windows land in the same region of the request stream.
        LoadTestConfig(
            concurrency=concurrency,
            passes=1,
            warmup_fraction=0.1,
            seed=scenario.seed,
        ),
    )
    replay.timeline = timeline
    assert cluster.frontend is not None
    cluster.frontend.timeline = timeline
    injector = LiveFaultInjector(
        cluster,
        scenario.live_schedule(),
        replay.progress,
        on_event=timeline.mark_event,
    )
    timeline.start()
    injector.start()
    try:
        elapsed = await replay.drive()
        # Actions still due when the load ends run now, before the
        # summary counts kills and respawns.
        await injector.finish()
        result = await replay.result(elapsed)
    finally:
        await injector.finish()
        await timeline.stop()
        await cluster.stop()
    return result, timeline, tuple(injector.executed)


def run_live_scenario(
    scenario,
    root: Optional[Path] = None,
    concurrency: int = 16,
    availability_threshold: float = AVAILABILITY_THRESHOLD,
    shed_threshold: float = SHED_THRESHOLD,
) -> LiveChaosOutcome:
    """Run ``scenario`` on sim and live; return the scored outcome.

    Raises :class:`~repro.live.engine.LiveUnsupported` when the scenario
    contains plan items or a policy with no live equivalent — refusing
    loudly instead of silently dropping faults.
    """
    unsupported = scenario.live_unsupported()
    if unsupported:
        raise LiveUnsupported(
            "scenario has no live equivalent:\n  " + "\n  ".join(unsupported)
        )
    sim = run_sim_side(scenario, concurrency=concurrency)
    if root is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-live-chaos-") as tmp:
            live, timeline, executed = asyncio.run(
                run_live_side(scenario, Path(tmp), concurrency=concurrency)
            )
    else:
        live, timeline, executed = asyncio.run(
            run_live_side(scenario, Path(root), concurrency=concurrency)
        )
    problems: List[str] = list(live.verify())
    report = CompareReport(
        sim=sim,
        live=live,
        problems=tuple(problems),
        availability_threshold=availability_threshold,
        shed_threshold=shed_threshold,
    )
    return LiveChaosOutcome(
        scenario=scenario,
        report=report,
        timeline=timeline,
        executed=executed,
    )
