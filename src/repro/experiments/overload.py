"""Goodput under overload: the admission-control frontier.

The paper measures throughput at saturation — a closed loop that can
never offer more load than the cluster absorbs.  A flash crowd is the
opposite regime: an *open* arrival stream at multiples of capacity,
where every queued request makes every later request slower and a
server without admission control spirals into metastable collapse
(all effort spent on requests already doomed to miss their deadline).

This experiment drives the simulator through that regime:

* :func:`find_knee` measures the saturation knee — the closed-loop
  capacity of the (policy, trace, cluster) point — the paper's own
  methodology, reused as the load yardstick;
* :func:`overload_frontier` replays a flash-ramp trace open-loop at
  1x–4x the knee, once bare and once behind an
  :class:`~repro.overload.AdmissionController` with the AIMD adaptive
  concurrency limit, and reports **goodput** (completions that met the
  deadline, per second), latency percentiles, and shed fraction at
  every offered load.

The acceptance property (pinned by the CI overload-smoke job): beyond
the knee, goodput *with* admission control strictly dominates goodput
without, for every shipped policy — shedding the excess at the front
door keeps the admitted requests fast, while the bare server drags
everyone below the deadline.

The live analog runs the same controller object in the real front end
(``repro live chaos`` on a ramp scenario, ``tests/live/data/ramp.json``);
this module is the sim side of that pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import ClusterConfig
from ..overload import OverloadControl
from ..servers import make_policy
from ..sim import Simulation
from ..workload import Trace, synthesize
from ..workload.tracegen import flash_ramp_trace
from .figures import bench_requests

__all__ = [
    "OverloadPoint",
    "OverloadFrontier",
    "find_knee",
    "overload_frontier",
]

#: Offered-load multipliers of the saturation knee (the ISSUE's 1x–4x).
DEFAULT_MULTIPLIERS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class OverloadPoint:
    """One offered-load point of the goodput frontier."""

    #: Offered load as a multiple of the saturation knee.
    multiplier: float
    #: Open-loop Poisson arrival rate (req/s) at this point.
    arrival_rate: float
    #: Whether the admission controller was in front of the cluster.
    admission: bool
    #: Raw completions per second over the measured window.
    throughput_rps: float
    #: Completions that met the deadline, per second — the metric that
    #: collapses under overload and that admission control defends.
    goodput_rps: float
    #: Requests shed per request offered (front door + node thresholds).
    shed_fraction: float
    mean_latency_s: float
    percentiles: Dict[str, float]


@dataclass(frozen=True)
class OverloadFrontier:
    """The with/without-admission frontier for one (policy, trace)."""

    policy: str
    trace: str
    nodes: int
    deadline_s: float
    #: Closed-loop saturation capacity the multipliers scale (req/s).
    knee_rps: float
    bare: Tuple[OverloadPoint, ...]
    controlled: Tuple[OverloadPoint, ...]

    def dominance_holds(self, from_multiplier: float = 2.0) -> bool:
        """True iff controlled goodput strictly beats bare goodput at
        every offered load at or beyond ``from_multiplier`` times the
        knee (below the knee both configurations serve everything and
        ties are expected)."""
        for bare, ctrl in zip(self.bare, self.controlled):
            if bare.multiplier >= from_multiplier - 1e-9:
                if ctrl.goodput_rps <= bare.goodput_rps:
                    return False
        return True

    def render(self) -> str:
        lines = [
            f"overload frontier: policy={self.policy} trace={self.trace} "
            f"nodes={self.nodes} deadline={self.deadline_s:g}s "
            f"knee={self.knee_rps:.0f} req/s",
            f"  {'load':>5} {'admission':>9} {'offered':>9} {'tput':>8} "
            f"{'goodput':>8} {'shed':>6} {'p50':>8} {'p95':>8} {'p99':>8}",
        ]
        for bare, ctrl in zip(self.bare, self.controlled):
            for p in (bare, ctrl):
                lines.append(
                    f"  {p.multiplier:>4.1f}x {'on' if p.admission else 'off':>9} "
                    f"{p.arrival_rate:>9.0f} {p.throughput_rps:>8.0f} "
                    f"{p.goodput_rps:>8.0f} {p.shed_fraction:>6.3f} "
                    f"{p.percentiles.get('p50', 0.0):>8.4f} "
                    f"{p.percentiles.get('p95', 0.0):>8.4f} "
                    f"{p.percentiles.get('p99', 0.0):>8.4f}"
                )
        verdict = self.dominance_holds()
        lines.append(
            "  verdict: admission goodput "
            + ("STRICTLY DOMINATES" if verdict else "DOES NOT DOMINATE")
            + " beyond the knee"
        )
        return "\n".join(lines)


def find_knee(
    trace: Trace,
    policy_name: str,
    nodes: int,
    cache_bytes: Optional[int] = None,
    seed: int = 0,
) -> float:
    """The saturation knee: closed-loop capacity of this point (req/s).

    The paper's own measurement — a multiprogramming window that always
    has work queued — gives the highest rate the cluster can absorb;
    offered loads are quoted as multiples of it.
    """
    config = (
        ClusterConfig(nodes=nodes, cache_bytes=cache_bytes)
        if cache_bytes is not None
        else ClusterConfig(nodes=nodes)
    )
    return (
        Simulation(
            trace, make_policy(policy_name), config, passes=2, seed=seed
        )
        .run()
        .throughput_rps
    )


def _run_point(
    trace: Trace,
    policy_name: str,
    config: ClusterConfig,
    rate: float,
    deadline_s: float,
    overload: Optional[OverloadControl],
    seed: int,
) -> Tuple[float, float, float, float, Dict[str, float]]:
    """(throughput, goodput, shed_fraction, mean_latency, percentiles)."""
    sim = Simulation(
        trace,
        make_policy(policy_name),
        config,
        passes=2,
        arrival_rate=rate,
        record_latencies=True,
        overload=overload,
        seed=seed,
    )
    result = sim.run()
    latencies = sim.latencies
    met = sum(1 for l in latencies if l <= deadline_s)
    goodput = met / result.sim_seconds if result.sim_seconds > 0 else 0.0
    shed = (
        result.requests_shed / result.requests_generated
        if result.requests_generated
        else 0.0
    )
    return (
        result.throughput_rps,
        goodput,
        shed,
        result.mean_response_s,
        result.latency_percentiles,
    )


def overload_frontier(
    policy_name: str = "lard",
    trace: Optional[Trace] = None,
    trace_name: str = "calgary",
    nodes: int = 8,
    cache_bytes: Optional[int] = None,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    deadline_s: float = 0.25,
    num_requests: Optional[int] = None,
    seed: int = 0,
    ramp: bool = True,
) -> OverloadFrontier:
    """Measure the goodput frontier at 1x–4x the saturation knee.

    The workload is a seeded flash ramp (hot share building linearly to
    0.6 across the middle of the trace) unless ``ramp=False``; the same
    trace, arrival seed, and cluster serve every point, so the only
    variables are the offered load and the admission controller.
    """
    if any(m <= 0 for m in multipliers):
        raise ValueError("multipliers must be positive")
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    if trace is None:
        requests = num_requests if num_requests is not None else bench_requests()
        trace = synthesize(trace_name, num_requests=requests, seed=seed)
    if ramp:
        trace = flash_ramp_trace(
            trace, ramp_start=0.3, ramp_end=0.7, peak_share=0.6, seed=seed
        )
    config = (
        ClusterConfig(nodes=nodes, cache_bytes=cache_bytes)
        if cache_bytes is not None
        else ClusterConfig(nodes=nodes)
    )
    knee = find_knee(trace, policy_name, nodes, cache_bytes, seed=seed)

    bare: List[OverloadPoint] = []
    controlled: List[OverloadPoint] = []
    for mult in multipliers:
        rate = mult * knee
        for admission, sink in ((False, bare), (True, controlled)):
            overload = (
                OverloadControl.default(
                    nodes,
                    # The limit chases the latency the goodput metric
                    # cares about — the deadline — at half, for
                    # headroom.  A far tighter target (deadline/4)
                    # over-throttles policies whose healthy latency
                    # tail already brushes it (DNS-stuck clients can't
                    # be rerouted off a hot node, so the global limit
                    # is the only lever and must not be pinned low).
                    target_latency_s=deadline_s / 2.0,
                    deadline_s=deadline_s,
                    seed=seed,
                )
                if admission
                else None
            )
            tput, goodput, shed, mean_lat, pct = _run_point(
                trace, policy_name, config, rate, deadline_s, overload, seed
            )
            sink.append(
                OverloadPoint(
                    multiplier=mult,
                    arrival_rate=rate,
                    admission=admission,
                    throughput_rps=tput,
                    goodput_rps=goodput,
                    shed_fraction=shed,
                    mean_latency_s=mean_lat,
                    percentiles=pct,
                )
            )
    return OverloadFrontier(
        policy=policy_name,
        trace=trace.name,
        nodes=nodes,
        deadline_s=deadline_s,
        knee_rps=knee,
        bare=tuple(bare),
        controlled=tuple(controlled),
    )
