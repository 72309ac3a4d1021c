"""Availability under node failure — the paper's decentralization claim.

The paper motivates L2S with LARD's single point of failure: "a
front-end node that ... represents both a single point of failure and a
potential bottleneck", versus L2S where "all nodes behave exactly the
same ... the system is bottleneck-free and has no single point of
failure".  Two experiments quantify it:

* :func:`availability_experiment` — the original whole-window compare:
  crash one node as measurement begins and report degraded vs healthy
  throughput.  L2S / traditional lose roughly a node's worth of
  capacity and keep serving; a LARD front-end crash is a total outage.

* :func:`fault_recovery_experiment` — the full crash *and reboot* story
  on the :mod:`repro.faults` subsystem: a healthy calibration run
  learns the run's duration, then a faulted run crashes a node at a
  chosen fraction of it and reboots it (cold cache) later, with clients
  retrying under capped exponential backoff and an availability
  timeline sampling goodput, failures, and the cache-reheat transient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..cluster import ClusterConfig
from ..faults import AvailabilityTimeline, FaultSchedule, RetryPolicy
from ..servers import make_policy
from ..sim import SimResult, Simulation
from ..workload import Trace, synthesize
from .figures import bench_requests

__all__ = [
    "AvailabilityResult",
    "availability_experiment",
    "CalibratedFaultRun",
    "calibrate_then_inject",
    "FaultRecoveryResult",
    "fault_recovery_experiment",
]


@dataclass(frozen=True)
class AvailabilityResult:
    """Healthy-vs-degraded throughput for one crash scenario."""

    policy: str
    nodes: int
    failed_node: int
    #: Measured throughput of the healthy control run (req/s).
    healthy_throughput: float
    #: Measured throughput with the node crashed at the start of the
    #: measurement window (req/s).
    degraded_throughput: float
    #: Requests aborted by the crash (in-flight + post-crash failures).
    requests_failed: int
    #: Requests completed after the crash.
    completed_after: int

    @property
    def retained_fraction(self) -> float:
        """Degraded/healthy throughput (0 = total outage)."""
        if self.healthy_throughput <= 0:
            return 0.0
        return self.degraded_throughput / self.healthy_throughput


def availability_experiment(
    policy_name: str,
    trace: Optional[Trace] = None,
    trace_name: str = "calgary",
    nodes: int = 8,
    failed_node: int = 0,
    num_requests: Optional[int] = None,
) -> AvailabilityResult:
    """Crash ``failed_node`` as measurement begins; compare to healthy.

    The crash lands mid-warmup, so the survivors re-warm (L2S reassigns
    and reloads the dead node's files) before measurement begins and the
    measured window reports the degraded *steady state* — the quantity
    the availability claim is about.
    """
    if trace is None:
        requests = num_requests if num_requests is not None else bench_requests()
        trace = synthesize(trace_name, num_requests=requests)
    config = ClusterConfig(nodes=nodes)
    trigger = len(trace) // 2  # mid-warmup (passes=2: warmup is one replay)

    def run(faults):
        return Simulation(
            trace, make_policy(policy_name), config, passes=2, faults=faults
        ).run()

    healthy = run(None)
    # A total outage leaves an empty measured window: zero throughput.
    degraded = run(FaultSchedule.single_crash(failed_node, after_requests=trigger))
    return AvailabilityResult(
        policy=policy_name,
        nodes=nodes,
        failed_node=failed_node,
        healthy_throughput=healthy.throughput_rps,
        degraded_throughput=degraded.throughput_rps,
        requests_failed=degraded.requests_failed,
        completed_after=degraded.requests_measured,
    )


# -- crash-and-reboot on the faults subsystem ---------------------------------


@dataclass(frozen=True)
class FaultRecoveryResult:
    """One crash/reboot scenario measured on the availability timeline."""

    policy: str
    nodes: int
    failed_node: int
    #: When the node crashed / rebooted (simulated seconds; recover_at is
    #: None for a crash with no reboot).
    crash_at: float
    recover_at: Optional[float]
    #: Whole-run throughput of the healthy calibration run (req/s).
    healthy_throughput: float
    #: Whole-run throughput of the faulted run (req/s).
    faulted_throughput: float
    #: Terminal failures and client retries in the faulted run.
    requests_failed: int
    requests_retried: int
    #: Mean goodput over the second half of the outage (past the
    #: in-flight drain; ~0 for a LARD front-end crash).
    outage_goodput: float
    #: Mean goodput after the reboot settles (last quarter of the run).
    recovered_goodput: float
    #: Completion-weighted miss rate just after the reboot vs at the end
    #: of the run — their gap is the cache-reheat transient.
    reheat_miss_rate: float
    steady_miss_rate: float
    #: The full sampled timeline (render() / to_csv() for reports).
    timeline: AvailabilityTimeline
    #: Fault events actually executed: (time, kind, node).
    events: List[Tuple[float, str, int]]

    @property
    def outage_fraction(self) -> float:
        """Outage goodput relative to healthy (0 = total outage)."""
        if self.healthy_throughput <= 0:
            return 0.0
        return self.outage_goodput / self.healthy_throughput


#: Availability-timeline intervals over the healthy run's duration.
TIMELINE_SAMPLES = 160


def _whole_run_throughput(result: SimResult, duration_s: float) -> float:
    """Completions per second of the whole run, warmup included."""
    return result.requests_completed / duration_s if duration_s > 0 else 0.0


@dataclass(frozen=True)
class CalibratedFaultRun:
    """A healthy calibration run, then the same run with faults injected
    on the timescale it measured (:func:`calibrate_then_inject`)."""

    #: The healthy run's result and duration (simulated seconds).
    healthy: SimResult
    total_s: float
    #: The faulted run and its result.
    sim: Simulation
    result: SimResult

    @property
    def healthy_throughput(self) -> float:
        return _whole_run_throughput(self.healthy, self.total_s)

    @property
    def faulted_throughput(self) -> float:
        # Over the faulted run's end, not its last completion: an outage
        # that outlasts every completion still lowers the rate.
        return _whole_run_throughput(self.result, self.sim.env.now)


def calibrate_then_inject(
    trace: Trace,
    policy_name: str,
    config: ClusterConfig,
    schedule_for: Callable[[float], FaultSchedule],
    retry: RetryPolicy,
    failover_s: Optional[float] = None,
) -> CalibratedFaultRun:
    """Run ``trace`` healthy to learn its duration ``T``, then again under
    ``schedule_for(T)`` with client retries and an availability timeline
    of :data:`TIMELINE_SAMPLES` intervals over ``T`` (shared by the
    experiment below and the ``repro faults`` CLI command).  Both runs
    replay the trace twice and measure the second pass.
    """
    kwargs = {"failover_s": failover_s} if failover_s is not None else {}

    def run(faults, **extra) -> Tuple[Simulation, SimResult]:
        sim = Simulation(
            trace,
            make_policy(policy_name, **kwargs),
            config,
            passes=2,
            faults=faults,
            **extra,
        )
        return sim, sim.run()

    healthy_sim, healthy = run(None)
    total_s = healthy_sim.last_completion
    sim, result = run(
        schedule_for(total_s),
        retry=retry,
        timeline_interval_s=max(total_s, 1e-9) / TIMELINE_SAMPLES,
    )
    return CalibratedFaultRun(healthy, total_s, sim, result)


def fault_recovery_experiment(
    policy_name: str,
    trace: Optional[Trace] = None,
    trace_name: str = "calgary",
    nodes: int = 8,
    failed_node: int = 0,
    num_requests: Optional[int] = None,
    crash_frac: float = 0.55,
    recover_frac: Optional[float] = 0.75,
    retry: Optional[RetryPolicy] = None,
    failover_s: Optional[float] = None,
    cache_bytes: Optional[int] = None,
) -> FaultRecoveryResult:
    """Crash ``failed_node`` partway through a run and reboot it later.

    A healthy calibration run (same trace, same config) learns the run's
    total duration ``T``; the faulted run then crashes at
    ``crash_frac * T`` and reboots at ``recover_frac * T`` (pass
    ``recover_frac=None`` for a crash with no reboot).  With the default
    ``passes=2`` warmup replay, both instants land inside the measured
    pass, after every cache is warm — so the post-reboot miss-rate spike
    on the timeline is purely the reheat transient.
    """
    if not 0.0 < crash_frac < 1.0:
        raise ValueError(f"crash_frac must be in (0, 1), got {crash_frac}")
    if recover_frac is not None and not crash_frac < recover_frac < 1.0:
        raise ValueError(
            f"recover_frac must be in (crash_frac, 1), got {recover_frac}"
        )
    if trace is None:
        requests = num_requests if num_requests is not None else bench_requests()
        trace = synthesize(trace_name, num_requests=requests)
    if cache_bytes is not None:
        config = ClusterConfig(nodes=nodes, cache_bytes=cache_bytes)
    else:
        config = ClusterConfig(nodes=nodes)
    if retry is None:
        retry = RetryPolicy()

    def schedule_for(total_s: float) -> FaultSchedule:
        crash_at = crash_frac * total_s
        if recover_frac is None:
            return FaultSchedule.single_crash(failed_node, at=crash_at)
        return FaultSchedule.crash_and_recover(
            failed_node, crash_at, recover_frac * total_s
        )

    run = calibrate_then_inject(
        trace, policy_name, config, schedule_for, retry, failover_s
    )
    total_s = run.total_s
    crash_at = crash_frac * total_s
    recover_at = recover_frac * total_s if recover_frac is not None else None
    timeline = run.sim.timeline
    assert timeline is not None
    end = max(total_s, run.sim.last_completion)
    outage_end = recover_at if recover_at is not None else end
    # Second half of the outage: past the drain of requests that were
    # already in service when the node died.
    outage_goodput = timeline.goodput_between(
        crash_at + 0.5 * (outage_end - crash_at), outage_end
    )
    recovered_goodput = timeline.goodput_between(0.75 * end, end)
    if recover_at is not None:
        reheat_span = 0.25 * (end - recover_at)
        reheat = timeline.miss_rate_between(recover_at, recover_at + reheat_span)
        steady = timeline.miss_rate_between(end - reheat_span, end)
    else:
        reheat = steady = timeline.miss_rate_between(0.75 * end, end)

    return FaultRecoveryResult(
        policy=policy_name,
        nodes=nodes,
        failed_node=failed_node,
        crash_at=crash_at,
        recover_at=recover_at,
        healthy_throughput=run.healthy_throughput,
        faulted_throughput=run.faulted_throughput,
        requests_failed=run.result.requests_failed,
        requests_retried=run.result.requests_retried,
        outage_goodput=outage_goodput,
        recovered_goodput=recovered_goodput,
        reheat_miss_rate=reheat,
        steady_miss_rate=steady,
        timeline=timeline,
        events=list(timeline.events),
    )
