"""Server behaviour on an unreliable interconnect (this repo's A3 study).

The paper's cluster assumes a perfect system-area network; its fault
analysis (§7) covers *node* crashes only.  This experiment asks the
robustness question the paper leaves open: what happens to each
distribution strategy when the **fabric itself** misbehaves — messages
lost, duplicated, delayed, links cut, the cluster partitioned?

Two studies share one runner:

* :func:`netfault_experiment` — a **loss sweep**: every policy at
  message-loss rates {0, 0.1%, 1%, 5%} (plus whatever the caller asks
  for), reporting throughput, p99 response time, the served fraction,
  and the message-protocol effort (retries, dedups, give-ups) that
  bought it.
* the **partition scenario** inside the same report: a calibration run
  with the protocol on but the fabric perfect (``always_on``) learns
  each policy's warmup-boundary time and run duration; a group of nodes
  is then partitioned from the rest over a window expressed as
  fractions of the *measured* span, so the whole outage lands inside
  the measured window (the warmup pass runs slower than the measured
  pass — cold caches — so fractions of the total duration would miss).
  The calibration doubles as the table's ``protocol`` row: ack/retry
  overhead on a perfect fabric.  The heal also exercises the policies'
  re-announce paths.

All runs are seeded and deterministic: the same seed produces
byte-identical reports, which the CI lossy-network smoke run asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import ClusterConfig
from ..netfaults import NetFaultConfig, NetFaultSchedule
from ..servers import make_policy
from ..sim import SimResult, Simulation
from ..workload import Trace, synthesize
from .figures import bench_requests

__all__ = [
    "NetFaultCell",
    "NetFaultReport",
    "netfault_experiment",
    "run_netfault_simulation",
    "summarize_run",
]

#: The four server designs the paper compares, in its own order.
DEFAULT_POLICIES: Tuple[str, ...] = ("traditional", "lard", "lard-ng", "l2s")

#: Loss rates for the sweep: perfect fabric, then roughly one lost
#: message per thousand / hundred / twenty — the last is far beyond
#: anything a healthy system-area network shows and probes the
#: protocol's give-up behaviour.
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.001, 0.01, 0.05)


@dataclass(frozen=True)
class NetFaultCell:
    """One (policy, scenario) operating point."""

    policy: str
    #: Global message-loss probability for this cell (sweep cells).
    loss_rate: float
    #: "loss" for sweep cells, "partition" for the partition scenario.
    scenario: str
    throughput_rps: float
    #: p99 response time in milliseconds (NaN-free: 0.0 when the run
    #: recorded no latencies).
    p99_ms: float
    #: Completed / (completed + terminally failed + shed).
    served_fraction: float
    requests_failed: int
    requests_shed: int
    #: Message-protocol effort behind the cell.
    retries: int
    dedups: int
    send_failures: int
    redispatches: int
    #: Messages dropped by the fabric, by cause.
    drop_causes: Dict[str, int] = field(default_factory=dict)
    #: DFS reads that fell back to the local replica after retries.
    dfs_local_fallbacks: int = 0
    #: Largest |sent - delivered - dropped - in_flight| residual over
    #: message kinds; non-zero means the accounting books don't close.
    reconciliation_residual: int = 0


@dataclass(frozen=True)
class NetFaultReport:
    """The full loss sweep plus the partition scenario."""

    trace: str
    nodes: int
    requests: int
    seed: int
    loss_rates: Tuple[float, ...]
    #: Partition spec actually used: (group, start_s, end_s) or None.
    partition: Optional[Tuple[Tuple[int, ...], float, float]]
    cells: List[NetFaultCell]

    def render(self) -> str:
        """Fixed-width text tables (deterministic: no timestamps)."""
        lines = [
            f"Unreliable interconnect: {self.trace}, {self.nodes} nodes, "
            f"{self.requests} requests, seed {self.seed}",
            "",
            f"{'policy':<12} {'scenario':<12} {'tput (req/s)':>12} "
            f"{'p99 (ms)':>9} {'served':>7} {'fail':>5} {'shed':>5} "
            f"{'retry':>6} {'dedup':>6} {'giveup':>6} {'redisp':>6}",
        ]
        for cell in self.cells:
            if cell.scenario == "loss":
                scenario = f"loss {cell.loss_rate:.1%}"
            else:
                scenario = cell.scenario
            lines.append(
                f"{cell.policy:<12} {scenario:<12} {cell.throughput_rps:>12.1f} "
                f"{cell.p99_ms:>9.2f} {cell.served_fraction:>7.4f} "
                f"{cell.requests_failed:>5d} {cell.requests_shed:>5d} "
                f"{cell.retries:>6d} {cell.dedups:>6d} "
                f"{cell.send_failures:>6d} {cell.redispatches:>6d}"
            )
        drops = sorted(
            {cause for cell in self.cells for cause in cell.drop_causes}
        )
        if drops:
            lines.append("")
            lines.append("message drops by cause:")
            for cell in self.cells:
                if not cell.drop_causes:
                    continue
                causes = ", ".join(
                    f"{cause}={cell.drop_causes[cause]}"
                    for cause in sorted(cell.drop_causes)
                )
                scenario = (
                    f"loss {cell.loss_rate:.1%}"
                    if cell.scenario == "loss"
                    else cell.scenario
                )
                lines.append(f"  {cell.policy:<12} {scenario:<12} {causes}")
        residual = max(
            (abs(cell.reconciliation_residual) for cell in self.cells),
            default=0,
        )
        lines.append("")
        lines.append(
            "message accounting: "
            + (
                "sent == delivered + dropped + in-flight for every kind"
                if residual == 0
                else f"RESIDUAL {residual} — books do not close"
            )
        )
        return "\n".join(lines)


def run_netfault_simulation(
    trace: Trace,
    policy_name: str,
    config: ClusterConfig,
    passes: int = 2,
    record_latencies: bool = True,
    view_max_age_s: Optional[float] = None,
) -> Tuple[Simulation, SimResult]:
    """One netfault run (shared by the experiment and ``repro netfaults``).

    L2S alone takes ``view_max_age_s`` — its defense against load
    vectors going stale behind a partition; the other policies have no
    equivalent knob.  Heavy loss or an unhealed partition can strand
    requests past their retry budgets; the result still reports the
    measured window.
    """
    kwargs = (
        {"view_max_age_s": view_max_age_s}
        if policy_name == "l2s" and view_max_age_s is not None
        else {}
    )
    sim = Simulation(
        trace,
        make_policy(policy_name, **kwargs),
        config,
        passes=passes,
        record_latencies=record_latencies,
    )
    return sim, sim.run()


def summarize_run(
    result: SimResult,
    policy_name: str,
    loss_rate: float,
    scenario: str,
) -> NetFaultCell:
    stats = result.message_stats
    summary = result.netfault_summary
    served = result.requests_measured
    denied = result.requests_failed + result.requests_shed
    recon = result.message_reconciliation()
    return NetFaultCell(
        policy=policy_name,
        loss_rate=loss_rate,
        scenario=scenario,
        throughput_rps=result.throughput_rps,
        p99_ms=result.latency_percentiles.get("p99", 0.0) * 1000.0,
        served_fraction=(
            served / (served + denied) if served + denied else 0.0
        ),
        requests_failed=result.requests_failed,
        requests_shed=result.requests_shed,
        retries=sum(row.get("retries", 0) for row in stats.values()),
        dedups=sum(row.get("dedups", 0) for row in stats.values()),
        send_failures=sum(
            row.get("send_failures", 0) for row in stats.values()
        ),
        redispatches=summary.get("redispatches", 0),
        drop_causes=dict(summary.get("drop_causes", {})),
        dfs_local_fallbacks=summary.get("dfs_local_fallbacks", 0),
        reconciliation_residual=max(
            (abs(v) for v in recon.values()), default=0
        ),
    )


def netfault_experiment(
    trace: Optional[Trace] = None,
    trace_name: str = "calgary",
    nodes: int = 16,
    policies: Sequence[str] = DEFAULT_POLICIES,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    partition_group: Optional[Sequence[int]] = (0, 1),
    partition_window: Tuple[float, float] = (0.25, 0.65),
    num_requests: Optional[int] = None,
    seed: int = 0,
    view_max_age_s: Optional[float] = 0.5,
    dup_rate: float = 0.0,
    extra_delay_s: float = 0.0,
    jitter_s: float = 0.0,
) -> NetFaultReport:
    """Loss sweep × policies, plus one timed-partition scenario each.

    ``partition_window`` gives the outage start/end as fractions of each
    policy's *measured window* (between the warmup boundary and the end
    of the calibration run), so the outage lands inside the measured
    window for every design regardless of how fast it runs.  Pass
    ``partition_group=None`` to skip the partition scenario (and its
    calibration / protocol-overhead cells).
    """
    if not policies:
        raise ValueError("need at least one policy")
    if any(not 0.0 <= l < 1.0 for l in loss_rates):
        raise ValueError("loss rates must be in [0, 1)")
    lo, hi = partition_window
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("partition_window must satisfy 0 < lo < hi < 1")
    if trace is None:
        requests = num_requests if num_requests is not None else bench_requests()
        trace = synthesize(trace_name, num_requests=requests)

    cells: List[NetFaultCell] = []
    partition_used: Optional[Tuple[Tuple[int, ...], float, float]] = None
    for policy_name in policies:
        for loss in loss_rates:
            nf = NetFaultConfig(
                loss_rate=loss,
                dup_rate=dup_rate,
                extra_delay_s=extra_delay_s,
                jitter_s=jitter_s,
                seed=seed,
            )
            config = ClusterConfig(
                nodes=nodes, net_faults=nf if nf.active else None
            )
            _, result = run_netfault_simulation(
                trace,
                policy_name,
                config,
                view_max_age_s=view_max_age_s,
            )
            cells.append(summarize_run(result, policy_name, loss, "loss"))

        if partition_group is None:
            continue
        # Calibration twin of the partition run: protocol on, fabric
        # perfect.  Its timeline matches the partition run's exactly up
        # to the first scheduled event (with jitter_s > 0 only
        # approximately — the jitter draws interleave differently).
        base = dict(
            dup_rate=dup_rate,
            extra_delay_s=extra_delay_s,
            jitter_s=jitter_s,
            seed=seed,
        )
        calib, calib_result = run_netfault_simulation(
            trace,
            policy_name,
            ClusterConfig(
                nodes=nodes, net_faults=NetFaultConfig(always_on=True, **base)
            ),
            view_max_age_s=view_max_age_s,
        )
        cells.append(summarize_run(calib_result, policy_name, 0.0, "protocol"))
        boundary = calib.measure_start
        duration = calib.last_completion
        if boundary is None or duration <= boundary:
            continue
        span = duration - boundary
        group = tuple(sorted(partition_group))
        start = boundary + lo * span
        end = boundary + hi * span
        partition_used = (group, start, end)
        nf = NetFaultConfig(
            schedule=NetFaultSchedule.partition(group, start, end), **base
        )
        _, result = run_netfault_simulation(
            trace,
            policy_name,
            ClusterConfig(nodes=nodes, net_faults=nf),
            view_max_age_s=view_max_age_s,
        )
        cells.append(summarize_run(result, policy_name, 0.0, "partition"))

    return NetFaultReport(
        trace=trace.name,
        nodes=nodes,
        requests=len(trace),
        seed=seed,
        loss_rates=tuple(loss_rates),
        partition=partition_used,
        cells=cells,
    )
