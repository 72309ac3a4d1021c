"""Full-simulation behaviour on an unreliable interconnect."""

from dataclasses import asdict, replace

import pytest

from repro.cluster import ClusterConfig
from repro.experiments import run_netfault_simulation
from repro.faults import RetryPolicy
from repro.model import MB
from repro.netfaults import ARQ_RETRY, NetFaultConfig, NetFaultSchedule
from repro.overload import BreakerBoard, BreakerConfig, OverloadControl
from repro.servers import make_policy
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace


@pytest.fixture(scope="module")
def trace():
    fs = build_fileset(250, 15 * 1024, 12 * 1024, 0.9, seed=13, name="nftrace")
    return generate_trace(fs, 4000, seed=14, name="nftrace")


def cfg(nodes=4, **kw):
    kw.setdefault("cache_bytes", 2 * MB)
    kw.setdefault("multiprogramming_per_node", 8)
    return ClusterConfig(nodes=nodes, **kw)


def result_of(trace, policy, config, **kw):
    return run_netfault_simulation(trace, policy, config, **kw)


def test_inert_config_is_byte_identical_to_no_config(trace):
    """Zero-knob guarantee: an inert NetFaultConfig changes nothing."""
    for policy in ("lard", "l2s"):
        _, base = result_of(trace, policy, cfg(net_faults=None))
        _, inert = result_of(trace, policy, cfg(net_faults=NetFaultConfig()))
        assert asdict(base) == asdict(inert), policy


def test_lossy_run_is_deterministic_for_a_seed(trace):
    nf = NetFaultConfig(loss_rate=0.01, dup_rate=0.002, seed=3)
    _, a = result_of(trace, "l2s", cfg(net_faults=nf))
    _, b = result_of(trace, "l2s", cfg(net_faults=nf))
    assert asdict(a) == asdict(b)
    assert a.message_stats  # per-kind counters present on netfault runs
    assert sum(
        row.get("dropped", 0) for row in a.message_stats.values()
    ) > 0


def test_lossy_run_reconciliation_books_close(trace):
    nf = NetFaultConfig(loss_rate=0.02, dup_rate=0.005, seed=5)
    _, r = result_of(trace, "lard", cfg(net_faults=nf))
    recon = r.message_reconciliation()
    assert recon and all(v == 0 for v in recon.values())
    assert r.netfault_summary["drop_causes"].get("loss", 0) > 0


def test_partition_heal_triggers_l2s_reannounce(trace):
    # Calibration twin: protocol on, fabric perfect — learns where the
    # measured window of the partition run will land.
    calib, _ = result_of(
        trace,
        "l2s",
        cfg(net_faults=NetFaultConfig(always_on=True)),
        view_max_age_s=0.2,
    )
    boundary = calib._measure_start
    span = calib._last_completion - boundary
    assert span > 0
    sched = NetFaultSchedule.partition(
        (0,), boundary + 0.3 * span, boundary + 0.6 * span
    )
    sim, r = result_of(
        trace,
        "l2s",
        cfg(net_faults=NetFaultConfig(schedule=sched)),
        view_max_age_s=0.2,
    )
    summary = r.netfault_summary
    assert summary["partitions"] == 1
    assert summary["heals"] == 1
    assert r.policy_stats["heal_reannounces"] >= 1
    assert summary["drop_causes"].get("partition", 0) > 0


def test_breaker_sheds_under_netfaults(trace):
    # Every breaker trips open at once, inside the measured window: with
    # no routable node left, routing falls back to all of them and each
    # node sheds at service entry until its half-open probe succeeds.
    board = BreakerBoard(4, BreakerConfig(failure_threshold=1))
    sim = Simulation(
        trace,
        make_policy("l2s"),
        cfg(net_faults=NetFaultConfig(always_on=True)),
        passes=2,
        retry=RetryPolicy(),
        overload=OverloadControl(breakers=board),
    )
    trip_at = 4.5

    def trip_all():
        for node in range(4):
            board.record_failure(node, sim.env.now)

    sim.env.call_later(trip_at, trip_all)
    r = sim.run()
    assert sim._measure_start < trip_at
    assert board.trips == 4
    assert r.requests_shed > 0
    assert r.requests_shed == sum(n.shed for n in sim.cluster.nodes)


def test_partitioned_dfs_falls_back_to_local_replica(trace):
    nf = NetFaultConfig(
        loss_rate=0.3,
        seed=2,
        default_spec=replace(ARQ_RETRY, 
            timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0
        ),
    )
    sim, r = result_of(
        trace, "traditional", cfg(net_faults=nf, replicated_disks=False)
    )
    assert sim.cluster.dfs.local_fallbacks > 0
    assert r.netfault_summary["dfs_local_fallbacks"] > 0
    # Degraded reads, not client-visible errors.
    assert r.requests_measured > 0


def test_partitioned_dfs_without_fallback_fails_requests(trace):
    nf = NetFaultConfig(
        loss_rate=0.3,
        seed=2,
        dfs_local_fallback=False,
        default_spec=replace(ARQ_RETRY, 
            timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0
        ),
    )
    sim, r = result_of(
        trace, "traditional", cfg(net_faults=nf, replicated_disks=False)
    )
    assert sim.cluster.dfs.remote_failures > 0
    assert r.requests_failed > 0
