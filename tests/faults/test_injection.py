"""Integration tests: injector + recovery semantics + timeline through
the simulation driver."""

import pytest

from repro.cluster import ClusterConfig
from repro.faults import FaultSchedule, RetryPolicy
from repro.model import MB
from repro.servers import DispatcherLARDPolicy, make_policy
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace


@pytest.fixture(scope="module")
def trace():
    fs = build_fileset(250, 15 * 1024, 12 * 1024, 0.9, seed=13, name="ftrace")
    return generate_trace(fs, 4000, seed=14, name="ftrace")


def cfg(nodes=4):
    return ClusterConfig(nodes=nodes, cache_bytes=2 * MB, multiprogramming_per_node=8)


def run(trace, policy, faults=None, retry=None, interval=None, nodes=4, **kw):
    if isinstance(policy, str):
        policy = make_policy(policy)
    sim = Simulation(
        trace,
        policy,
        cfg(nodes),
        passes=2,
        faults=faults,
        retry=retry,
        timeline_interval_s=interval,
        **kw,
    )
    return sim, sim.run()


# -- node-level recovery semantics -------------------------------------------


def test_recovered_node_serves_again_with_cold_cache(trace):
    sched = FaultSchedule.crash_and_recover(2, crash_at=0.5, recover_at=1.5)
    sim, r = run(trace, "l2s", faults=sched, retry=RetryPolicy())
    node = sim.cluster.node(2)
    assert not node.failed
    assert node.crashes == 1 and node.recoveries == 1
    assert node.incarnation == 1
    # It completed requests after the reboot.
    assert node.completed > 0
    # Conservation holds even through the crash/reboot cycle.
    assert sim._completed + sim._failed == 2 * len(trace)
    assert sim._completed == 2 * len(trace)  # retries absorbed every abort


def test_recovery_without_retry_counts_failures(trace):
    sched = FaultSchedule.crash_and_recover(2, crash_at=0.5, recover_at=1.5)
    sim, r = run(trace, "l2s", faults=sched)
    # No RetryPolicy: in-flight aborts at the crash are terminal.
    assert r.requests_failed > 0
    assert r.requests_retried == 0
    assert sim._completed + sim._failed == 2 * len(trace)


def test_slow_event_degrades_and_restores(trace):
    sched = FaultSchedule.parse("slow:1@0.5x0.25,slow:1@1.0x1")
    sim, r = run(trace, "l2s", faults=sched)
    node = sim.cluster.node(1)
    assert node.speed == node.base_speed  # restored by the second event
    assert sim._completed == 2 * len(trace)


def test_counted_and_timed_events_mix(trace):
    sched = FaultSchedule(
        [
            *FaultSchedule.single_crash(2, after_requests=3000).events,
            *FaultSchedule.parse("recover:2@20").timed,
        ]
    )
    sim, r = run(trace, "l2s", faults=sched, retry=RetryPolicy())
    assert sim._injector is not None
    kinds = [k for _, k, _ in sim._injector.log]
    assert kinds == ["crash", "recover"]


def test_injector_validates_schedule_against_cluster(trace):
    with pytest.raises(ValueError):
        Simulation(
            trace,
            make_policy("l2s"),
            cfg(nodes=4),
            faults=FaultSchedule.single_crash(7, at=1.0),
        )


# -- retry / timeout ----------------------------------------------------------


def test_retries_are_counted_and_bounded(trace):
    sched = FaultSchedule.single_crash(0, at=0.5)  # LARD front-end, no reboot
    sim = Simulation(
        trace,
        make_policy("lard"),
        cfg(),
        passes=2,
        faults=sched,
        retry=RetryPolicy(max_retries=2, base_backoff_s=0.01, cap_s=0.05),
    )
    # A permanently-dead front-end leaves an empty measurement window;
    # the run still drains every slot and returns its result.
    r = sim.run()
    assert r.sim_seconds == 0.0
    assert r.throughput_rps == 0.0
    assert r.requests_retried > 0
    # Bounded retries: every slot eventually fails terminally, so the
    # run still conserves requests.
    assert r.requests_completed + r.requests_failed == 2 * len(trace)
    assert r.requests_stranded == 0
    assert r.verify() == []
    assert r.requests_failed > 0


def test_client_timeout_interrupts_requests(trace):
    # A permanently-dead service node plus a timeout: requests that were
    # dispatched to it before the crash get interrupted by their timers.
    sim, r = run(
        trace,
        "l2s",
        faults=FaultSchedule.single_crash(2, at=0.5),
        retry=RetryPolicy(max_retries=6, timeout_s=0.75),
    )
    assert sim._completed + sim._failed == 2 * len(trace)


# -- policy rejoin semantics --------------------------------------------------


def test_l2s_rejoin_unpoisons_views_and_reheats(trace):
    sched = FaultSchedule.crash_and_recover(2, crash_at=0.5, recover_at=1.0)
    sim, r = run(trace, "l2s", faults=sched, retry=RetryPolicy())
    p = sim.policy
    assert sim.cluster.node(2).recoveries == 1
    # Survivors' views of node 2 are real numbers again, not poison.
    for i in range(4):
        assert p._views[i][2] < 1 << 29
    # Node 2 re-entered service.
    assert sim.cluster.node(2).completed > 0


def test_lard_back_end_rejoins_pool(trace):
    sched = FaultSchedule.crash_and_recover(3, crash_at=0.5, recover_at=1.0)
    sim, r = run(trace, "lard", faults=sched, retry=RetryPolicy())
    p = sim.policy
    assert 3 in p._back_ends
    assert sorted(p._back_ends) == p._back_ends
    assert sim.cluster.node(3).completed > 0


def test_lard_front_end_restart_resumes_service(trace):
    sched = FaultSchedule.crash_and_recover(0, crash_at=0.5, recover_at=1.0)
    sim, r = run(trace, "lard", faults=sched, retry=RetryPolicy(max_retries=8))
    assert sim.policy.stats()["front_end_restarts"] == 1
    assert sim._completed == 2 * len(trace)


def test_chash_ring_restores_on_rejoin():
    from repro.cluster import Cluster
    from repro.des import Environment

    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=4, cache_bytes=1 * MB))
    p = make_policy("consistent-hash")
    p.bind(cluster)
    owners_before = {f: p.owner_of(f) for f in range(300)}
    p.on_node_failed(2)
    p.on_node_recovered(2)
    assert {f: p.owner_of(f) for f in range(300)} == owners_before


def test_lardng_failover_election(trace):
    sim, r = run(
        trace,
        DispatcherLARDPolicy(failover_s=0.2),
        faults=FaultSchedule.single_crash(0, at=0.5),
        retry=RetryPolicy(max_retries=8),
    )
    p = sim.policy
    assert p.stats()["elections"] == 1
    assert p.dispatcher == 1  # lowest-id alive serving node
    # Service resumed: the run completes everything.
    assert sim._completed == 2 * len(trace)


def test_lardng_no_failover_is_outage(trace):
    sim = Simulation(
        trace,
        DispatcherLARDPolicy(),
        cfg(),
        passes=2,
        faults=FaultSchedule.single_crash(0, at=0.5),
        retry=RetryPolicy(max_retries=2, base_backoff_s=0.01, cap_s=0.05),
    )
    # With no failover configured the dispatcher's death is permanent, so
    # the run ends with an empty measurement window.
    r = sim.run()
    assert sim.policy.stats()["elections"] == 0
    assert r.sim_seconds == 0.0
    assert r.requests_completed + r.requests_failed == 2 * len(trace)
    assert r.requests_failed > 0


def test_lardng_election_aborts_if_dispatcher_recovered(trace):
    sim, r = run(
        trace,
        DispatcherLARDPolicy(failover_s=1.0),
        faults=FaultSchedule.crash_and_recover(0, crash_at=0.5, recover_at=0.8),
        retry=RetryPolicy(max_retries=8),
    )
    # The dispatcher rebooted before the election delay elapsed: no
    # election happens and node 0 keeps the role.
    assert sim.policy.stats()["elections"] == 0
    assert sim.policy.dispatcher == 0


def test_validation_of_driver_fault_params(trace):
    with pytest.raises(ValueError):
        Simulation(trace, make_policy("l2s"), cfg(), timeline_interval_s=0.0)
    with pytest.raises(ValueError):
        DispatcherLARDPolicy(failover_s=-1.0)
