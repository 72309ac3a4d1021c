"""Tests for node-failure injection and policy failover behaviour."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.faults import FaultEvent, FaultSchedule
from repro.model import MB
from repro.servers import make_policy
from repro.servers.base import ServiceUnavailable
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace


@pytest.fixture(scope="module")
def trace():
    fs = build_fileset(250, 15 * 1024, 12 * 1024, 0.9, seed=13, name="ftrace")
    return generate_trace(fs, 4000, seed=14, name="ftrace")


def cfg(nodes=4):
    return ClusterConfig(nodes=nodes, cache_bytes=2 * MB, multiprogramming_per_node=8)


def run_with_failure(trace, policy_name, node, trigger, nodes=4):
    sim = Simulation(
        trace,
        make_policy(policy_name),
        cfg(nodes),
        passes=2,
        faults=FaultSchedule.single_crash(node, after_requests=trigger),
        record_timeline=True,
    )
    return sim, sim.run()


def test_failure_validation(trace):
    with pytest.raises(ValueError, match="outside the 4-node cluster"):
        Simulation(
            trace,
            make_policy("l2s"),
            cfg(),
            faults=FaultSchedule.single_crash(9, after_requests=100),
        )
    with pytest.raises(ValueError, match="non-negative"):
        FaultEvent("crash", 0, after_requests=-1)


def test_all_requests_accounted_for_after_failure(trace):
    for policy in ("l2s", "traditional", "round-robin", "consistent-hash"):
        sim, r = run_with_failure(trace, policy, node=2, trigger=5000)
        # Conservation: every injected request either completed or failed.
        assert sim._completed + sim._failed == 2 * len(trace)
        assert r.requests_failed == sim._failed >= 0


def test_failed_node_serves_nothing_after_crash(trace):
    sim, r = run_with_failure(trace, "l2s", node=2, trigger=4500)
    node = sim.cluster.node(2)
    assert node.failed
    assert node.open_connections == 0
    # The node completed nothing after the crash: its busy time stops.
    assert sim.cluster.connection_counts() == [0, 0, 0, 0]


def test_survivors_absorb_the_load(trace):
    sim, r = run_with_failure(trace, "l2s", node=1, trigger=4500)
    # Completions continue well past the crash.
    assert sim._completed > 4500 + 1000
    # The dead node stops completing.
    post = [n.completed for n in sim.cluster.nodes]
    assert post[1] < max(post)


def test_lard_front_end_death_is_total_outage(trace):
    sim, r = run_with_failure(trace, "lard", node=0, trigger=4500)
    # Every request after the crash fails.
    assert r.requests_failed > 0.3 * len(trace)


def test_lard_back_end_death_is_survivable(trace):
    sim, r = run_with_failure(trace, "lard", node=3, trigger=4500)
    assert r.requests_failed < 100
    assert sim._completed > 2 * len(trace) - 100


def test_policy_next_alive_helper():
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=3, cache_bytes=1 * MB))
    p = make_policy("round-robin")
    p.bind(cluster)
    p.on_node_failed(1)
    assert p._next_alive(1) == 2
    assert p._next_alive(0) == 0
    p.on_node_failed(2)
    assert p._next_alive(1) == 0
    p.on_node_failed(0)
    with pytest.raises(ServiceUnavailable):
        p._next_alive(0)


def test_l2s_prunes_server_sets_on_failure():
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=4, cache_bytes=1 * MB))
    p = make_policy("l2s")
    p.bind(cluster)
    p.decide(1, 10)  # node 1 serves file 10
    p.decide(2, 20)  # node 2 serves file 20
    p.on_node_failed(1)
    assert p.server_set(10) == []  # sole-server file resets
    assert p.server_set(20) == [2]
    # Nothing routes to node 1 anymore.
    d = p.decide(1, 30)
    assert d.target != 1


def test_chash_ring_remaps_failed_node():
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=4, cache_bytes=1 * MB))
    p = make_policy("consistent-hash")
    p.bind(cluster)
    owners_before = {f: p.owner_of(f) for f in range(300)}
    p.on_node_failed(2)
    moved = 0
    for f, old in owners_before.items():
        new = p.owner_of(f)
        assert new != 2
        if old != 2 and new != old:
            moved += 1
    # Only the failed node's files move (ring stability).
    assert moved == 0


def test_completion_timeline_recorded(trace):
    sim, r = run_with_failure(trace, "l2s", node=2, trigger=5000)
    assert len(sim.completion_times) == r.requests_measured
    assert all(b >= a for a, b in zip(sim.completion_times, sim.completion_times[1:]))
