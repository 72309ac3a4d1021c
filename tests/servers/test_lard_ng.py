"""Unit tests for the dispatcher-based scalable LARD (lard-ng)."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.servers import DispatcherLARDPolicy, make_policy
from repro.servers.base import ServiceUnavailable


def make(nodes=5, **kwargs):
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=nodes, cache_bytes=1 * MB))
    policy = DispatcherLARDPolicy(**kwargs)
    policy.bind(cluster)
    return env, cluster, policy


def drive(env, p, initial, file_id):
    """Run one dispatcher round-trip; returns its decision."""
    decisions, failures = [], []
    p.decide_cb(initial, file_id, decisions.append, lambda: failures.append(1))
    env.run()
    assert failures == []
    return decisions[0]


def test_registry_and_flags():
    p = make_policy("lard-ng")
    assert p.name == "lard-ng"
    assert p.async_decide is True


def test_validation():
    with pytest.raises(ValueError):
        DispatcherLARDPolicy(decision_cpu_s=-1)


def test_connections_land_on_serving_nodes_only():
    env, cluster, p = make()
    nodes = {p.initial_node(k, 0) for k in range(40)}
    assert 0 not in nodes
    assert nodes == {1, 2, 3, 4}


def test_sync_decide_is_rejected():
    env, cluster, p = make()
    with pytest.raises(RuntimeError, match="decide_cb"):
        p.decide(1, 10)


def test_decide_cb_charges_round_trip():
    env, cluster, p = make()
    decision = drive(env, p, 1, 10)
    assert decision.target in (1, 2, 3, 4)
    # Query + reply control messages were sent.
    assert cluster.net.message_counts.get("lardng_query") == 1
    assert cluster.net.message_counts.get("lardng_reply") == 1
    # The dispatcher's CPU did the decision work.
    assert cluster.node(0).cpu.busy_time() >= p.decision_cpu_s
    assert p.queries == 1


def test_local_target_avoids_handoff():
    env, cluster, p = make()
    d1 = drive(env, p, 1, 10)
    # Subsequent request for the same file arriving AT the server node:
    d2 = drive(env, p, d1.target, 10)
    assert d2.target == d1.target
    assert not d2.forwarded


def test_remote_target_is_forwarded():
    env, cluster, p = make()
    d1 = drive(env, p, 1, 10)
    other = next(n for n in (1, 2, 3, 4) if n != d1.target)
    d2 = drive(env, p, other, 10)
    assert d2.target == d1.target
    assert d2.forwarded


def test_dispatcher_failure_is_fatal():
    env, cluster, p = make()
    p.on_node_failed(0)
    with pytest.raises(ServiceUnavailable):
        p.decide_cb(1, 10, lambda d: None, lambda: None)


def test_serving_node_failure_is_survivable():
    env, cluster, p = make()
    d1 = drive(env, p, 1, 10)
    p.on_node_failed(d1.target)
    d2 = drive(env, p, 1, 10)
    assert d2.target != d1.target
    assert 0 not in {p.initial_node(k, 0) for k in range(20)}
    assert d1.target not in {p.initial_node(k, 0) for k in range(20)}


def test_single_node_degenerates():
    env, cluster, p = make(nodes=1)
    assert p.initial_node(0, 1) == 0
    d = drive(env, p, 0, 1)
    assert d.target == 0 and not d.forwarded


def test_stats_include_queries():
    env, cluster, p = make()
    drive(env, p, 1, 10)
    assert p.stats()["queries"] == 1


def test_lost_reply_rolls_back_the_view_and_fails():
    """The dispatcher decided, but its reply died: the view charge is
    undone and the caller hears ``failed``."""
    env, cluster, p = make()
    decisions, failures = [], []
    p.decide_cb(1, 10, decisions.append, lambda: failures.append(env.now))
    # Node 1 dies after its query left but before the reply lands.
    env.call_later(10e-6, lambda: cluster.node(1).crash())
    env.run()
    assert decisions == [] and len(failures) == 1
    assert cluster.net.dropped_counts == {"lardng_reply": 1}
    assert sum(p.stats()["front_end_view"]) == 0
