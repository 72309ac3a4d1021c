"""Tests for the optional switch-fabric contention model."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB


def make(contention: bool, nodes=3):
    env = Environment()
    cfg = ClusterConfig(
        nodes=nodes, cache_bytes=1 * MB, model_switch_contention=contention
    )
    return env, Cluster(env, cfg)


def test_disabled_by_default():
    env, cluster = make(False)
    assert cluster.net.switch_ports is None


def test_ports_created_when_enabled():
    env, cluster = make(True)
    assert len(cluster.net.switch_ports) == 3


def send(env, cluster, sends):
    """Send one message per ``(src, dst, size_kb)``; run; delivery times."""
    done = []
    for src, dst, size_kb in sends:
        cluster.net.send_message_cb(
            src, dst, size_kb, done=lambda: done.append(env.now)
        )
    env.run()
    return done


def test_single_message_latency_slightly_higher_with_contention():
    env1, c1 = make(False)
    (t1,) = send(env1, c1, [(0, 1, 64.0)])
    env2, c2 = make(True)
    (t2,) = send(env2, c2, [(0, 1, 64.0)])
    # Uncontended: only the fabric transfer time is added.
    assert t2 > t1
    assert t2 - t1 == pytest.approx(64.0 / 128_000.0, rel=1e-6)


def test_destination_port_serializes_concurrent_senders():
    env, cluster = make(True)
    # 640 KB: a 5 ms fabric transfer each.
    t0, t1 = sorted(send(env, cluster, [(0, 2, 640.0), (1, 2, 640.0)]))
    # The second transfer had to wait for the port (~one transfer time).
    assert t1 - t0 == pytest.approx(640.0 / 128_000.0, rel=0.2)


def test_different_destinations_do_not_contend():
    env, cluster = make(True)
    # Same destination port: serialized.
    serialized_last = max(send(env, cluster, [(0, 1, 640.0), (2, 1, 640.0)]))
    env2, cluster2 = make(True)
    # Distinct ports: parallel.
    assert max(send(env2, cluster2, [(0, 1, 640.0), (2, 0, 640.0)])) < serialized_last
