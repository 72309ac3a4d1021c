"""Tests for heterogeneous node speeds (extension)."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.servers import make_policy
from repro.sim.lifecycle import start_fast_request


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(nodes=2, node_speeds=(1.0,))
    with pytest.raises(ValueError):
        ClusterConfig(nodes=2, node_speeds=(1.0, 0.0))
    cfg = ClusterConfig(nodes=2, node_speeds=(1.0, 0.5))
    assert cfg.speed_of(0) == 1.0
    assert cfg.speed_of(1) == 0.5


def test_homogeneous_default():
    cfg = ClusterConfig(nodes=3)
    assert all(cfg.speed_of(i) == 1.0 for i in range(3))


def one_request(speed, size_kb=10):
    """One cold request on a single node of the given CPU speed."""
    env = Environment()
    cfg = ClusterConfig(nodes=1, cache_bytes=1 * MB, node_speeds=(speed,))
    cluster = Cluster(env, cfg)
    policy = make_policy("round-robin")
    policy.bind(cluster)
    start_fast_request(cluster, policy, 0, 0, int(size_kb * 1024))
    env.run()
    return env.now, cluster


def cpu_work(size_kb=10):
    hw = ClusterConfig().hardware
    return hw.parse_time() + hw.reply_time(size_kb)


def test_slow_node_takes_longer_on_cpu():
    full, _ = one_request(1.0)
    half, cluster = one_request(0.5)
    # Half speed: the CPU stages take double time, nothing else moves.
    assert half - full == pytest.approx(cpu_work())
    assert cluster.node(0).cpu.busy_time() == pytest.approx(2 * cpu_work())


def test_speed_scales_parse_and_reply():
    full, _ = one_request(1.0)
    double, cluster = one_request(2.0)
    assert full - double == pytest.approx(cpu_work() / 2.0)
    assert cluster.node(0).cpu.busy_time() == pytest.approx(cpu_work() / 2.0)


def test_disk_and_ni_unaffected_by_cpu_speed():
    _, cluster = one_request(2.0)
    node = cluster.node(0)
    hw = cluster.config.hardware
    assert node.disk.busy_time() == pytest.approx(0.028 + 10 / 10000)
    assert node.ni_in.busy_time() == pytest.approx(hw.ni_message_time(hw.request_kb))
    assert node.ni_out.busy_time() == pytest.approx(hw.ni_reply_time(10.0))
