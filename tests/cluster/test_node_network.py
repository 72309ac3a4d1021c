"""Tests for Node hardware, the interconnect, and the DFS read path."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.servers import make_policy
from repro.sim.lifecycle import start_fast_request


def make_cluster(nodes=4, **cfg):
    env = Environment()
    config = ClusterConfig(nodes=nodes, cache_bytes=cfg.pop("cache_bytes", 1 * MB), **cfg)
    return env, Cluster(env, config)


def serve(env, cluster, file_id, size, index=0):
    """Run one round-robin request to completion; returns its node."""
    policy = make_policy("round-robin")
    policy.bind(cluster)
    start_fast_request(cluster, policy, index, file_id, size)
    env.run()
    return policy.initial_node(index, file_id)


def read(env, cluster, node_id, file_id, size_kb):
    """One DFS miss read; returns how it was served."""
    how = []
    cluster.dfs.read_cb(
        node_id, file_id, size_kb,
        lambda: how.append("local"),
        lambda: how.append("remote"),
        lambda: how.append("failed"),
    )
    env.run()
    return how[0]


def send(env, cluster, src, dst, size_kb, **kwargs):
    """Send one message and run; returns the delivery time."""
    delivered = []
    cluster.net.send_message_cb(
        src, dst, size_kb, done=lambda: delivered.append(env.now), **kwargs
    )
    env.run()
    return delivered[0]


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(cache_bytes=0)
    with pytest.raises(ValueError):
        ClusterConfig(multiprogramming_per_node=0)
    with pytest.raises(ValueError):
        ClusterConfig(cpu_msg_overhead_s=-1)
    with pytest.raises(ValueError):
        ClusterConfig(control_kb=0)


def test_config_one_way_latency_is_19us():
    """M-VIA: a 4-byte message takes ~19 us end to end."""
    cfg = ClusterConfig()
    assert cfg.one_way_message_latency() == pytest.approx(19e-6, rel=0.05)


def test_config_model_parameters_inherit_hardware():
    cfg = ClusterConfig(nodes=8, cache_bytes=32 * MB)
    p = cfg.model_parameters(replication=0.15, alpha=0.9)
    assert p.nodes == 8
    assert p.cache_bytes == 32 * MB
    assert p.replication == 0.15
    assert p.alpha == 0.9


def test_node_cpu_occupancy_is_serialized():
    env, cluster = make_cluster(1)
    node = cluster.node(0)
    done = []

    def work(name):
        with node.cpu.request() as req:
            yield req
            yield env.timeout(1.0)
        done.append((name, env.now))

    env.process(work("a"))
    env.process(work("b"))
    env.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_node_parse_reply_disk_times_match_table1():
    hw = ClusterConfig().hardware
    assert hw.parse_time() == pytest.approx(1 / 6300)
    assert hw.reply_time(12.0) == pytest.approx(0.0001 + 12 / 12000)
    assert hw.disk_time(100.0) == pytest.approx(0.028 + 100 / 10000)
    assert hw.forward_time() == pytest.approx(1 / 10000)


def test_connection_accounting():
    env, cluster = make_cluster(2)
    node = cluster.node(0)
    node.connection_opened()
    node.connection_opened()
    assert node.open_connections == 2
    node.connection_closed()
    assert node.open_connections == 1
    assert node.completed == 1
    node.connection_closed()
    with pytest.raises(RuntimeError):
        node.connection_closed()


def test_serve_file_hit_is_instant_miss_reads_disk():
    env, cluster = make_cluster(1)
    node = cluster.node(0)
    serve(env, cluster, 7, 10 * 1024, index=0)
    miss_time = env.now
    serve(env, cluster, 7, 10 * 1024, index=1)
    # The hit skips exactly the disk read.
    hit_time = env.now - miss_time
    assert miss_time - hit_time == pytest.approx(0.028 + 10 / 10000)
    assert node.cache.hits == 1 and node.cache.misses == 1


def test_fetch_file_caches_after_miss():
    env, cluster = make_cluster(1)
    serve(env, cluster, 42, 100 * 1024, index=0)
    assert 42 in cluster.node(0).cache
    t0 = env.now
    serve(env, cluster, 42, 100 * 1024, index=1)
    assert env.now - t0 < t0
    assert cluster.overall_miss_rate() == pytest.approx(0.5)


def test_router_serializes_transfers():
    env, cluster = make_cluster(2)
    router = cluster.net.router
    times = []

    def xfer():
        with router.request() as req:
            yield req
            yield env.timeout(cluster.config.hardware.route_time(500.0))
        times.append(env.now)

    env.process(xfer())  # 1 ms each at 500000 KB/s
    env.process(xfer())
    env.run()
    assert times == [pytest.approx(0.001), pytest.approx(0.002)]


def test_send_message_end_to_end_cost():
    env, cluster = make_cluster(2)
    delivered = []
    cluster.net.send_control_cb(0, 1, done=lambda: delivered.append(env.now))
    env.run()
    assert delivered == [
        pytest.approx(cluster.config.one_way_message_latency(), rel=1e-6)
    ]
    assert cluster.net.messages_sent == 1


def test_send_message_same_node_is_free():
    env, cluster = make_cluster(2)
    assert send(env, cluster, 0, 0, 1.0) == 0.0
    assert cluster.net.messages_sent == 0


def test_send_message_validation():
    env, cluster = make_cluster(2)
    with pytest.raises(ValueError):
        cluster.net.send_message_cb(0, 5, 1.0)
    with pytest.raises(ValueError):
        cluster.net.send_message_cb(0, 1, 0.0)


def test_broadcast_control_reaches_all_other_nodes():
    env, cluster = make_cluster(4)
    cluster.net.broadcast_control(1, kind="load")
    env.run()
    assert cluster.net.message_counts["load"] == 3


def test_broadcast_control_exclude():
    env, cluster = make_cluster(4)
    cluster.net.broadcast_control(0, kind="load", exclude=2)
    env.run()
    assert cluster.net.message_counts["load"] == 2


def test_message_occupies_both_nis_and_cpus():
    env, cluster = make_cluster(2)
    send(env, cluster, 0, 1, 64.0)
    n0, n1 = cluster.nodes
    assert n0.ni_out.busy_time() > 0
    assert n1.ni_in.busy_time() > 0
    assert n0.cpu.busy_time() == pytest.approx(3e-6)
    assert n1.cpu.busy_time() == pytest.approx(3e-6)


def test_dfs_replicated_reads_local():
    env, cluster = make_cluster(4)
    node = serve(env, cluster, 7, 10 * 1024)
    assert cluster.dfs.local_reads == 1
    assert cluster.dfs.remote_reads == 0
    assert cluster.node(node).disk.busy_time() > 0


def test_dfs_partitioned_remote_read_costs_more():
    env, cluster = make_cluster(4, replicated_disks=False)
    # file 3 homes at node 3 (3 % 4), so node 0's read is remote.
    assert read(env, cluster, 0, 3, 50.0) == "remote"
    assert cluster.dfs.remote_reads == 1
    assert env.now > cluster.config.hardware.disk_time(50.0)
    # The remote disk did the work.
    assert cluster.node(3).disk.busy_time() > 0
    assert cluster.node(0).disk.busy_time() == 0


def test_dfs_partitioned_local_home():
    env, cluster = make_cluster(4, replicated_disks=False)
    assert read(env, cluster, 0, 4, 10.0) == "local"  # 4 % 4 == 0
    assert cluster.dfs.local_reads == 1 and env.now == 0.0


def test_least_loaded_node_with_ties():
    env, cluster = make_cluster(3)
    assert cluster.least_loaded_node() == 0
    cluster.node(0).connection_opened()
    assert cluster.least_loaded_node() == 1
    cluster.node(1).connection_opened()
    cluster.node(1).connection_opened()
    cluster.node(2).connection_opened()
    assert cluster.least_loaded_node() == 0


def test_reset_accounting_preserves_cache_contents():
    env, cluster = make_cluster(2)
    node = serve(env, cluster, 1, 1024)
    cluster.reset_accounting()
    assert 1 in cluster.node(node).cache
    assert cluster.total_cache_misses() == 0
    assert cluster.net.messages_sent == 0
    assert cluster.node(node).disk.busy_time() == 0.0


def test_cluster_len_and_counts():
    env, cluster = make_cluster(5)
    assert len(cluster) == 5
    assert cluster.num_nodes == 5
    assert cluster.connection_counts() == [0] * 5
