"""Unit tests for the request lifecycle against hand-built clusters."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.faults import FaultSchedule, RetryPolicy
from repro.model import MB
from repro.servers import RoundRobinPolicy, make_policy
from repro.sim import Simulation
from repro.sim.lifecycle import NodeFailedError, start_fast_request
from repro.workload import FileSet, Trace


def setup(nodes=2, policy_name="round-robin", cache_mb=1, **config):
    env = Environment()
    cluster = Cluster(
        env, ClusterConfig(nodes=nodes, cache_bytes=cache_mb * MB, **config)
    )
    policy = make_policy(policy_name)
    policy.bind(cluster)
    return env, cluster, policy


def run_one(env, cluster, policy, index=0, file_id=0, size=10 * 1024):
    done = []
    start_fast_request(
        cluster,
        policy,
        index,
        file_id,
        size,
        lambda i, t, fwd, miss: done.append((i, t, fwd, miss)),
    )
    env.run()
    return done


def test_single_request_completes_and_reports():
    env, cluster, policy = setup()
    done = run_one(env, cluster, policy)
    assert len(done) == 1
    index, start, forwarded, miss = done[0]
    assert index == 0
    assert start == 0.0
    assert not forwarded
    assert miss  # cold cache


def test_request_time_breakdown_local_miss():
    """End-to-end time of an uncontended local-miss request is the sum of
    its stage times (Table 1)."""
    env, cluster, policy = setup()
    size = 10 * 1024
    run_one(env, cluster, policy, size=size)
    hw = cluster.config.hardware
    kb = 10.0
    expected = (
        hw.route_time(hw.request_kb)
        + hw.ni_message_time(hw.request_kb)
        + hw.parse_time()
        + hw.disk_time(kb)
        + hw.reply_time(kb)
        + hw.ni_reply_time(kb)
        + hw.route_time(kb)
    )
    assert env.now == pytest.approx(expected, rel=1e-9)


def test_second_request_hits_cache():
    env, cluster, policy = setup(nodes=1)
    run_one(env, cluster, policy, index=0, file_id=7)
    t1 = env.now
    done = run_one(env, cluster, policy, index=1, file_id=7)
    assert not done[0][3]  # no miss
    # Hit path is faster than the miss path by the disk time.
    assert env.now - t1 < t1


def test_forwarded_request_charges_handoff():
    env, cluster, policy = setup(nodes=4, policy_name="consistent-hash")
    # Find a file whose owner differs from the arrival node of index 0.
    owner0 = policy.owner_of(0)
    arrival = policy.initial_node(0, 0)
    fid = 0
    while policy.owner_of(fid) == arrival:
        fid += 1
    done = run_one(env, cluster, policy, index=0, file_id=fid)
    assert done[0][2]  # forwarded
    target = policy.owner_of(fid)
    assert cluster.node(target).completed == 1
    assert cluster.node(arrival).forwarded == 1
    assert cluster.net.message_counts.get("handoff") == 1
    # Forward CPU work happened at the arrival node.
    assert cluster.node(arrival).cpu.busy_time() > 0


def test_connection_opens_and_closes_at_service_node():
    env, cluster, policy = setup(nodes=1)
    states = []

    def watcher(env, node):
        while True:
            yield env.timeout(0.001)
            states.append(node.open_connections)

    node = cluster.node(0)
    env.process(watcher(env, node))
    start_fast_request(cluster, policy, 0, 0, 100 * 1024)
    env.run(until=0.05)
    assert max(states) == 1
    assert node.open_connections == 0
    assert node.completed == 1


def test_connection_closed_even_on_failure():
    """A remote DFS read that cannot reach the file's home (no local
    fallback without a netfault layer) aborts the request after the
    service connection opened; the connection must close."""
    env, cluster, policy = setup(nodes=2, replicated_disks=False)
    served = policy.initial_node(0, 0)
    done, failed = [], []
    # Round-robin serves index 0 where it arrives; the file lives on
    # the other node (home = file id mod 2), which is down.
    start_fast_request(
        cluster, policy, 0, 1 - served, 10 * 1024,
        lambda i, t, fwd, miss: done.append(i), failed.append,
    )
    cluster.node(1 - served).crash()
    env.run()
    assert failed == [0] and done == []
    assert cluster.dfs.remote_reads == 1
    assert cluster.dfs.remote_failures == 1
    assert cluster.node(served).open_connections == 0
    assert cluster.net.in_flight_total() == 0


def test_remote_dfs_read_charges_the_home_disk():
    env, cluster, policy = setup(nodes=2, replicated_disks=False)
    served = policy.initial_node(0, 0)
    home = 1 - served
    done = run_one(env, cluster, policy, index=0, file_id=home)
    assert done[0][3]  # a miss
    assert cluster.dfs.remote_reads == 1 and cluster.dfs.local_reads == 0
    assert cluster.node(home).disk.busy_time() > 0
    assert cluster.node(served).disk.busy_time() == 0
    assert cluster.net.message_counts == {"dfs_req": 1, "dfs_data": 1}
    assert cluster.node(served).cache.lookup(home)


# -- abort paths (fault-injection runs) ---------------------------------------


def run_one_abortable(env, cluster, policy, index=0, file_id=0, size=10 * 1024):
    done, failed = [], []
    request = start_fast_request(
        cluster,
        policy,
        index,
        file_id,
        size,
        lambda i, t, fwd, miss: done.append(i),
        lambda i: failed.append(i),
    )
    return request, done, failed


def test_service_crash_aborts_and_fires_on_failed():
    env, cluster, policy = setup(nodes=1)
    request, done, failed = run_one_abortable(env, cluster, policy)
    node = cluster.node(0)
    env.schedule_callback(1e-4, node.crash)
    env.run()
    assert failed == [0]
    assert done == []
    # The finally block released any connection the request held.
    assert node.open_connections == 0
    assert node.completed == 0


def test_incarnation_mismatch_aborts_after_quick_reboot():
    """A request dispatched against incarnation 0 must abort even if the
    node has already rebooted (as incarnation 1) by the time the request
    reaches its next stage boundary: its connection died with the old
    incarnation."""
    env, cluster, policy = setup(nodes=1)
    request, done, failed = run_one_abortable(env, cluster, policy)
    node = cluster.node(0)
    env.schedule_callback(1e-4, node.crash)
    env.schedule_callback(2e-4, node.recover)
    env.run()
    assert not node.failed and node.incarnation == 1
    assert failed == [0]
    assert done == []


def test_abort_without_handler_propagates():
    env, cluster, policy = setup(nodes=1)
    start_fast_request(cluster, policy, 0, 0, 10 * 1024)
    env.schedule_callback(1e-4, cluster.node(0).crash)
    with pytest.raises(NodeFailedError):
        env.run()
    assert cluster.node(0).open_connections == 0


def test_client_timeout_interrupt_aborts_request():
    """The driver models client timeouts by cancelling the request's
    chain; the request aborts like a node failure, but at once."""
    env, cluster, policy = setup(nodes=1)
    request, done, failed = run_one_abortable(env, cluster, policy)
    env.schedule_callback(1e-4, request.cancel)
    env.run()
    assert failed == [0]
    assert done == []
    assert cluster.node(0).open_connections == 0


def test_cancel_frees_the_held_station_at_once():
    """Cancelled mid-disk-read, the request frees the disk at the cancel
    instant, so a queued reader starts then, not when the read would
    have ended."""
    env, cluster, policy = setup(nodes=1)
    request, _, failed = run_one_abortable(env, cluster, policy, size=1000 * 1024)
    disk = cluster.node(0).disk
    cut = []

    def cancel_mid_read():
        assert disk.count == 1
        request.cancel()
        env.schedule_callback(0.0, lambda: cut.append(disk.count))

    env.schedule_callback(5e-3, cancel_mid_read)
    env.run()
    assert failed == [0] and cut == [0]
    # The disk went idle at the cancel, long before the read would end.
    assert disk.busy_time() < 5e-3 < cluster.config.hardware.disk_time(1000.0)


def test_cancel_withdraws_a_queued_request():
    """Cancelled while it waits in a station queue, the request leaves
    the queue and the station never serves it."""
    env, cluster, policy = setup(nodes=1)
    first, done, _ = run_one_abortable(env, cluster, policy, index=0, size=1000 * 1024)
    second, _, failed = run_one_abortable(env, cluster, policy, index=1, size=1000 * 1024)
    disk = cluster.node(0).disk

    def cancel_queued():
        assert disk.count == 1 and disk.queue_length == 1
        second.cancel()
        env.schedule_callback(0.0, lambda: queued.append(disk.queue_length))

    queued = []
    env.schedule_callback(5e-3, cancel_queued)
    env.run()
    assert failed == [1] and done == [0] and queued == [0]
    assert disk.total_served == 1
    assert cluster.node(0).open_connections == 0


def test_cancel_after_completion_is_a_no_op():
    env, cluster, policy = setup(nodes=1)
    request, done, failed = run_one_abortable(env, cluster, policy)
    env.run()
    request.cancel()
    env.run()
    assert done == [0] and failed == []


def test_timeout_mid_handoff_delivers_the_message():
    """A client timeout that lands while the request's hand-off message
    is in flight leaves the message to run to its delivery: every
    in-flight level returns to zero and the sanitizer reports no
    undelivered message.  (Node 0 runs at 1/1000 speed until the retry,
    so the first attempt's hand-off spans the 0.26 s timeout.)"""
    trace = Trace("one", FileSet(np.array([8 * 1024]), 1.0), np.array([0]))
    sim = Simulation(
        trace,
        make_policy("lard"),
        ClusterConfig(nodes=2),
        warmup_fraction=0.0,
        faults=FaultSchedule.parse("slow:0@0x0.001,slow:0@0.27x1"),
        retry=RetryPolicy(timeout_s=0.26, max_retries=1),
        sanitize=True,
    )
    result = sim.run()
    assert result.requests_retried == 1 and result.requests_failed == 0
    net = sim.cluster.net
    assert net.in_flight_counts == {"handoff": 0}
    assert net.delivered_counts == {"handoff": 2}
    report = sim.env.sanitizer.finish()
    assert report.clean, report.render()


def test_traditional_abort_balances_dispatcher_view():
    """An aborted request must not leave a phantom connection in the
    traditional dispatcher's assigned-connections view, whether it died
    before or after the service node opened the connection."""
    env, cluster, policy = setup(nodes=2, policy_name="traditional")
    request, done, failed = run_one_abortable(env, cluster, policy)
    mid_flight = []

    def crash():
        mid_flight.append(list(policy.stats()["dispatcher_view"]))
        cluster.node(0).crash()
        policy.on_node_failed(0)

    env.schedule_callback(1e-4, crash)
    env.run()
    assert mid_flight == [[1, 0]]  # assignment was counted while in flight
    assert failed == [0]
    assert policy.stats()["dispatcher_view"] == [0, 0]


def test_router_contention_serializes_big_replies():
    env, cluster, policy = setup(nodes=2, cache_mb=64)
    big = 5000 * 1024  # 5 MB replies: 10 ms each through the router
    done = []
    for i in range(2):
        start_fast_request(
            cluster, policy, i, i, big, lambda i, t, f, m: done.append(env.now)
        )
    env.run()
    # The second reply's router transfer must wait for the first.
    assert done[1] - done[0] == pytest.approx(
        cluster.config.hardware.route_time(5000.0), rel=0.2
    )
