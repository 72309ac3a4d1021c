"""Messages in flight when their receiver crashes.

A crash must kill every message bound for the dead incarnation — at the
switch, in the NI, or on the receiver's CPU — and a recovered node must
never see bytes sent to its previous incarnation.  Both send forms (a
sender that waits, a fire-and-forget one) report the drop
(``cause == "crash"``) and the reliability protocol turns repeated crash
drops into a give-up.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.netfaults import NetFaultConfig, RetrySpec


def make_cluster(nodes=2, net_faults=None):
    env = Environment()
    config = ClusterConfig(nodes=nodes, cache_bytes=1 * MB, net_faults=net_faults)
    return env, Cluster(env, config)


def awaited(env, cluster, size_kb, kind, at=None, action=None):
    """Send 0 -> 1 through ``transmit_cb`` (with ``action`` at time
    ``at``) and run; returns the reported outcome."""
    outcome = []
    cluster.net.transmit_cb(0, 1, size_kb, kind, outcome.append)
    if action is not None:
        env.call_later(at, lambda _e: action())
    env.run()
    assert len(outcome) == 1
    return outcome[0]


def test_awaited_message_to_crashed_node_is_dropped():
    env, cluster = make_cluster()
    cluster.node(1).crash()
    ok = awaited(env, cluster, 1.0, "x")
    assert ok is False
    assert cluster.net.dropped_counts == {"x": 1}
    assert cluster.net.drop_causes == {"crash": 1}
    assert cluster.net.in_flight_total() == 0


def test_crash_mid_flight_kills_the_message():
    env, cluster = make_cluster()
    # A bulk message whose NI occupancy far outlasts the crash time.
    ok = awaited(env, cluster, 500.0, "bulk", 1e-6, cluster.node(1).crash)
    assert ok is False
    assert cluster.net.drop_causes == {"crash": 1}


def test_crash_then_recover_still_drops_old_incarnation_bytes():
    env, cluster = make_cluster()

    def flap():
        cluster.node(1).crash()
        cluster.node(1).recover()

    ok = awaited(env, cluster, 500.0, "bulk", 1e-6, flap)
    # The node is back up, but the message belonged to incarnation 0.
    assert not cluster.node(1).failed
    assert ok is False
    assert cluster.net.drop_causes == {"crash": 1}


def test_callback_message_to_crashed_node_fires_on_drop():
    env, cluster = make_cluster()
    cluster.node(1).crash()
    got, lost = [], []
    cluster.net.send_message_cb(
        0, 1, 1.0, "x", done=lambda: got.append(1), on_drop=lambda: lost.append(1)
    )
    env.run()
    assert (got, lost) == ([], [1])
    assert cluster.net.drop_causes == {"crash": 1}


def test_callback_crash_mid_flight():
    env, cluster = make_cluster()
    lost = []
    cluster.net.send_message_cb(0, 1, 500.0, "bulk", on_drop=lambda: lost.append(1))
    env.call_later(1e-6, lambda _e: cluster.node(1).crash())
    env.run()
    assert lost == [1]
    assert cluster.net.in_flight_total() == 0


def test_protocol_gives_up_on_a_crashed_receiver():
    spec = RetrySpec(timeout_s=1e-3, max_retries=2, base_backoff_s=0.0, cap_s=0.0)
    env, cluster = make_cluster(
        net_faults=NetFaultConfig(always_on=True, default_spec=spec)
    )
    proto = cluster.net.protocol
    cluster.node(1).crash()
    ok = awaited(env, cluster, 1.0, "handoff")
    assert ok is False
    assert proto.failures == {"handoff": 1}
    assert cluster.net.drop_causes == {"crash": 3}


def test_protocol_rides_out_a_crash_recover_cycle():
    spec = RetrySpec(timeout_s=1e-3, max_retries=5, base_backoff_s=0.0, cap_s=0.0)
    env, cluster = make_cluster(
        net_faults=NetFaultConfig(always_on=True, default_spec=spec)
    )
    proto = cluster.net.protocol
    cluster.node(1).crash()
    ok = awaited(env, cluster, 1.0, "handoff", 2.5e-3, cluster.node(1).recover)
    assert ok is True
    assert proto.retries.get("handoff", 0) >= 2
    assert cluster.net.delivered_counts["handoff"] == 1
    assert cluster.net.drop_causes.get("crash", 0) >= 2


def test_crash_drops_reconcile_with_in_flight_level():
    env, cluster = make_cluster(nodes=3)
    for dst in (1, 2):
        for _ in range(5):
            cluster.net.send_message_cb(0, dst, 50.0, "bulk")
    env.call_later(1e-6, lambda _e: cluster.node(1).crash())
    env.run()
    net = cluster.net
    assert net.message_counts["bulk"] == 10
    assert net.in_flight_total() == 0
    assert net.message_counts["bulk"] == net.delivered_counts.get(
        "bulk", 0
    ) + net.dropped_counts.get("bulk", 0)
    assert net.dropped_counts.get("bulk", 0) == net.drop_causes.get("crash", 0) == 5
