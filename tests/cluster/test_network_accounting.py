"""Accounting equivalence of the two ways to start a message.

``transmit_cb`` (a sender that waits: the first charge starts inline)
and ``send_message_cb`` (fire-and-forget: the first charge starts at an
urgent kick) must move the same counters at the same simulated times,
including under an active netfault layer — loss/dup/jitter draws happen
at the switch stage in both, in the same event order, off the same
seeded RNG.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.netfaults import NetFaultConfig


def make_cluster(nodes=3, net_faults=None):
    env = Environment()
    config = ClusterConfig(nodes=nodes, cache_bytes=1 * MB, net_faults=net_faults)
    return env, Cluster(env, config)


def counters(net):
    return {
        "sent": dict(net.message_counts),
        "delivered": dict(net.delivered_counts),
        "dropped": dict(net.dropped_counts),
        "causes": dict(net.drop_causes),
        "dups": dict(net.dup_counts),
        "in_flight": dict(net.in_flight_counts),
    }


#: (src, dst, size_kb, kind) of a burst that mixes sizes and directions.
BURST = [
    (0, 1, 1.0, "a"),
    (1, 2, 8.0, "b"),
    (2, 0, 0.5, "a"),
    (0, 2, 16.0, "c"),
    (1, 0, 2.0, "b"),
    (2, 1, 4.0, "a"),
] * 10


def run_awaited_burst(net, env):
    for src, dst, size, kind in BURST:
        net.transmit_cb(src, dst, size, kind, lambda ok: None)
    env.run()


def run_cb_burst(net, env):
    for src, dst, size, kind in BURST:
        net.send_message_cb(src, dst, size, kind)
    env.run()


@pytest.mark.parametrize(
    "nf",
    [
        None,
        NetFaultConfig(loss_rate=0.25, dup_rate=0.2, jitter_s=2e-6, seed=5),
    ],
    ids=["perfect", "lossy"],
)
def test_awaited_and_fire_and_forget_account_identically(nf):
    env_g, cluster_g = make_cluster(net_faults=nf)
    run_awaited_burst(cluster_g.net, env_g)
    env_c, cluster_c = make_cluster(net_faults=nf)
    run_cb_burst(cluster_c.net, env_c)

    assert counters(cluster_g.net) == counters(cluster_c.net)
    assert env_g.now == env_c.now
    # The burst drained: nothing is still in flight.
    assert cluster_g.net.in_flight_total() == 0
    # Books close: sent == delivered + dropped, kind by kind.
    for kind, sent in cluster_g.net.message_counts.items():
        assert sent == cluster_g.net.delivered_counts.get(
            kind, 0
        ) + cluster_g.net.dropped_counts.get(kind, 0)


def test_lossy_burst_actually_drops_and_duplicates():
    nf = NetFaultConfig(loss_rate=0.25, dup_rate=0.2, seed=5)
    env, cluster = make_cluster(net_faults=nf)
    run_cb_burst(cluster.net, env)
    assert sum(cluster.net.dropped_counts.values()) > 0
    assert sum(cluster.net.dup_counts.values()) > 0
    assert cluster.net.drop_causes.get("loss", 0) > 0


def test_send_counters_move_synchronously_in_both_paths():
    env, cluster = make_cluster()
    cluster.net.send_message_cb(0, 1, 1.0, "x")
    # The fire-and-forget form counts at call time, before its kick...
    assert cluster.net.message_counts == {"x": 1}
    assert cluster.net.in_flight_counts == {"x": 1}
    # ...exactly like the awaited form.
    cluster.net.transmit_cb(0, 1, 1.0, "x", lambda ok: None)
    assert cluster.net.message_counts == {"x": 2}
    env.run()
    assert cluster.net.delivered_counts == {"x": 2}
    assert cluster.net.in_flight_counts == {"x": 0}


def test_callback_path_reports_drops():
    nf = NetFaultConfig(always_on=True)
    env, cluster = make_cluster(net_faults=nf)
    cluster.net.netfaults.link_down(0, 1)
    got, lost = [], []
    cluster.net.send_message_cb(
        0, 1, 1.0, "x", done=lambda: got.append(1), on_drop=lambda: lost.append(1)
    )
    cluster.net.send_message_cb(
        0, 2, 1.0, "x", done=lambda: got.append(1), on_drop=lambda: lost.append(1)
    )
    env.run()
    assert (got, lost) == ([1], [1])
    assert cluster.net.drop_causes == {"link": 1}


def test_reset_accounting_keeps_in_flight_level():
    env, cluster = make_cluster()
    cluster.net.send_message_cb(0, 1, 64.0, "bulk")
    env.run(until=1e-6)  # mid-flight
    assert cluster.net.in_flight_counts == {"bulk": 1}
    cluster.net.reset_accounting()
    assert cluster.net.message_counts == {}
    # The level survives the reset so post-warmup reconciliation holds.
    assert cluster.net.in_flight_counts == {"bulk": 1}
    env.run()
    assert cluster.net.in_flight_counts == {"bulk": 0}
    assert cluster.net.delivered_counts == {"bulk": 1}
