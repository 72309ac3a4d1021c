"""Tests for the ack/retry/dedup reliability protocol."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.netfaults import ARQ_RETRY, NetFaultConfig


def make_cluster(nodes=2, **nf_kwargs):
    nf_kwargs.setdefault("always_on", True)
    env = Environment()
    config = ClusterConfig(
        nodes=nodes, cache_bytes=1 * MB, net_faults=NetFaultConfig(**nf_kwargs)
    )
    return env, Cluster(env, config)


def request(env, proto, src, dst, kind="handoff"):
    """One stop-and-wait exchange run to its outcome."""
    outcome = []
    proto.request_cb(src, dst, 1.0, kind, outcome.append)
    env.run()
    assert len(outcome) == 1
    return outcome[0]


def test_active_config_attaches_layer_and_protocol():
    env, cluster = make_cluster()
    assert cluster.net.netfaults is not None
    assert cluster.net.protocol is not None
    assert cluster.net.protocol.covers("handoff")
    assert not cluster.net.protocol.covers("l2s_load")


def test_inert_config_attaches_nothing():
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(nodes=2, cache_bytes=1 * MB, net_faults=NetFaultConfig()),
    )
    assert cluster.net.netfaults is None
    assert cluster.net.protocol is None


def test_request_cb_perfect_fabric_delivers_and_acks_once():
    env, cluster = make_cluster()
    proto = cluster.net.protocol
    ok = request(env, proto, 0, 1)
    assert ok is True
    assert cluster.net.delivered_counts == {"handoff": 1, "handoff_ack": 1}
    assert proto.acks == {"handoff": 1}
    assert proto.retries == {} and proto.failures == {} and proto.dedups == {}


def test_request_cb_same_node_shortcut():
    env, cluster = make_cluster()
    ok = request(env, cluster.net.protocol, 0, 0)
    assert ok is True
    assert env.now == 0.0
    assert cluster.net.messages_sent == 0


def test_request_cb_gives_up_after_retries_on_a_dead_link():
    spec = replace(ARQ_RETRY, 
        timeout_s=1e-3, max_retries=2, base_backoff_s=1e-3, multiplier=2.0,
        cap_s=1e-2,
    )
    env, cluster = make_cluster(default_spec=spec)
    proto = cluster.net.protocol
    cluster.net.netfaults.link_down(0, 1)
    ok = request(env, proto, 0, 1)
    assert ok is False
    assert proto.retries == {"handoff": 2}
    assert proto.failures == {"handoff": 1}
    assert cluster.net.dropped_counts == {"handoff": 3}
    assert cluster.net.drop_causes == {"link": 3}
    # Three 1 ms ack deadlines plus the 1 ms and 2 ms backoff pauses.
    assert env.now == pytest.approx(6e-3, rel=0.05)


def test_request_cb_succeeds_once_the_link_heals():
    spec = replace(
        ARQ_RETRY, timeout_s=1e-3, max_retries=5, base_backoff_s=0.0, cap_s=0.0
    )
    env, cluster = make_cluster(default_spec=spec)
    proto = cluster.net.protocol
    cluster.net.netfaults.link_down(0, 1)
    env.call_later(2.5e-3, lambda: cluster.net.netfaults.link_up(0, 1))
    ok = request(env, proto, 0, 1)
    assert ok is True
    assert proto.retries.get("handoff", 0) >= 2
    assert proto.failures == {}
    assert cluster.net.delivered_counts["handoff"] == 1


def test_send_cb_perfect_fabric_delivers_once():
    env, cluster = make_cluster()
    proto = cluster.net.protocol
    seen = []
    proto.send_cb(0, 1, 1.0, "l2s_set", deliver=lambda: seen.append(env.now))
    env.run()
    assert len(seen) == 1
    assert proto.acks == {"l2s_set": 1}
    assert proto.failures == {}


def test_send_cb_failure_callback_after_retries_exhaust():
    spec = replace(
        ARQ_RETRY, timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0
    )
    env, cluster = make_cluster(default_spec=spec)
    proto = cluster.net.protocol
    cluster.net.netfaults.link_down(0, 1)
    delivered, failed = [], []
    proto.send_cb(
        0, 1, 1.0, "l2s_set",
        deliver=lambda: delivered.append(env.now),
        failed=lambda: failed.append(env.now),
    )
    env.run()
    assert delivered == []
    assert len(failed) == 1
    assert proto.retries == {"l2s_set": 1}
    assert proto.failures == {"l2s_set": 1}


def test_send_cb_same_node_shortcut_fires_deliver():
    env, cluster = make_cluster()
    seen = []
    cluster.net.protocol.send_cb(1, 1, 1.0, "l2s_set", deliver=lambda: seen.append(1))
    env.run()
    assert seen == [1]
    assert cluster.net.messages_sent == 0


def test_lossy_protocol_is_deterministic_and_dedups():
    def totals(seed):
        env, cluster = make_cluster(
            loss_rate=0.4,
            seed=seed,
            always_on=False,
            default_spec=replace(ARQ_RETRY, 
                timeout_s=1e-3, max_retries=6, base_backoff_s=1e-4,
                multiplier=2.0, cap_s=1e-3,
            ),
        )
        proto = cluster.net.protocol
        outcomes = []

        def next_send(ok=None):
            # 60 exchanges, each starting when the previous one resolves.
            if ok is not None:
                outcomes.append(ok)
            if len(outcomes) < 60:
                proto.request_cb(0, 1, 1.0, "handoff", next_send)

        next_send()
        env.run()
        return outcomes, dict(proto.retries), dict(proto.dedups), env.now

    a = totals(11)
    b = totals(11)
    assert a == b
    outcomes, retries, dedups, _ = a
    # 40% loss forces retransmissions, and lost acks force deduped
    # retransmissions of already-delivered payloads.
    assert retries.get("handoff", 0) > 0
    assert dedups.get("handoff", 0) > 0
    # An attempt succeeds only when payload AND ack both cross (p=0.36),
    # so a few of the 60 sends may exhaust all 7 attempts and give up.
    assert sum(outcomes) >= 50
    assert totals(12) != a  # a different seed takes a different path


def test_send_control_cb_uses_control_sizing():
    env, cluster = make_cluster()
    proto = cluster.net.protocol
    seen = []
    cluster.net.send_control_cb(0, 1, "l2s_set", done=lambda: seen.append(env.now))
    env.run()
    assert len(seen) == 1
    assert proto.acks == {"l2s_set": 1}
    # One-way control latency matches the bare fabric's 19 us budget.
    assert seen[0] == pytest.approx(cluster.config.one_way_message_latency(), rel=1e-6)


def test_interconnect_decides_which_control_messages_are_reliable():
    env, cluster = make_cluster(nodes=3)
    net = cluster.net
    seen = []
    net.send_control_cb(0, 1, "lard_done", done=lambda: seen.append("lard_done"))
    net.broadcast_control(0, kind="l2s_set")
    net.send_control_cb(0, 1, "l2s_load", done=lambda: seen.append("l2s_load"))
    net.broadcast_control(0, kind="lardng_elect")
    env.run()
    assert sorted(seen) == ["l2s_load", "lard_done"]
    # Covered kinds are acked through the messenger; load broadcasts and
    # dispatcher elections stay best-effort.
    assert net.protocol.acks == {"lard_done": 1, "l2s_set": 2}
    assert net.message_counts == {
        "lard_done": 1, "lard_done_ack": 1,
        "l2s_set": 2, "l2s_set_ack": 2,
        "l2s_load": 1, "lardng_elect": 2,
    }


def test_covered_control_message_drops_only_after_retries_exhaust():
    spec = replace(
        ARQ_RETRY, timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0
    )
    env, cluster = make_cluster(default_spec=spec)
    net = cluster.net
    net.netfaults.link_down(0, 1)
    dropped = []
    net.send_control_cb(0, 1, "lard_done", on_drop=lambda: dropped.append("lard_done"))
    net.send_control_cb(0, 1, "l2s_load", on_drop=lambda: dropped.append("l2s_load"))
    env.run()
    assert dropped == ["l2s_load", "lard_done"]
    assert net.protocol.retries == {"lard_done": 1}
    assert net.protocol.failures == {"lard_done": 1}
    assert net.dropped_counts == {"lard_done": 2, "l2s_load": 1}


def test_reset_accounting_clears_protocol_counters():
    env, cluster = make_cluster()
    proto = cluster.net.protocol
    request(env, proto, 0, 1)
    assert proto.acks
    cluster.net.reset_accounting()
    assert proto.acks == {} and proto.retries == {}
    assert proto.stats() == {
        "retries": {}, "acks": {}, "dedups": {}, "failures": {},
    }
