"""PolicyEngine unit tests — no sockets, no subprocesses.

The engine is the tentpole's contract: any ``DistributionPolicy`` runs
against a live membership with the same hook order the simulator fires.
A recording stub policy pins that order; the real policies exercise the
membership/control-plane surface.
"""

import pytest

from repro.servers import (
    Decision,
    DistributionPolicy,
    ServiceUnavailable,
    make_policy,
)
from repro.live import LiveUnsupported, PolicyEngine
from repro.live.clock import WallClock


class RecordingPolicy(DistributionPolicy):
    """Routes everything to node (file_id % n); records every hook."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.calls = []

    def initial_node(self, index, file_id):
        self.calls.append(("initial_node", index, file_id))
        return index % self.cluster.num_nodes

    def decide(self, initial, file_id):
        self.calls.append(("decide", initial, file_id))
        target = file_id % self.cluster.num_nodes
        return Decision(target=target, forwarded=target != initial)

    def on_connection_change(self, node_id):
        self.calls.append(("on_connection_change", node_id))

    def on_connection_end(self, node_id):
        self.calls.append(("on_connection_end", node_id))

    def on_request_aborted(self, node_id, opened):
        self.calls.append(("on_request_aborted", node_id, opened))

    def on_handoff_failed(self, initial, target):
        self.calls.append(("on_handoff_failed", initial, target))


def test_engine_fires_hooks_in_sim_lifecycle_order():
    policy = RecordingPolicy()
    engine = PolicyEngine(policy, num_nodes=4)
    outcome = engine.route(0, 7)
    assert (outcome.initial, outcome.target) == (0, 3)
    assert outcome.forwarded
    engine.connection_opened(outcome.target)
    engine.request_completed(outcome.target)
    # Exactly the simulator's order: initial_node, decide, the open-path
    # connection change, then the close path (change, end).
    assert policy.calls == [
        ("initial_node", 0, 7),
        ("decide", 0, 7),
        ("on_connection_change", 3),
        ("on_connection_change", 3),
        ("on_connection_end", 3),
    ]


def test_engine_tracks_open_connections():
    engine = PolicyEngine(RecordingPolicy(), num_nodes=2)
    engine.connection_opened(1)
    engine.connection_opened(1)
    assert engine.membership.node(1).open_connections == 2
    engine.request_completed(1)
    assert engine.membership.node(1).open_connections == 1
    assert engine.check_invariants() == []


def test_engine_abort_fires_close_hooks_when_opened():
    policy = RecordingPolicy()
    engine = PolicyEngine(policy, num_nodes=2)
    engine.route(0, 1)
    engine.connection_opened(1)
    policy.calls.clear()
    engine.request_aborted(0, opened=True, target=1)
    assert policy.calls == [
        ("on_connection_change", 1),
        ("on_connection_end", 1),
        ("on_request_aborted", 0, True),
    ]
    assert engine.membership.node(1).open_connections == 0
    assert engine.aborted == 1


def test_engine_abort_without_open_skips_close_hooks():
    policy = RecordingPolicy()
    engine = PolicyEngine(policy, num_nodes=2)
    engine.request_aborted(0, opened=False)
    assert policy.calls == [("on_request_aborted", 0, False)]


def test_engine_handoff_failed_reaches_policy():
    policy = RecordingPolicy()
    engine = PolicyEngine(policy, num_nodes=4)
    engine.handoff_failed(0, 3)
    assert policy.calls == [("on_handoff_failed", 0, 3)]
    assert engine.handoffs_failed == 1


def test_engine_rejects_async_decide_policies():
    with pytest.raises(LiveUnsupported):
        PolicyEngine(make_policy("lard-ng"), num_nodes=4)


def test_engine_counts_service_unavailable():
    class DeadPolicy(RecordingPolicy):
        def decide(self, initial, file_id):
            raise ServiceUnavailable("all dead")

    engine = PolicyEngine(DeadPolicy(), num_nodes=2)
    with pytest.raises(ServiceUnavailable):
        engine.route(0, 0)
    assert engine.unavailable == 1
    assert engine.routed == 0


def test_engine_control_plane_counts_and_delivers():
    engine = PolicyEngine(RecordingPolicy(), num_nodes=4)
    seen = []
    engine.net.send_control_cb(0, 1, kind="test_kind", done=lambda: seen.append(1))
    engine.net.broadcast_control(2, kind="bcast")
    assert seen == [1]  # synchronous delivery
    assert engine.net.messages_sent == 1 + 3  # point-to-point + n-1
    assert engine.net.messages_by_kind == {"test_kind": 1, "bcast": 3}


def test_engine_reset_meters_keeps_policy_state():
    engine = PolicyEngine(make_policy("lard"), num_nodes=4)
    for i in range(8):
        outcome = engine.route(i, i % 3)
        engine.connection_opened(outcome.target)
        engine.request_completed(outcome.target)
    before = engine.stats()
    assert before["routed"] == 8
    engine.reset_meters()
    after = engine.stats()
    assert after["routed"] == 0
    assert after["control_messages"] == 0
    # Policy *state* survives: the same file routes to the same backend.
    outcome_a = engine.route(100, 0)
    assert not outcome_a.replicated  # file 0 already has a server


@pytest.mark.parametrize("name", ["traditional", "round-robin", "lard", "l2s",
                                  "consistent-hash", "dns-cached"])
def test_real_policies_run_on_the_live_membership(name):
    engine = PolicyEngine(make_policy(name), num_nodes=4)
    for i in range(50):
        outcome = engine.route(i, i % 7)
        assert 0 <= outcome.target < 4
        engine.connection_opened(outcome.target)
        engine.request_completed(outcome.target)
    assert engine.completed == 50
    assert engine.check_invariants() == []
    assert all(n.open_connections == 0 for n in engine.membership.nodes)


def test_engine_uses_wall_clock_by_default():
    engine = PolicyEngine(make_policy("lard"), num_nodes=2)
    assert isinstance(engine.clock, WallClock)
    assert engine.policy.clock is engine.clock
    t0 = engine.clock.now
    assert t0 >= 0.0
    assert engine.clock.now >= t0


def test_engine_failure_hooks_update_membership():
    engine = PolicyEngine(make_policy("l2s"), num_nodes=4)
    engine.fail_node(2)
    for i in range(20):
        outcome = engine.route(i, i)
        assert outcome.target != 2
        engine.connection_opened(outcome.target)
        engine.request_completed(outcome.target)
    engine.recover_node(2)
    assert engine.check_invariants() == []
