"""Tests for persistent-connection (HTTP/1.1) runs of the one driver."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.faults import FaultSchedule, RetryPolicy
from repro.model import MB
from repro.netfaults import NetFaultConfig, NetFaultSchedule
from repro.servers import make_policy
from repro.sim import Simulation, run_simulation
from repro.workload import (
    FileSet,
    SessionTrace,
    Trace,
    build_fileset,
    generate_trace,
    sessionize,
    synthesize,
)

from ..golden.regen import CRASH_SCHEDULE, canonical


@pytest.fixture(scope="module")
def trace():
    fs = build_fileset(250, 15 * 1024, 12 * 1024, 0.9, seed=7, name="ptrace")
    return generate_trace(fs, 3000, seed=8, name="ptrace")


def cfg(nodes=4):
    return ClusterConfig(nodes=nodes, cache_bytes=2 * MB, multiprogramming_per_node=8)


def run_p(trace, policy_name, k, nodes=4, passes=2):
    sim = Simulation(
        sessionize(trace, k, seed=1), make_policy(policy_name), cfg(nodes), passes=passes
    )
    return sim, sim.run()


def test_all_requests_complete(trace):
    for policy in ("l2s", "lard", "traditional", "consistent-hash"):
        sim, r = run_p(trace, policy, 4.0)
        assert r.requests_measured + r.requests_warmup == 2 * len(trace)
        assert sum(r.node_completions) == r.requests_measured


EQUIVALENCE_POLICIES = ("traditional", "lard", "l2s", "lard-ng", "round-robin")
EQUIVALENCE_MODES = ("plain", "crash", "netloss")


def run_golden_shape(trace, policy_name, mode):
    """One run shaped like the golden corpus's cells (4 nodes, 2 passes)."""
    config = ClusterConfig(nodes=4)
    kwargs = {}
    if mode == "crash":
        kwargs = {"faults": FaultSchedule.parse(CRASH_SCHEDULE), "retry": RetryPolicy()}
    elif mode == "netloss":
        config = ClusterConfig(
            nodes=4, net_faults=NetFaultConfig(loss_rate=0.02, seed=1)
        )
    sim = Simulation(trace, make_policy(policy_name), config, passes=2, seed=1, **kwargs)
    return canonical(sim.run())


@pytest.mark.parametrize("mode", EQUIVALENCE_MODES)
@pytest.mark.parametrize("policy_name", EQUIVALENCE_POLICIES)
def test_mean_one_equivalent_to_http10_driver(policy_name, mode):
    """One-request connections are the HTTP/1.0 run, byte for byte."""
    plain = synthesize("calgary", 600, seed=1)
    sessions = sessionize(plain, 1.0)
    assert sessions.num_connections == len(plain)
    assert run_golden_shape(sessions, policy_name, mode) == run_golden_shape(
        plain, policy_name, mode
    )


def test_migrations_per_request_fall_with_connection_length(trace):
    _, r1 = run_p(trace, "l2s", 1.0)
    _, r8 = run_p(trace, "l2s", 8.0)
    assert r8.forwarded_fraction < r1.forwarded_fraction


def test_lard_relays_do_not_redecide(trace):
    sim, r = run_p(trace, "lard", 6.0)
    counts = sim.cluster.net.message_counts
    # Handoffs happen once per connection, relays for the rest.
    assert counts.get("handoff", 0) > 0
    assert counts.get("relay", 0) > counts.get("handoff", 0)
    # Migration fraction ~ 1/k.
    assert r.forwarded_fraction < 0.4


def test_lard_front_end_serves_nothing_persistent(trace):
    sim, r = run_p(trace, "lard", 4.0)
    assert r.node_completions[0] == 0
    assert len(sim.cluster.node(0).cache) == 0


def test_traditional_never_migrates(trace):
    sim, r = run_p(trace, "traditional", 4.0)
    assert r.forwarded_fraction == 0.0
    assert "handoff" not in sim.cluster.net.message_counts


def test_connections_all_closed(trace):
    sim, _ = run_p(trace, "l2s", 4.0)
    assert sim.cluster.connection_counts() == [0] * 4


def test_deterministic(trace):
    _, a = run_p(trace, "l2s", 4.0)
    _, b = run_p(trace, "l2s", 4.0)
    assert a.throughput_rps == b.throughput_rps


def test_passes_validation(trace):
    sessions = sessionize(trace, 2.0)
    with pytest.raises(ValueError):
        Simulation(sessions, make_policy("l2s"), cfg(), passes=0)


def test_runner_helper(trace):
    r = run_simulation(
        sessionize(trace, 3.0),
        make_policy("l2s"),
        nodes=2,
        cache_bytes=2 * MB,
        passes=1,
    )
    assert r.throughput_rps > 0
    assert r.nodes == 2


def test_crash_retry_reopens_connections_and_balances(trace):
    """Aborted persistent requests re-open their connection through
    ``initial_node`` under the same connection index; every request is
    served in the end and the books balance."""
    sessions = sessionize(trace, 4.0, seed=1)
    policy = make_policy("l2s")
    opened = []
    initial_node = policy.initial_node

    def spy(index, file_id):
        opened.append(index)
        return initial_node(index, file_id)

    policy.initial_node = spy
    sim = Simulation(
        sessions,
        policy,
        cfg(),
        passes=2,
        faults=FaultSchedule.parse("crash:2@0.3,recover:2@0.6"),
        retry=RetryPolicy(),
    )
    r = sim.run()
    assert r.requests_retried > 0 and r.requests_failed == 0
    assert r.verify() == []
    assert r.requests_generated == 2 * len(trace)
    # One open per connection, plus one re-open per retry.
    assert len(opened) == 2 * sessions.num_connections + r.requests_retried
    assert len(set(opened)) == 2 * sessions.num_connections
    assert sim.cluster.connection_counts() == [0] * 4


def test_dropped_handoff_does_not_move_the_connection():
    """A migration hand-off that the fabric drops leaves the connection
    where it is: the policy rolls its view back (``on_handoff_failed``),
    the holder re-dispatches within its budget and then aborts, the
    connection closes at the holder, and the requests it had not sent
    yet fail with it."""
    policy = make_policy("consistent-hash")
    probe = Simulation(
        Trace("probe", FileSet(np.full(64, 4 * 1024), 1.0), np.arange(64)),
        make_policy("consistent-hash"),
        ClusterConfig(nodes=2),
    )
    owner = probe.policy.owner_of
    holder = probe.policy.initial_node(0, 0)
    stay = next(f for f in range(64) if owner(f) == holder)
    move = next(f for f in range(64) if owner(f) != holder)
    target = owner(move)
    fileset = FileSet(np.full(64, 4 * 1024), 1.0)
    sessions = SessionTrace(
        Trace("drop", fileset, np.array([stay, move, stay])), np.array([0])
    )

    handoff_failed, connection_changes = [], []
    on_handoff_failed = policy.on_handoff_failed
    on_connection_change = policy.on_connection_change

    def spy_failed(initial, dst):
        handoff_failed.append((initial, dst))
        on_handoff_failed(initial, dst)

    def spy_change(node_id):
        connection_changes.append(node_id)
        on_connection_change(node_id)

    policy.on_handoff_failed = spy_failed
    policy.on_connection_change = spy_change
    config = ClusterConfig(
        nodes=2,
        net_faults=NetFaultConfig(
            schedule=NetFaultSchedule.parse(f"link:{holder}-{target}@0..10")
        ),
    )
    sim = Simulation(sessions, policy, config, warmup_fraction=0.0)
    r = sim.run()

    budget = config.net_faults.handoff_redispatch
    assert handoff_failed == [(holder, target)] * (budget + 1)
    assert r.netfault_summary["redispatches"] == budget
    # The connection never opened at the target, and it closed at the
    # holder after the first request, the one request the holder served.
    assert set(connection_changes) == {holder}
    assert sim.cluster.node(target).completed == 0
    assert r.node_completions[holder] == 1
    assert sim.cluster.connection_counts() == [0, 0]
    # The aborted request and the one behind it fail; the books balance.
    assert r.requests_measured == 1 and r.requests_failed == 2
    assert r.requests_generated == 3
    assert r.verify() == []
    assert r.message_stats["handoff"]["send_failures"] == budget + 1
