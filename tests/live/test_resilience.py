"""Resilience-layer unit tests — no sockets, no subprocesses.

The health monitor, fault injector, and timeline are exercised against
fake engines/clusters so the state machines (mark-down/mark-up,
incarnation flush, progress-triggered fault firing) are pinned as tier-1
logic; the socket paths ride in the live-marked smoke/chaos tests.
"""

import asyncio
import json

import pytest

from repro.faults.schedule import RetryPolicy
from repro.live import (
    HealthMonitor,
    LiveAvailabilityTimeline,
    LiveFaultInjector,
    PolicyEngine,
    ResilienceConfig,
)
from repro.servers import make_policy


class FakeEngine:
    """Records the membership hook calls the monitor fires."""

    def __init__(self):
        self.calls = []

    def fail_node(self, node):
        self.calls.append(("fail", node))

    def recover_node(self, node):
        self.calls.append(("recover", node))


def make_monitor(nodes=3, **config_kw):
    engine = FakeEngine()
    config = ResilienceConfig(**config_kw)
    return HealthMonitor(engine, ports=[0] * nodes, config=config), engine


# -- ResilienceConfig -----------------------------------------------------


def test_resilience_config_defaults_reuse_sim_retry_policy():
    config = ResilienceConfig()
    assert isinstance(config.retry, RetryPolicy)
    # Capped exponential, 1-based attempts — the sim's exact schedule.
    sim = RetryPolicy()
    assert [config.retry.backoff(a) for a in range(1, 5)] == [
        sim.backoff(a) for a in range(1, 5)
    ]


@pytest.mark.parametrize("kw", [
    {"request_timeout_s": 0.0},
    {"probe_interval_s": -1.0},
    {"fail_threshold": 0},
])
def test_resilience_config_rejects_bad_knobs(kw):
    with pytest.raises(ValueError):
        ResilienceConfig(**kw)


# -- HealthMonitor --------------------------------------------------------


def test_suspect_marks_down_once():
    monitor, engine = make_monitor()
    assert monitor.healthy_count() == 3
    monitor.suspect(1)
    monitor.suspect(1)  # already down: no second transition
    assert engine.calls == [("fail", 1)]
    assert not monitor.is_up(1)
    assert monitor.healthy_count() == 2
    assert monitor.stats()["markdowns"] == 1


def test_probe_streak_marks_down_then_single_success_marks_up():
    monitor, engine = make_monitor(fail_threshold=2)
    healthy = {0, 1, 2}

    async def fetch(node):
        if node not in healthy:
            raise ConnectionError("refused")
        return {"node": node, "incarnation": 0}

    monitor._fetch_health = fetch

    async def drive():
        await monitor.probe_all()  # all healthy: no transitions
        healthy.discard(2)
        await monitor.probe_all()  # strike 1: still up
        assert monitor.is_up(2)
        await monitor.probe_all()  # strike 2: mark-down
        assert not monitor.is_up(2)
        healthy.add(2)
        await monitor.probe_all()  # one success: mark-up
        assert monitor.is_up(2)

    asyncio.run(drive())
    assert engine.calls == [("fail", 2), ("recover", 2)]
    stats = monitor.stats()
    assert stats["markdowns"] == 1
    assert stats["markups"] == 1
    assert stats["probe_failures"] == 2


def test_probe_timeout_counts_as_failure():
    monitor, engine = make_monitor(fail_threshold=1)

    async def fetch(node):
        raise asyncio.TimeoutError()

    monitor._fetch_health = fetch
    asyncio.run(monitor.probe_all())
    assert engine.calls == [("fail", 0), ("fail", 1), ("fail", 2)]
    assert monitor.healthy_count() == 0


def test_stop_is_not_lost_when_a_probe_completes_as_it_lands():
    # The cancellation arrives while the probe's fetch is finishing, the
    # instant in which a ``wait_for``-bounded probe on 3.11 returns the
    # result and drops the cancellation, so ``stop()`` never returned.
    monitor, _ = make_monitor(nodes=1)

    async def fetch(node):
        monitor._task.cancel()
        return {"node": node, "incarnation": 0}

    monitor._fetch_health = fetch

    async def drive():
        monitor.start()
        done, _ = await asyncio.wait({monitor._task}, timeout=1.0)
        task = monitor._task
        await monitor.stop()  # returns at once once the task is done
        return done, task

    done, task = asyncio.run(drive())
    assert task in done and task.cancelled()
    assert monitor.probes == 1


def test_incarnation_flip_while_up_forces_fail_recover_cycle():
    monitor, engine = make_monitor()
    incarnation = {"value": 0}

    async def fetch(node):
        return {"node": node, "incarnation": incarnation["value"]}

    monitor._fetch_health = fetch

    async def drive():
        await monitor.probe_all()  # learns incarnation 0
        incarnation["value"] = 1  # node 0..2 respawned between sweeps
        await monitor.probe_all()

    asyncio.run(drive())
    # Policies must flush per-node state even though no probe ever saw
    # the node down: a fail/recover pair per node, node stays up.
    assert engine.calls == [
        ("fail", 0), ("recover", 0),
        ("fail", 1), ("recover", 1),
        ("fail", 2), ("recover", 2),
    ]
    assert monitor.healthy_count() == 3
    assert monitor.stats()["incarnation_flips"] == 3


def test_engine_membership_hooks_are_idempotent():
    engine = PolicyEngine(make_policy("round-robin"), num_nodes=4)
    engine.fail_node(2)
    engine.fail_node(2)  # probe and suspicion racing to one conclusion
    assert engine.down_nodes == [2]
    assert engine.policy.failed_nodes == {2}
    engine.recover_node(2)
    engine.recover_node(2)
    assert engine.down_nodes == []
    assert engine.policy.failed_nodes == set()
    assert engine.stats()["down_nodes"] == []


# -- LiveFaultInjector ----------------------------------------------------


class FakeProxy:
    def __init__(self):
        self.link_down = False


class FakeCluster:
    def __init__(self, nodes=4):
        self.calls = []
        self.proxies = {n: FakeProxy() for n in range(nodes)}

    async def kill_backend(self, node):
        self.calls.append(("kill", node))

    async def respawn_backend(self, node):
        self.calls.append(("respawn", node))

    def suspend_backend(self, node):
        self.calls.append(("suspend", node))

    def resume_backend(self, node):
        self.calls.append(("resume", node))


def test_injector_fires_actions_as_progress_crosses_triggers():
    cluster = FakeCluster()
    progress = {"value": 0.0}
    events = []
    schedule = [
        (0.25, "kill", {"node": 1}),
        (0.75, "respawn", {"node": 1}),
    ]
    injector = LiveFaultInjector(
        cluster, schedule, lambda: progress["value"],
        poll_interval_s=0.005, on_event=lambda a, n: events.append((a, n)),
    )

    async def drive():
        injector.start()
        await asyncio.sleep(0.02)
        assert cluster.calls == []  # progress 0: nothing crossed
        progress["value"] = 0.3
        await asyncio.sleep(0.02)
        assert cluster.calls == [("kill", 1)]
        assert not injector.done
        await injector.finish()  # forces the straggling respawn

    asyncio.run(drive())
    assert cluster.calls == [("kill", 1), ("respawn", 1)]
    assert injector.executed == [(0.25, "kill", 1), (0.75, "respawn", 1)]
    assert events == [("kill", 1), ("respawn", 1)]
    assert injector.done


def test_injector_link_actions_toggle_the_proxy():
    cluster = FakeCluster()
    schedule = [
        (0.1, "link_down", {"node": 2}),
        (0.9, "link_up", {"node": 2}),
    ]
    injector = LiveFaultInjector(cluster, schedule, lambda: 1.0)

    async def drive():
        injector.start()
        await injector.finish()

    asyncio.run(drive())
    assert not cluster.proxies[2].link_down  # downed at 0.1, restored at 0.9
    assert [a for _, a, _ in injector.executed] == ["link_down", "link_up"]


def test_injector_suspend_resume_and_unknown_action():
    cluster = FakeCluster()
    injector = LiveFaultInjector(
        cluster,
        [(0.2, "suspend", {"node": 3}), (0.6, "resume", {"node": 3})],
        lambda: 1.0,
    )

    async def drive():
        injector.start()
        await injector.finish()

    asyncio.run(drive())
    assert cluster.calls == [("suspend", 3), ("resume", 3)]

    bad = LiveFaultInjector(cluster, [], lambda: 1.0)
    with pytest.raises(ValueError):
        asyncio.run(bad._execute(0.5, "explode", {"node": 0}))


# -- LiveAvailabilityTimeline ---------------------------------------------


class FakeNode:
    def __init__(self, node_id, open_connections=0):
        self.id = node_id
        self.open_connections = open_connections


class FakeMembership:
    def __init__(self, nodes):
        self.nodes = nodes


class FakeMonitor:
    def __init__(self, down=()):
        self.down = set(down)

    def is_up(self, node):
        return node not in self.down


class TimelineCluster:
    def __init__(self, nodes=3, down=()):
        class _E:
            pass

        self.engine = _E()
        self.engine.membership = FakeMembership(
            [FakeNode(i, open_connections=i) for i in range(nodes)]
        )
        self.monitor = FakeMonitor(down)


def test_live_timeline_samples_states_and_shed_column():
    cluster = TimelineCluster(nodes=3, down={1})
    timeline = LiveAvailabilityTimeline(cluster, interval_s=10.0)

    async def drive():
        timeline.start()
        timeline.mark_event("kill", 1)
        timeline.record_completion(was_miss=False)
        timeline.record_completion(was_miss=True)
        timeline.record_failure()
        timeline.record_retry()
        timeline.record_shed()
        await asyncio.sleep(0.01)
        await timeline.stop()  # closes the partial window

    asyncio.run(drive())
    assert len(timeline.samples) == 1
    sample = timeline.samples[0]
    assert sample.completions == 2
    assert sample.failures == 1
    assert sample.retries == 1
    assert sample.shed == 1
    assert sample.node_states == "UDU"
    assert sample.open_connections == 3  # 0 + 1 + 2
    assert timeline.events == [(timeline.events[0][0], "kill", 1)]
    lines = timeline.to_csv().splitlines()
    assert lines[0].startswith("t,goodput_rps,")
    assert lines[0].endswith(",shed")  # appended last: old readers unaffected
    assert lines[1].endswith(",1")


def test_live_timeline_rejects_bad_interval():
    with pytest.raises(ValueError):
        LiveAvailabilityTimeline(TimelineCluster(), interval_s=0.0)


def test_health_payload_shape_matches_backend_contract():
    # The monitor parses {"node", "incarnation"}; pin the shape the
    # backend's /health emits so the two ends cannot drift silently.
    payload = json.loads(json.dumps({"node": 2, "incarnation": 5}))
    monitor, engine = make_monitor()
    monitor.note_incarnation(payload["node"], payload["incarnation"])
    assert monitor._incarnation[2] == 5
    assert engine.calls == []  # first observation is never a flip
