"""Tests for the declarative netfault model: events, schedules, configs."""

from dataclasses import replace

import pytest

from repro.netfaults import (
    ARQ_RETRY,
    DEFAULT_RELIABLE_KINDS,
    NetFaultConfig,
    NetFaultEvent,
    NetFaultSchedule,
)


# -- NetFaultEvent ----------------------------------------------------------


def test_event_validation():
    with pytest.raises(ValueError):
        NetFaultEvent("warp", 1.0)
    with pytest.raises(ValueError):
        NetFaultEvent("link_down", -1.0, src=0, dst=1)
    with pytest.raises(ValueError):
        NetFaultEvent("link_down", 1.0)  # missing endpoints
    with pytest.raises(ValueError):
        NetFaultEvent("link_up", 1.0, src=2, dst=2)
    with pytest.raises(ValueError):
        NetFaultEvent("partition", 1.0, group=())


def test_parse_down_up_tokens():
    (down,) = NetFaultEvent.parse("down:0-3@0.5")
    assert (down.kind, down.at, down.src, down.dst) == ("link_down", 0.5, 0, 3)
    (up,) = NetFaultEvent.parse("up:0-3@1.5")
    assert (up.kind, up.at) == ("link_up", 1.5)


def test_parse_link_interval_is_down_then_up():
    events = NetFaultEvent.parse("link:1-2@0.5..1.5")
    assert [e.kind for e in events] == ["link_down", "link_up"]
    assert [e.at for e in events] == [0.5, 1.5]


def test_parse_partition_interval_and_open_ended():
    events = NetFaultEvent.parse("partition:3+0@1..2")
    assert [e.kind for e in events] == ["partition", "heal"]
    assert events[0].group == (0, 3)  # sorted
    (only,) = NetFaultEvent.parse("partition:5@2.0")  # never heals
    assert only.kind == "partition" and only.group == (5,)


def test_parse_rejects_malformed_tokens():
    for bad in (
        "nonsense",
        "down:0-1",  # no time
        "link:0-1@2.0",  # link sugar needs an interval
        "link:0-1@2.0..1.0",  # empty interval
        "down:0@1.0",  # not a pair
        "partition:a+b@1.0",
        "warp:0-1@1.0",
    ):
        with pytest.raises(ValueError):
            NetFaultEvent.parse(bad)


# -- NetFaultSchedule -------------------------------------------------------


def test_schedule_sorts_events_by_time():
    sched = NetFaultSchedule(
        (
            NetFaultEvent("link_up", 2.0, src=0, dst=1),
            NetFaultEvent("link_down", 1.0, src=0, dst=1),
        )
    )
    assert [e.at for e in sched.events] == [1.0, 2.0]
    assert len(sched) == 2 and bool(sched)
    assert not NetFaultSchedule()


def test_schedule_parse_multiple_tokens():
    sched = NetFaultSchedule.parse("link:0-1@0.5..1.5, partition:2@2.0..3.0")
    assert [e.kind for e in sched.events] == [
        "link_down",
        "link_up",
        "partition",
        "heal",
    ]


def test_schedule_validate_node_range_and_group_size():
    sched = NetFaultSchedule.parse("down:0-7@1.0")
    sched.validate(8)
    with pytest.raises(ValueError):
        sched.validate(4)
    whole = NetFaultSchedule.partition((0, 1, 2, 3), 1.0)
    with pytest.raises(ValueError):
        whole.validate(4)  # nobody left on the majority side


def test_partition_helper():
    sched = NetFaultSchedule.partition((2, 0), 1.0, 2.0)
    assert sched.events[0].group == (0, 2)
    assert sched.events[1].kind == "heal"
    open_ended = NetFaultSchedule.partition((1,), 1.0)
    assert [e.kind for e in open_ended.events] == ["partition"]


# -- ARQ retry parameters --------------------------------------------------


def test_retry_spec_validation():
    with pytest.raises(ValueError):
        replace(ARQ_RETRY, timeout_s=0.0)
    with pytest.raises(ValueError):
        replace(ARQ_RETRY, max_retries=-1)
    with pytest.raises(ValueError):
        replace(ARQ_RETRY, base_backoff_s=-1.0)
    with pytest.raises(ValueError):
        replace(ARQ_RETRY, multiplier=0.5)


def test_arq_retry_is_the_default_spec():
    assert NetFaultConfig().default_spec is ARQ_RETRY
    # 10 ms ack deadline, 3 retries, 5 ms base backoff doubling to a
    # 50 ms cap.
    assert ARQ_RETRY == replace(
        ARQ_RETRY,
        timeout_s=10e-3,
        max_retries=3,
        base_backoff_s=5e-3,
        multiplier=2.0,
        cap_s=50e-3,
    )


def test_retry_spec_backoff_is_capped_exponential():
    spec = replace(ARQ_RETRY, base_backoff_s=1e-3, multiplier=2.0, cap_s=3e-3)
    assert spec.backoff(1) == pytest.approx(1e-3)
    assert spec.backoff(2) == pytest.approx(2e-3)
    assert spec.backoff(3) == pytest.approx(3e-3)  # capped, not 4 ms
    assert spec.backoff(10) == pytest.approx(3e-3)
    with pytest.raises(ValueError):
        spec.backoff(0)


# -- NetFaultConfig ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        NetFaultConfig(loss_rate=1.0)
    with pytest.raises(ValueError):
        NetFaultConfig(dup_rate=-0.1)
    with pytest.raises(ValueError):
        NetFaultConfig(extra_delay_s=-1.0)
    with pytest.raises(ValueError):
        NetFaultConfig(link_loss=((2, 2, 0.1),))
    with pytest.raises(ValueError):
        NetFaultConfig(link_loss=((0, 1, 1.5),))
    with pytest.raises(ValueError):
        NetFaultConfig(handoff_redispatch=-1)
    with pytest.raises(ValueError):
        # The ARQ needs an ack deadline.
        NetFaultConfig(default_spec=replace(ARQ_RETRY, timeout_s=None))


def test_config_active_flags_each_knob():
    assert not NetFaultConfig().active
    assert not NetFaultConfig(schedule=NetFaultSchedule()).active
    assert NetFaultConfig(loss_rate=0.01).active
    assert NetFaultConfig(dup_rate=0.01).active
    assert NetFaultConfig(extra_delay_s=1e-6).active
    assert NetFaultConfig(jitter_s=1e-6).active
    assert NetFaultConfig(link_loss=((0, 1, 0.1),)).active
    assert NetFaultConfig(schedule=NetFaultSchedule.parse("down:0-1@1")).active
    assert NetFaultConfig(always_on=True).active


def test_default_reliable_kinds_cover_stateful_traffic():
    assert "handoff" in DEFAULT_RELIABLE_KINDS
    assert "relay" in DEFAULT_RELIABLE_KINDS
    assert "dfs_req" in DEFAULT_RELIABLE_KINDS
    # Load broadcasts stay fire-and-forget by design.
    assert "l2s_load" not in DEFAULT_RELIABLE_KINDS
