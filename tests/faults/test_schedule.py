"""Unit tests for FaultEvent / FaultSchedule / RetryPolicy."""

import pytest

from repro.faults import FaultEvent, FaultSchedule, RetryPolicy


# -- FaultEvent ---------------------------------------------------------------


def test_event_requires_exactly_one_trigger():
    with pytest.raises(ValueError):
        FaultEvent("crash", 0)
    with pytest.raises(ValueError):
        FaultEvent("crash", 0, at=1.0, after_requests=10)
    assert FaultEvent("crash", 0, at=1.0).timed
    assert not FaultEvent("crash", 0, after_requests=10).timed


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent("explode", 0, at=1.0)
    with pytest.raises(ValueError):
        FaultEvent("crash", -1, at=1.0)
    with pytest.raises(ValueError):
        FaultEvent("crash", 0, at=-1.0)
    with pytest.raises(ValueError):
        FaultEvent("crash", 0, after_requests=-1)
    with pytest.raises(ValueError):
        FaultEvent("slow", 0, at=1.0, factor=0.0)


def test_event_parse_round_trip():
    e = FaultEvent.parse("crash:2@0.5")
    assert (e.kind, e.node, e.at) == ("crash", 2, 0.5)
    e = FaultEvent.parse("slow:3@1.0x0.25")
    assert (e.kind, e.node, e.at, e.factor) == ("slow", 3, 1.0, 0.25)
    with pytest.raises(ValueError):
        FaultEvent.parse("nonsense")
    with pytest.raises(ValueError):
        FaultEvent.parse("crash:zz@1")


def test_event_describe():
    assert FaultEvent("crash", 1, at=2.0).describe() == "crash(1) @ t=2s"
    assert (
        FaultEvent("slow", 3, at=1.0, factor=0.5).describe()
        == "slow(3) @ t=1s x0.5"
    )
    assert (
        FaultEvent("recover", 0, after_requests=100).describe()
        == "recover(0) @ n=100"
    )


# -- FaultSchedule ------------------------------------------------------------


def test_schedule_splits_and_sorts_events():
    s = FaultSchedule(
        [
            FaultEvent("recover", 0, at=2.0),
            FaultEvent("crash", 0, at=1.0),
            FaultEvent("crash", 1, after_requests=500),
            FaultEvent("crash", 2, after_requests=100),
        ]
    )
    assert [e.at for e in s.timed] == [1.0, 2.0]
    assert [e.after_requests for e in s.counted] == [100, 500]
    assert len(s) == 4 and bool(s)
    assert not FaultSchedule()


def test_schedule_parse_spec():
    s = FaultSchedule.parse("crash:2@0.5, recover:2@1.5; slow:1@0.8x0.5")
    assert len(s) == 3
    assert [e.kind for e in s.timed] == ["crash", "slow", "recover"]


def test_schedule_validate_node_range():
    s = FaultSchedule.single_crash(3, at=1.0)
    s.validate(4)
    with pytest.raises(ValueError):
        s.validate(3)


def test_crash_and_recover_ordering():
    s = FaultSchedule.crash_and_recover(1, 2.0, 5.0)
    assert [e.kind for e in s.timed] == ["crash", "recover"]
    with pytest.raises(ValueError):
        FaultSchedule.crash_and_recover(1, 5.0, 2.0)


def test_stochastic_schedule_is_deterministic_and_paired():
    a = FaultSchedule.stochastic(4, horizon_s=50.0, mtbf_s=10.0, mttr_s=2.0, seed=3)
    b = FaultSchedule.stochastic(4, horizon_s=50.0, mtbf_s=10.0, mttr_s=2.0, seed=3)
    assert a.events == b.events
    assert a.events  # a 5x-MTBF horizon virtually always crashes someone
    c = FaultSchedule.stochastic(4, horizon_s=50.0, mtbf_s=10.0, mttr_s=2.0, seed=4)
    assert a.events != c.events
    # Every crash has its recover, even past the horizon (no node is left
    # permanently dead by truncation).
    per_node = {}
    for e in sorted(a.events, key=lambda e: e.at):
        per_node.setdefault(e.node, []).append(e.kind)
    for kinds in per_node.values():
        assert kinds[::2] == ["crash"] * len(kinds[::2])
        assert kinds[1::2] == ["recover"] * len(kinds[1::2])
        assert len(kinds) % 2 == 0


def test_stochastic_exclude():
    s = FaultSchedule.stochastic(
        4, horizon_s=100.0, mtbf_s=5.0, mttr_s=1.0, seed=0, exclude=(0,)
    )
    assert all(e.node != 0 for e in s.events)


# -- RetryPolicy --------------------------------------------------------------


def test_retry_backoff_caps():
    r = RetryPolicy(max_retries=6, base_backoff_s=0.05, multiplier=2.0, cap_s=0.3)
    assert r.backoff(1) == pytest.approx(0.05)
    assert r.backoff(2) == pytest.approx(0.1)
    assert r.backoff(3) == pytest.approx(0.2)
    assert r.backoff(4) == pytest.approx(0.3)  # capped
    assert r.backoff(10) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        r.backoff(0)


def test_retry_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_s=-0.01)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_s=0.5, cap_s=0.1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0.0)
