"""AdmissionController unit contracts: caps, queue bound, deadline
drops, and the release bookkeeping both substrates share."""

import pytest

from repro.overload.admission import AdmissionConfig, AdmissionController
from repro.overload.limiter import AdaptiveConcurrencyLimit, LimitConfig


def admit_n(ctrl, n, now=0.0):
    return [ctrl.try_admit(now) for _ in range(n)]


def test_admits_up_to_limit_then_queues_then_sheds():
    ctrl = AdmissionController(AdmissionConfig(max_inflight=4, queue_slots=2))
    verdicts = admit_n(ctrl, 7)
    # 4 in service + 2 backlog slots; the 7th sheds.
    assert [v.admitted for v in verdicts] == [True] * 6 + [False]
    assert verdicts[-1].reason == "queue_full"
    assert ctrl.inflight == 6
    assert ctrl.admitted == 6
    assert ctrl.shed_by_reason == {"queue_full": 1}


def test_release_frees_a_slot_for_the_next_arrival():
    ctrl = AdmissionController(AdmissionConfig(max_inflight=2, queue_slots=0))
    admit_n(ctrl, 2)
    assert not ctrl.try_admit(0.0).admitted
    ctrl.release(1.0, 0.01)
    assert ctrl.try_admit(1.0).admitted
    assert ctrl.inflight == 2


def test_queue_bound_is_min_of_slots_and_limit():
    # A collapsed adaptive limit must shrink the backlog allowance with
    # it: a fixed allowance would keep queueing behind the bottleneck
    # and hold the limiter's latency signal above target forever.
    limiter = AdaptiveConcurrencyLimit(
        LimitConfig(min_limit=4, initial=4, target_latency_s=0.05)
    )
    ctrl = AdmissionController(
        AdmissionConfig(queue_slots=64), limiter=limiter
    )
    assert ctrl.limit == 4
    verdicts = admit_n(ctrl, 10)
    # 4 in service + min(64, 4) = 4 backlog; the rest shed.
    assert sum(v.admitted for v in verdicts) == 8
    assert ctrl.shed_by_reason["queue_full"] == 2


def test_deadline_drop_uses_the_latency_ewma():
    ctrl = AdmissionController(
        AdmissionConfig(max_inflight=1, queue_slots=8, deadline_s=0.5)
    )
    assert ctrl.try_admit(0.0).admitted
    # Teach the EWMA a 2 s service latency: one queued request would
    # wait ~4 s >> the 0.5 s deadline, so the next arrival fails fast.
    ctrl.release(2.0, 2.0)
    assert ctrl.try_admit(2.0).admitted  # takes the free in-service slot
    shed = ctrl.try_admit(2.0)
    assert not shed.admitted and shed.reason == "deadline"
    assert ctrl.shed_by_reason == {"deadline": 1}


def test_unhealthy_shed_reason_flows_through_the_same_books():
    ctrl = AdmissionController(AdmissionConfig(max_inflight=8))
    verdict = ctrl.try_admit(0.0, capacity_ok=False)
    assert not verdict.admitted and verdict.reason == "unhealthy"
    assert ctrl.shed_total == 1


def test_failure_release_feeds_no_latency():
    limiter = AdaptiveConcurrencyLimit(LimitConfig(initial=64))
    ctrl = AdmissionController(AdmissionConfig(), limiter=limiter)
    ctrl.try_admit(0.0)
    ctrl.release(1.0, None)  # a fault says nothing about service rate
    assert limiter.observations == 0
    assert ctrl.inflight == 0


def test_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionConfig(max_inflight=4, deadline_s=0.0)
    with pytest.raises(ValueError):
        AdmissionController(AdmissionConfig())  # no cap and no limiter


def test_snapshot_reports_limit_inflight_and_sheds():
    ctrl = AdmissionController(AdmissionConfig(max_inflight=2, queue_slots=0))
    admit_n(ctrl, 3)
    snap = ctrl.snapshot()
    assert snap["limit"] == 2
    assert snap["inflight"] == 2
    assert snap["shed"] == {"queue_full": 1}
