"""Tests for Resource / PriorityResource."""

import pytest

from repro.des import Environment, PriorityResource, Resource
from repro.des.core import NORMAL


def visit(env, res, seconds, then=None, priority=None):
    """One station visit through ``Resource.visit``; returns its entry.

    ``then(granted_at)`` runs once the visit has released the station.
    """

    def done():
        res.release()
        if then is not None:
            then(env.now - seconds)

    if priority is None:
        return res.visit(seconds, done)
    return res.visit(seconds, done, priority)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []
    for name in "abc":
        visit(env, res, 10, lambda t, name=name: granted.append((name, t)))
    env.run()
    assert granted == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []
    for name in "abcd":
        visit(env, res, 1, lambda _t, name=name: order.append(name))
    env.run()
    assert order == list("abcd")


def test_grant_runs_the_continuation_synchronously():
    """A free station schedules the visit's entry inside visit(); a busy
    one queues it unscheduled and schedules it inside the release() that
    hands the slot over."""
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.visit(1.0, res.release)
    assert first == [1.0, NORMAL, 1, res.release] and res.count == 1
    second = res.visit(2.0, res.release)
    assert second == [2.0, NORMAL, None, res.release]
    assert res.queue_length == 1 and env.event_count == 1
    env.step()  # first's completion releases: second is granted at t=1
    assert second == [3.0, NORMAL, 2, res.release] and res.count == 1
    assert res.queue_length == 0 and env.event_count == 2


def test_uncontended_visit_costs_one_event():
    """The grant schedules the completion directly: one station visit
    is exactly one kernel event, through the chain API and hold()."""
    env = Environment()
    res = Resource(env, capacity=1)
    visit(env, res, 2.0)
    env.run()
    assert env.event_count == 1
    res.hold(1.5, lambda: None)
    env.run()
    assert env.event_count == 2
    assert env.now == pytest.approx(3.5) and res.total_served == 2


def test_resource_counts_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    snapshots = []
    for _ in range(3):
        visit(env, res, 5)
    env.call_later(1, lambda: snapshots.append((res.count, res.queue_length)))
    env.run()
    assert snapshots == [(1, 2)]
    assert res.count == 0
    assert res.total_served == 3


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_without_hold_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    res.visit(1.0, lambda: None)
    res.release()
    with pytest.raises(RuntimeError):
        res.release()
    with pytest.raises(RuntimeError):
        PriorityResource(env, capacity=1).release()


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []
    visit(env, res, 10)
    impatient = visit(env, res, 1, lambda t: order.append(("impatient", t)))

    def give_up():
        res.withdraw(impatient)
        order.append(("gave up", env.now))

    env.call_later(2, give_up)
    visit(env, res, 1, lambda t: order.append(("patient", t)))
    env.run()
    assert order == [("gave up", 2), ("patient", 10)]
    assert res.total_served == 2
    with pytest.raises(RuntimeError):
        res.withdraw(impatient)


def test_withdraw_held_visit_frees_slot_and_drops_done():
    """A held visit that is withdrawn frees the slot at once, and its
    done never runs: the completion entry is blanked, yet still pops."""
    env = Environment()
    res = Resource(env, capacity=1)
    done = []
    held = res.visit(10, lambda: done.append(env.now))
    nxt = []
    visit(env, res, 1, lambda t: nxt.append(t))

    def cancel():
        res.withdraw(held)
        assert res.count == 1 and res.queue_length == 0

    env.call_later(3, cancel)
    env.run()
    assert done == [] and env.now == 10  # the blanked entry still popped
    # The queued visit got the slot at the withdraw instant.
    assert nxt == [3]
    assert res.count == 0 and res.busy_time() == pytest.approx(4.0)


def test_resource_busy_time_accounting():
    env = Environment()
    res = Resource(env, capacity=1)
    visit(env, res, 3)
    env.call_later(5, lambda: visit(env, res, 2))
    env.run()
    assert res.busy_time() == pytest.approx(5.0)
    assert res.utilization(env.now) == pytest.approx(5.0 / 7.0)


def test_resource_reset_accounting():
    env = Environment()
    res = Resource(env, capacity=1)
    visit(env, res, 4)
    env.run()
    res.reset_accounting()
    assert res.busy_time() == 0.0
    assert res.total_served == 0
    visit(env, res, 1)
    env.run()
    assert res.busy_time() == pytest.approx(1.0)


def test_reset_accounting_while_busy():
    env = Environment()
    res = Resource(env, capacity=1)
    visit(env, res, 10)
    env.call_later(4, res.reset_accounting)
    env.run()
    # Busy from t=4 (reset) to t=10.
    assert res.busy_time() == pytest.approx(6.0)


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []
    visit(env, res, 5, priority=0)
    for name, prio, delay in (("low", 5, 1), ("high", 1, 2), ("mid", 3, 3)):
        env.call_later(
            delay,
            lambda name=name, prio=prio: visit(
                env, res, 1, lambda _t: order.append(name), prio
            ),
        )
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_resource_fifo_within_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []
    visit(env, res, 5, priority=0)
    for name, delay in (("first", 1), ("second", 2)):
        env.call_later(
            delay,
            lambda name=name: visit(env, res, 1, lambda _t: order.append(name), 2),
        )
    env.run()
    assert order == ["first", "second"]


def test_priority_resource_withdraw_queued_visit():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []
    visit(env, res, 5, priority=0)
    low = visit(env, res, 1, lambda _t: order.append("low"), 5)
    visit(env, res, 1, lambda _t: order.append("high"), 1)
    env.call_later(2, lambda: res.withdraw(low))
    env.run()
    assert order == ["high"]


def test_withdraw_takes_queued_and_held_entries():
    """withdraw() reads the entry: a queued one (eid None) leaves the
    queue unscheduled; a held one (eid set) is blanked and its slot goes
    to the next queued visit, on both station kinds."""
    for res in (Resource(Environment()), PriorityResource(Environment())):
        env = res.env
        log = []
        held = res.visit(5, lambda: log.append("held"))
        queued = res.visit(1, lambda: log.append("queued"))
        last = visit(env, res, 1, lambda t: log.append(("last", t)))
        res.withdraw(queued)
        assert queued[2] is None and res.queue_length == 1
        assert env.event_count == 1
        env.call_later(2, lambda: res.withdraw(held))
        env.run()
        assert log == [("last", 2)]
        assert last[2] == 3 and res.total_served == 2
        assert res.count == 0 and res.busy_time() == pytest.approx(3.0)


def test_queued_visits_take_eids_in_grant_order():
    """A queued visit takes its eid when it is granted, not when it was
    queued: later calls interleave, and a priority queue's overtakers
    take theirs first."""
    env = Environment()
    res = Resource(env, capacity=1)
    a, b, c = (visit(env, res, 1) for _ in range(3))
    tick = env.call_later(0.5, lambda: None)
    assert [a[2], tick[2], b[2], c[2]] == [1, 2, None, None]
    env.run()
    assert [b[2], c[2]] == [3, 4]

    env = Environment()
    res = PriorityResource(env, capacity=1)
    visit(env, res, 1, priority=0)
    low, high, mid = (visit(env, res, 1, priority=p) for p in (5, 1, 3))
    env.run()
    assert high[2] < mid[2] < low[2] == env.event_count
