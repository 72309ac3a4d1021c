"""Tests for Resource / PriorityResource / Container."""

import pytest

from repro.des import Container, Environment, PriorityResource, Resource


def visit(env, res, seconds, then=None, priority=None):
    """One station visit as a callback chain; returns its on_grant.

    ``then(granted_at)`` runs once the visit has released the station.
    """

    def granted():
        start = env.now
        env.call_later(seconds, lambda: done(start))

    def done(start):
        res.release()
        if then is not None:
            then(start)

    if priority is None:
        res.acquire(granted)
    else:
        res.acquire(granted, priority)
    return granted


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
    """A free station calls on_grant inside acquire(); a busy one calls
    the next queued continuation inside release()."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    res.acquire(lambda: log.append("first"))
    assert log == ["first"] and res.count == 1
    res.acquire(lambda: log.append("second"))
    assert log == ["first"] and res.queue_length == 1
    res.release()
    assert log == ["first", "second"] and res.count == 1
    assert res.queue_length == 0 and env.event_count == 0


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
    res.acquire(lambda: None)
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
    handle = []
    done = []

    def granted():
        handle.append(env.call_later(10, lambda: done.append(env.now)))

    res.acquire(granted)
    nxt = []
    visit(env, res, 1, lambda t: nxt.append(t))

    def cancel():
        res.withdraw(handle[0])
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


def test_container_put_get():
    env = Environment()
    tank = Container(env, capacity=100, init=50)
    levels = []

    def producer(env, tank):
        yield tank.put(30)
        levels.append(("after put", tank.level))

    def consumer(env, tank):
        yield env.timeout(1)
        yield tank.get(70)
        levels.append(("after get", tank.level))

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert levels == [("after put", 80), ("after get", 10)]


def test_container_get_blocks_until_available():
    env = Environment()
    tank = Container(env, capacity=10, init=0)
    times = []

    def consumer(env, tank):
        yield tank.get(5)
        times.append(env.now)

    def producer(env, tank):
        yield env.timeout(3)
        yield tank.put(5)

    env.process(consumer(env, tank))
    env.process(producer(env, tank))
    env.run()
    assert times == [3]


def test_container_put_blocks_when_full():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    times = []

    def producer(env, tank):
        yield tank.put(4)
        times.append(env.now)

    def consumer(env, tank):
        yield env.timeout(2)
        yield tank.get(6)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert times == [2]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)
