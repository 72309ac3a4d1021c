"""Unit tests for the DES kernel core: the environment and its queue."""

import doctest

import pytest

import repro.des
from repro.des import EmptySchedule, Environment


def test_package_doctest():
    result = doctest.testmod(repro.des)
    assert result.attempted > 0 and result.failed == 0


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    """A chain of delayed continuations advances the clock step by step."""
    env = Environment()
    seen = []

    def second():
        seen.append(env.now)

    def first():
        seen.append(env.now)
        env.call_later(4, second)

    env.call_later(3, first)
    env.run()
    assert seen == [3, 7]


def test_timeout_negative_delay_rejected():
    """call_later refuses a delay into the past."""
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1, lambda: None)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def tick():
        env.call_later(10, tick)

    env.call_later(10, tick)
    env.run(until=25)
    assert env.now == 25


def test_run_until_time_excludes_boundary_events():
    """Entries due exactly at `until` are not processed (simpy semantics)."""
    env = Environment()
    seen = []
    env.call_later(5, lambda: seen.append(env.now))
    env.run(until=5)
    assert seen == []
    env.run(until=6)
    assert seen == [5]


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_unhandled_failure_escapes_run():
    """An exception raised by a continuation escapes run() at its time."""
    env = Environment()

    def boom():
        raise RuntimeError("unhandled")

    env.call_later(1, boom)
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()
    assert env.now == 1


def test_deterministic_fifo_ordering_at_same_time():
    env = Environment()
    order = []
    for name in "abcde":
        env.call_later(5, lambda name=name: order.append(name))
    env.run()
    assert order == list("abcde")


def test_urgent_entries_overtake_normal_ones_at_the_same_time():
    """Priority compares before insertion order, for entries scheduled
    ahead and for zero-delay entries scheduled at the current time."""
    env = Environment()
    order = []

    def at_five():
        order.append("normal-first")
        env.call_later(0, lambda: order.append("normal-zero"))
        env.call_later(0, lambda: order.append("urgent-zero"), priority=0)

    env.call_later(5, at_five)
    env.call_later(5, lambda: order.append("normal-second"))
    env.call_later(5, lambda: order.append("urgent"), priority=0)
    env.run()
    assert order == [
        "urgent", "normal-first", "urgent-zero", "normal-second",
        "normal-zero",
    ]


def test_zero_delay_entries_between_windows_join_those_left_at_the_horizon():
    """``run(until=T)`` leaves entries due at ``T`` queued; zero-delay
    entries the caller schedules before the next window join them in
    (priority, eid) order."""
    env = Environment()
    order = []
    env.call_later(5, lambda: order.append("normal-a"))
    env.call_later(5, lambda: order.append("normal-b"))
    env.run(until=5)
    assert order == [] and env.now == 5 and env.peek() == 5
    env.call_later(0, lambda: order.append("normal-zero"))
    env.call_later(0, lambda: order.append("urgent-zero"), priority=0)
    env.run()
    assert order == ["urgent-zero", "normal-a", "normal-b", "normal-zero"]
    assert env.now == 5


def test_step_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_step_runs_one_entry_at_a_time():
    env = Environment()
    log = []
    env.call_later(1, lambda: log.append(1))
    env.call_later(2, lambda: log.append(2))
    env.step()
    assert log == [1] and env.now == 1
    env.step()
    assert log == [1, 2] and env.now == 2
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.call_later(7, lambda: None)
    assert env.peek() == 7
    env.call_later(0, lambda: None)
    assert env.peek() == 0


def test_call_later():
    """call_later runs a zero-argument continuation and returns its
    queue entry, ``[time, priority, eid, fn]``, as the handle."""
    env = Environment()
    hits = []
    handle = env.call_later(2.5, lambda: hits.append(env.now))
    assert handle[:3] == [2.5, 1, 1]
    env.run()
    assert hits == [2.5]
    with pytest.raises(ValueError):
        env.call_later(-1.0, lambda: None)


def test_blanked_entry_still_pops_and_late_blanking_is_harmless():
    """Cancelling by blanking an entry's fn keeps event counts and order;
    blanking an entry that has already fired does nothing."""
    env = Environment()
    log = []
    cancelled = env.call_later(1.0, lambda: log.append("cancelled"))
    fired = env.call_later(1.0, lambda: log.append("fired"))
    cancelled[3] = lambda: log.append("blank")
    env.run()
    fired[3] = lambda: log.append("late")
    env.run()
    assert log == ["blank", "fired"]
    assert env.event_count == 2 and env.now == 1.0


def test_nested_process_chains():
    """Chains compose: each level hands its result to a continuation."""
    env = Environment()
    result = []

    def level3(then):
        env.call_later(1, lambda: then(3))

    def level2(then):
        level3(lambda v: env.call_later(1, lambda: then(v + 2)))

    def level1(then):
        level2(lambda v: then(v + 1))

    level1(result.append)
    env.run()
    assert result == [6]
    assert env.now == 2


def test_many_processes_complete():
    """Hundreds of independent continuations with tied times all run,
    one scheduled entry each."""
    env = Environment()
    done = []
    for i in range(500):
        env.call_later(i % 7, lambda i=i: done.append(i))
    env.run()
    assert sorted(done) == list(range(500))
    assert env.event_count == 500
