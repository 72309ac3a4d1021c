"""Tests for simulation measurement helpers."""

import pytest

from repro.des import Environment, RateMeter, Tally, TimeWeightedValue


def test_time_weighted_mean_piecewise():
    env = Environment()
    tw = TimeWeightedValue(env, initial=0)

    env.call_later(2, lambda: tw.set(10))  # value 0 for [0,2)
    env.call_later(5, lambda: tw.set(4))  # value 10 for [2,5)
    env.run(until=10)  # value 4 for [5,10)
    # area = 0*2 + 10*3 + 4*5 = 50 over 10
    assert tw.mean() == pytest.approx(5.0)
    assert tw.value == 4
    assert tw.maximum == 10


def test_time_weighted_add():
    env = Environment()
    tw = TimeWeightedValue(env, initial=1)
    tw.add(2)
    assert tw.value == 3
    tw.add(-1)
    assert tw.value == 2


def test_time_weighted_mean_at_t0():
    env = Environment()
    tw = TimeWeightedValue(env, initial=7)
    assert tw.mean() == 7


def test_time_weighted_reset():
    env = Environment()
    tw = TimeWeightedValue(env, initial=0)

    env.call_later(5, lambda: tw.set(100))
    env.call_later(10, tw.reset)
    env.run(until=20)
    # After reset at t=10 with value 100, mean over [10,20) is 100.
    assert tw.mean() == pytest.approx(100.0)
    assert tw.maximum == 100


def test_tally_statistics():
    t = Tally()
    for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        t.record(x)
    assert t.count == 8
    assert t.mean == pytest.approx(5.0)
    assert t.total == pytest.approx(40.0)
    assert t.minimum == 2.0
    assert t.maximum == 9.0
    # Sample variance of this classic dataset is 32/7.
    assert t.variance == pytest.approx(32.0 / 7.0)
    assert t.stdev == pytest.approx((32.0 / 7.0) ** 0.5)


def test_tally_empty():
    t = Tally()
    assert t.count == 0
    assert t.mean == 0.0
    assert t.variance == 0.0
    assert t.minimum == 0.0
    assert t.maximum == 0.0


def test_tally_reset():
    t = Tally()
    t.record(5)
    t.reset()
    assert t.count == 0
    assert t.mean == 0.0


def test_tally_reset_restores_every_accumulator():
    """Reset returns every field to its initial state — min/max sentinels
    included — and post-reset statistics match a fresh Tally exactly."""
    t = Tally()
    for x in [1.0, -3.0, 12.0]:
        t.record(x)
    t.reset()
    assert t.count == 0
    assert t.total == 0.0
    assert t.variance == 0.0
    assert t.minimum == 0.0
    assert t.maximum == 0.0
    fresh = Tally()
    for x in [2.0, 6.0]:
        t.record(x)
        fresh.record(x)
    assert t.mean == fresh.mean
    assert t.variance == fresh.variance
    assert (t.minimum, t.maximum) == (fresh.minimum, fresh.maximum)


def test_reset_semantics_identical_across_meters():
    """At a warmup boundary all three meters restart their window at the
    current time; a measurement made over the post-reset window alone is
    unaffected by anything recorded before it."""
    env = Environment()
    tw = TimeWeightedValue(env, initial=0)
    tally = Tally()
    meter = RateMeter(env)

    def noise():
        # Warmup phase: noisy values that must leave no trace.
        tw.set(999)
        tally.record(999.0)
        meter.tick(50)

    def boundary():
        tw.set(10)
        tw.reset()
        tally.reset()
        meter.reset()

    def measured():
        # Measured phase: constant level 10, one observation, 5 ticks
        # over 5 seconds.
        tally.record(7.0)
        meter.tick(5)

    env.call_later(3, noise)
    env.call_later(5, boundary)  # --- warmup boundary (t=5) ---
    env.call_later(10, measured)
    env.run()
    assert tw.mean() == pytest.approx(10.0)
    assert tw.maximum == 10
    assert tally.count == 1 and tally.mean == pytest.approx(7.0)
    assert meter.rate() == pytest.approx(1.0)


def test_rate_meter():
    env = Environment()
    meter = RateMeter(env)

    for k in range(1, 11):
        env.call_later(2 * k, meter.tick)
    env.run()
    assert meter.count == 10
    assert meter.rate() == pytest.approx(0.5)


def test_rate_meter_reset_discards_warmup():
    env = Environment()
    meter = RateMeter(env)

    for k in range(1, 5):
        env.call_later(k, meter.tick)
    env.call_later(4, meter.reset)
    for k in range(1, 11):
        env.call_later(4 + 2 * k, meter.tick)
    env.run()
    assert meter.count == 10
    assert meter.rate() == pytest.approx(0.5)


def test_rate_meter_keep_times():
    env = Environment()
    meter = RateMeter(env, keep_times=True)

    env.call_later(1, meter.tick)
    env.call_later(2, lambda: meter.tick(2))
    env.run()
    assert meter.times == [1, 2]


def test_rate_meter_zero_elapsed():
    env = Environment()
    meter = RateMeter(env)
    meter.tick()
    assert meter.rate() == 0.0
