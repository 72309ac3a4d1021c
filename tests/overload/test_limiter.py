"""AdaptiveConcurrencyLimit unit contracts: AIMD growth and the
EWMA-gated decrease with its one-per-window cooldown."""

import pytest

from repro.overload.limiter import AdaptiveConcurrencyLimit, LimitConfig


def test_good_latency_grows_additively():
    lim = AdaptiveConcurrencyLimit(LimitConfig(initial=10, target_latency_s=0.1))
    for i in range(10):
        lim.observe(0.01, now=i * 0.01)
    # ~ten increase/limit steps from 10: strictly up, roughly +1 total.
    assert 10 < lim._limit < 12


def test_sustained_slow_latency_shrinks_multiplicatively():
    lim = AdaptiveConcurrencyLimit(
        LimitConfig(initial=100, target_latency_s=0.05, decrease=0.5)
    )
    # Slow samples spaced beyond each cut's cooldown horizon.
    lim.observe(1.0, now=0.0)
    lim.observe(1.0, now=2.0)
    assert lim.limit == 25  # two uncontested halvings


def test_decrease_cooldown_one_cut_per_latency_window():
    lim = AdaptiveConcurrencyLimit(
        LimitConfig(initial=100, target_latency_s=0.05, decrease=0.5)
    )
    lim.observe(1.0, now=0.0)  # cut to 50, holdoff until ~1.0
    for t in (0.1, 0.3, 0.5, 0.9):
        lim.observe(1.0, now=t)  # in-window stragglers: stale evidence
    assert lim.limit == 50
    lim.observe(1.0, now=1.5)  # past the horizon: a real second signal
    assert lim.limit == 25


def test_ewma_gating_tolerates_isolated_tail_samples():
    # A fat-tailed but healthy service: occasional slow samples in a
    # stream of fast ones must not walk the limit down (the raw-sample
    # AIMD failure mode that locks a locality policy at min_limit).
    lim = AdaptiveConcurrencyLimit(
        LimitConfig(initial=50, target_latency_s=0.05, short_alpha=0.1)
    )
    now = 0.0
    for round_ in range(20):
        for _ in range(19):
            now += 0.001
            lim.observe(0.005, now=now)
        now += 0.001
        lim.observe(0.2, now=now)  # 5% tail, 4x over target
    assert lim.limit >= 50


def test_floor_and_ceiling_clamp():
    lim = AdaptiveConcurrencyLimit(
        LimitConfig(min_limit=4, max_limit=8, initial=8, target_latency_s=0.1)
    )
    for i in range(50):
        lim.observe(5.0, now=float(i * 100))
    assert lim.limit == 4
    for i in range(200):
        lim.observe(0.01, now=1e6 + i)
    assert lim.limit == 8


def test_determinism_same_stream_same_trajectory():
    def run():
        lim = AdaptiveConcurrencyLimit(LimitConfig(target_latency_s=0.05))
        out = []
        for i in range(100):
            lim.observe(0.01 if i % 7 else 0.3, now=i * 0.01)
            out.append(lim.limit)
        return out

    assert run() == run()


def test_config_validation():
    with pytest.raises(ValueError):
        LimitConfig(min_limit=0)
    with pytest.raises(ValueError):
        LimitConfig(min_limit=8, max_limit=4)
    with pytest.raises(ValueError):
        LimitConfig(initial=2, min_limit=4)
    with pytest.raises(ValueError):
        LimitConfig(decrease=1.0)
    with pytest.raises(ValueError):
        LimitConfig(target_latency_s=0.0)


def test_negative_latency_is_ignored():
    lim = AdaptiveConcurrencyLimit(LimitConfig(initial=64))
    lim.observe(-1.0, now=0.0)
    assert lim.observations == 0
    assert lim.limit == 64
