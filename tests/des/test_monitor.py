"""Tests for simulation measurement helpers."""

import pytest

from repro.des import Tally


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
