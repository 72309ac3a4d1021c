"""Unit tests for the availability timeline instrument."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.des import Environment
from repro.faults import AvailabilityTimeline
from repro.model import MB


def make(interval=1.0, nodes=2):
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=nodes, cache_bytes=1 * MB))
    return env, cluster, AvailabilityTimeline(env, cluster, interval)


def test_interval_validation():
    env, cluster, _ = make()
    with pytest.raises(ValueError):
        AvailabilityTimeline(env, cluster, 0.0)


def test_sampler_collects_and_stops():
    env, cluster, tl = make(interval=1.0)
    done = {"n": 0}

    def complete():
        tl.record_completion(was_miss=False)
        done["n"] += 1
        if done["n"] < 30:
            env.call_later(0.1, complete)

    # Offset the completions so none coincide with a sample boundary
    # (ordering of same-timestamp events is an implementation detail).
    env.call_later(0.05, complete)
    tl.start(stop=lambda: done["n"] >= 30)
    env.run()  # terminates: the sampler exits once the work is done
    assert len(tl.samples) == 3
    assert [s.completions for s in tl.samples] == [10, 10, 10]
    assert all(s.goodput_rps == pytest.approx(10.0) for s in tl.samples)


def test_window_counters_reset_each_sample():
    env, cluster, tl = make(interval=1.0)

    tl.record_completion(was_miss=True)
    tl.record_completion(was_miss=False)
    tl.record_failure()
    tl.record_retry()
    env.run(until=1.0)
    s = tl.take_sample()
    assert (s.completions, s.failures, s.retries) == (2, 1, 1)
    assert s.miss_rate == pytest.approx(0.5)
    s2 = tl.take_sample()
    assert (s2.completions, s2.failures, s2.retries) == (0, 0, 0)
    assert s2.miss_rate == 0.0


def test_node_state_string_tracks_cluster():
    env, cluster, tl = make(nodes=3)
    cluster.node(1).crash()
    cluster.node(2).set_speed_factor(0.5)
    s = tl.take_sample()
    assert s.node_states == "UDS"
    cluster.node(1).recover()
    cluster.node(2).set_speed_factor(1.0)
    s = tl.take_sample()
    assert s.node_states == "UUU"


def test_analysis_helpers():
    env, cluster, tl = make(interval=1.0)

    def burst(left, then):
        """``left`` completions 0.1 s apart, then ``then`` 0.1 s later."""
        tl.record_completion(was_miss=False)
        env.call_later(
            0.1, (lambda: burst(left - 1, then)) if left > 1 else then
        )

    def outage():
        env.call_later(2.0, lambda: burst(20, lambda: None))

    # 10 rps for 2 s, outage for 2 s, 10 rps for 2 s; offset from the
    # sample boundaries so ordering at coincident times can't matter.
    env.call_later(0.05, lambda: burst(20, outage))
    tl.start(stop=lambda: env.now >= 6.0)
    env.run()
    assert tl.goodput_between(0.0, 2.0) == pytest.approx(10.0)
    assert tl.goodput_between(2.0, 4.0) == pytest.approx(0.0)
    assert tl.time_to_recover(4.0, target_rps=5.0) is not None
    assert tl.time_to_recover(4.0, target_rps=1e9) is None


def test_event_annotation_and_render():
    env, cluster, tl = make()
    tl.mark_event("crash", 1)
    tl.take_sample()
    assert tl.events == [(0.0, "crash", 1)]
    out = tl.render()
    assert "crash(1)" in out
    assert "goodput" in out


def test_csv_round_trip():
    env, cluster, tl = make()
    tl.record_completion(was_miss=True)
    tl.take_sample()
    text = tl.to_csv()
    header, row = text.strip().split("\n")
    assert header.startswith("t,goodput_rps,")
    assert row.split(",")[2] == "1"  # completions column


def test_render_empty():
    env, cluster, tl = make()
    assert tl.render() == "(no samples)"


def test_shed_column_and_cross_substrate_csv_compat():
    """The DES and live timelines must emit identical CSV layouts —
    including the ``shed`` column — so overload runs on the two
    substrates diff cleanly (`repro live chaos --csv` vs sim CSVs)."""
    env, cluster, tl = make()
    tl.record_shed()
    tl.record_shed()
    tl.record_completion(was_miss=False)
    sample = tl.take_sample()
    assert sample.shed == 2
    header, row = tl.to_csv().strip().split("\n")
    assert header.split(",")[-1] == "shed"
    assert row.split(",")[-1] == "2"

    # One shared implementation, not two layouts kept in sync by hand:
    # a refactor that forks the CSV writers must fail here.
    from repro.faults.timeline import TimelineBase
    from repro.live.timeline import LiveAvailabilityTimeline

    assert LiveAvailabilityTimeline.to_csv is TimelineBase.to_csv
    assert type(tl).to_csv is TimelineBase.to_csv
