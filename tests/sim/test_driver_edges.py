"""Edge-case tests for the simulation driver."""

from math import inf

import pytest

from repro.chaos import ScenarioGenerator
from repro.chaos.runner import run_scenario
from repro.cluster import ClusterConfig
from repro.des import Environment
from repro.model import MB
from repro.servers import make_policy
from repro.sim import Simulation
from repro.workload import FileSet, Trace, build_fileset, generate_trace, synthesize

import numpy as np


def tiny_trace(n=5):
    fs = FileSet(sizes=np.full(10, 8 * 1024), alpha=1.0, name="tiny")
    return Trace("tiny", fs, np.arange(n) % 10)


def cfg(nodes=2, mpl=8):
    return ClusterConfig(
        nodes=nodes, cache_bytes=1 * MB, multiprogramming_per_node=mpl
    )


def test_single_request_trace():
    trace = tiny_trace(1)
    r = Simulation(trace, make_policy("round-robin"), cfg(), warmup_fraction=0.0).run()
    assert r.requests_measured == 1
    assert r.throughput_rps > 0


def test_trace_shorter_than_mpl():
    trace = tiny_trace(3)  # MPL is 16
    r = Simulation(trace, make_policy("l2s"), cfg(), warmup_fraction=0.0).run()
    assert r.requests_measured == 3


def test_zero_warmup_measures_everything():
    trace = tiny_trace(50)
    r = Simulation(trace, make_policy("l2s"), cfg(), warmup_fraction=0.0).run()
    assert r.requests_warmup == 0
    assert r.requests_measured == 50


def test_many_passes():
    trace = tiny_trace(30)
    sim = Simulation(trace, make_policy("l2s"), cfg(), passes=3)
    r = sim.run()
    assert r.requests_warmup == 60
    assert r.requests_measured == 30


def test_failure_trigger_beyond_total_never_fires():
    trace = tiny_trace(20)
    sim = Simulation(
        trace,
        make_policy("l2s"),
        cfg(),
        warmup_fraction=0.0,
        failures=[(1, 10_000)],
    )
    r = sim.run()
    assert not sim.cluster.node(1).failed
    assert r.requests_failed == 0


def test_fail_node_idempotent():
    trace = tiny_trace(20)
    sim = Simulation(trace, make_policy("l2s"), cfg(), warmup_fraction=0.0)
    sim.fail_node(1)
    sim.fail_node(1)  # second call is a no-op
    r = sim.run()
    assert sim.cluster.node(1).failed
    assert r.requests_measured + r.requests_failed == 20


def test_mismatched_policy_reuse_rejected_cleanly():
    """A policy instance is bound to one cluster; reusing it reflects the
    new cluster after rebinding (documented single-use semantics)."""
    trace = tiny_trace(10)
    policy = make_policy("l2s")
    Simulation(trace, policy, cfg(nodes=2), warmup_fraction=0.0).run()
    # Rebinding to a new simulation resets the policy state.
    r = Simulation(trace, policy, cfg(nodes=2), warmup_fraction=0.0).run()
    assert r.requests_measured == 10


def test_big_file_never_cached_still_served():
    """A file larger than the whole cache streams from disk every time."""
    fs = FileSet(sizes=np.array([4 * MB, 8 * 1024]), alpha=1.0, name="big")
    trace = Trace("big", fs, np.array([0, 0, 1, 0]))
    sim = Simulation(trace, make_policy("round-robin"), cfg(nodes=1), warmup_fraction=0.0)
    r = sim.run()
    assert r.requests_measured == 4
    # Three requests for the uncacheable file -> three misses.
    assert sim.cluster.node(0).cache.misses >= 3


# -- a stranded request must end the run, not spin the samplers --------------

#: Simulated-time bound for the stranded runs; a healthy one of these
#: simulations ends well inside 2 s, so a run reaching the bound means a
#: sampler kept rescheduling itself after the last real entry.
STRANDED_BOUND_S = 200.0


def _strand_50th_completion(monkeypatch):
    """Lose the 50th request completion (the request never finishes) and
    bound every ``env.run()`` at :data:`STRANDED_BOUND_S`; returns the
    list the environments run are appended to."""
    real_done = Simulation._on_done
    calls = {"n": 0}

    def on_done(self, *args):
        calls["n"] += 1
        if calls["n"] != 50:
            real_done(self, *args)

    monkeypatch.setattr(Simulation, "_on_done", on_done)
    real_run = Environment.run
    ran = []

    def bounded_run(self, until=None):
        ran.append(self)
        real_run(self, until=STRANDED_BOUND_S)

    monkeypatch.setattr(Environment, "run", bounded_run)
    return ran


def test_stranded_request_ends_a_timeline_run(monkeypatch):
    _strand_50th_completion(monkeypatch)
    trace = synthesize("calgary", 1200, seed=1)
    sim = Simulation(
        trace, make_policy("lard"), ClusterConfig(nodes=4),
        timeline_interval_s=0.01,
    )
    with pytest.raises(RuntimeError, match="ended early: 1199/1200"):
        sim.run()
    # The sampler stopped once nothing else was queued: the queue drained
    # long before the bound.
    assert sim.env.peek() == inf
    assert sim.timeline.samples[-1].t < 10.0


def test_stranded_request_is_a_chaos_conservation_violation(monkeypatch):
    ran = _strand_50th_completion(monkeypatch)
    outcome = run_scenario(ScenarioGenerator(42).generate(0))
    # The oracle's sampler stopped once nothing else was queued.
    assert [env.peek() for env in ran] == [inf]
    assert outcome.early_error is not None
    assert "ended early" in outcome.early_error
    assert "request_conservation" in {v.check for v in outcome.violations}
