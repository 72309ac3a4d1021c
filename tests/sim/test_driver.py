"""Tests for the closed-loop saturation driver and runner API."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.model import MB
from repro.servers import POLICIES, make_policy
from repro.sim import Simulation, model_bound_for_trace, run_simulation
from repro.workload import FileSet, Trace, generate_trace, build_fileset


def small_trace(requests=2000, files=200, seed=0, name="small"):
    fs = build_fileset(files, 15 * 1024, 12 * 1024, 0.9, seed=seed, name=name)
    return generate_trace(fs, requests, seed=seed + 1, name=name)


def small_config(nodes=2, mpl=8):
    return ClusterConfig(
        nodes=nodes, cache_bytes=1 * MB, multiprogramming_per_node=mpl
    )


def test_simulation_completes_all_requests():
    trace = small_trace()
    sim = Simulation(trace, make_policy("round-robin"), small_config())
    result = sim.run()
    assert result.requests_measured + result.requests_warmup == len(trace)
    assert result.throughput_rps > 0
    assert result.sim_seconds > 0


def test_simulation_validation():
    trace = small_trace()
    with pytest.raises(ValueError):
        Simulation(trace.head(0), make_policy("round-robin"), small_config())
    with pytest.raises(ValueError):
        Simulation(trace, make_policy("round-robin"), small_config(), warmup_fraction=1.0)
    with pytest.raises(ValueError):
        Simulation(trace, make_policy("round-robin"), small_config(), passes=0)


def test_simulation_deterministic():
    a = Simulation(small_trace(), make_policy("l2s"), small_config()).run()
    b = Simulation(small_trace(), make_policy("l2s"), small_config()).run()
    assert a.throughput_rps == b.throughput_rps
    assert a.miss_rate == b.miss_rate
    assert a.node_completions == b.node_completions


def test_two_pass_mode_measures_second_pass():
    trace = small_trace(requests=1500)
    sim = Simulation(trace, make_policy("l2s"), small_config(), passes=2)
    result = sim.run()
    assert result.requests_warmup == 1500
    assert result.requests_measured == 1500


def test_two_pass_reduces_first_touch_misses():
    # Combined cache (4 x 4 MB) comfortably holds the ~6 MB working set,
    # so pass-2 misses are (nearly) only replication-induced.
    cfg = ClusterConfig(nodes=4, cache_bytes=4 * MB, multiprogramming_per_node=8)
    one = Simulation(
        small_trace(requests=3000, files=400),
        make_policy("l2s"),
        cfg,
        warmup_fraction=0.0,
    ).run()
    two = Simulation(
        small_trace(requests=3000, files=400),
        make_policy("l2s"),
        cfg,
        passes=2,
    ).run()
    assert two.miss_rate < one.miss_rate
    assert two.miss_rate < 0.05


def test_warmup_fraction_mode():
    trace = small_trace(requests=2000)
    sim = Simulation(
        trace, make_policy("round-robin"), small_config(), warmup_fraction=0.5
    )
    result = sim.run()
    assert result.requests_warmup == 1000
    assert result.requests_measured == 1000


def test_prewarm_enabled_for_local_policies_only(monkeypatch):
    local = {name for name, cls in POLICIES.items() if cls.local_prewarm}
    assert local == {"round-robin", "traditional"}
    warmed = []
    monkeypatch.setattr(
        Simulation, "_prewarm", lambda self: warmed.append(self.policy.name)
    )
    trace = small_trace(requests=200)
    for name in ("traditional", "lard"):
        Simulation(trace, make_policy(name), small_config()).run()
    assert warmed == ["traditional"]


def test_result_metrics_sane():
    trace = small_trace(requests=3000)
    result = Simulation(
        trace, make_policy("l2s"), small_config(nodes=4), passes=2
    ).run()
    assert 0.0 <= result.miss_rate <= 1.0
    assert 0.0 <= result.forwarded_fraction <= 1.0
    assert len(result.cpu_utilizations) == 4
    assert all(0.0 <= u <= 1.0 for u in result.cpu_utilizations)
    assert result.mean_response_s > 0
    assert result.messages_per_request >= 0
    assert sum(result.node_completions) == result.requests_measured
    assert result.load_imbalance >= 1.0
    assert 0.0 <= result.mean_cpu_idle <= 1.0
    assert "l2s" == result.policy
    assert isinstance(result.summary_row(), str)


def test_lard_result_front_end_serves_nothing():
    trace = small_trace(requests=2000)
    result = Simulation(
        trace, make_policy("lard"), small_config(nodes=4), passes=2
    ).run()
    assert result.node_completions[0] == 0
    assert result.forwarded_fraction == 1.0


def test_run_simulation_with_preset_and_policy_names():
    r = run_simulation(
        "calgary", "round-robin", nodes=2, num_requests=1500, passes=1,
        warmup_fraction=0.2,
    )
    assert r.trace == "calgary"
    assert r.policy == "round-robin"
    assert r.nodes == 2


def test_run_simulation_policy_kwargs():
    r = run_simulation(
        "calgary",
        "l2s",
        nodes=2,
        num_requests=1000,
        passes=1,
        overload_threshold=30,
    )
    assert r.policy == "l2s"
    trace = small_trace()
    with pytest.raises(ValueError):
        run_simulation(trace, make_policy("l2s"), nodes=2, overload_threshold=30)


def test_model_bound_for_trace_accepts_trace_and_name():
    by_name = model_bound_for_trace("calgary", nodes=8)
    assert by_name.throughput > 0
    trace = small_trace()
    by_trace = model_bound_for_trace(trace, nodes=8)
    assert by_trace.throughput > 0


def test_model_bound_scales_with_nodes_for_trace():
    t4 = model_bound_for_trace("rutgers", nodes=4).throughput
    t16 = model_bound_for_trace("rutgers", nodes=16).throughput
    assert t16 > t4
